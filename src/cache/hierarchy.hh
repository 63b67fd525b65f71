/**
 * @file
 * Three-level inclusive cache hierarchy with SLPMT metadata movement.
 *
 * Geometry and latencies follow Table III: L1 32 KB/8-way/4 cycles,
 * L2 256 KB/4-way/12 cycles, L3 2 MB/16-way/40 cycles; all lines are
 * 64 bytes. L1 and L2 lines carry SLPMT metadata (persist bit, log
 * bitmap, transaction ID); L3 carries none.
 *
 * Metadata ownership: the metadata for a line lives at the highest
 * private level currently holding it. Fetching a line from L2 into L1
 * moves the metadata up (replicating the 2-bit L2 log map into 8 L1
 * bits); evicting from L1 merges it back down (aggregating the 8 bits
 * into 2 by conjunction). Lines entering L2 from L3 start with clear
 * metadata, per Section III-B1.
 *
 * The transaction engine observes lines leaving the private caches
 * through the devirtualized eviction-client hook (setEvictionClient)
 * so it can flush their log-buffer records and persist them when
 * required (Section III-A).
 */

#ifndef SLPMT_CACHE_HIERARCHY_HH
#define SLPMT_CACHE_HIERARCHY_HH

#include <utility>

#include "cache/cache.hh"
#include "stats/stats.hh"
#include "mem/address_map.hh"
#include "mem/dram_device.hh"
#include "mem/pm_device.hh"

namespace slpmt
{

/** Hierarchy geometry; defaults reproduce Table III. */
struct HierarchyConfig
{
    CacheConfig l1{"L1", 32 * 1024, 8, 4};
    CacheConfig l2{"L2", 256 * 1024, 4, 12};
    CacheConfig l3{"L3", 2 * 1024 * 1024, 16, 40};
};

class CacheHierarchy;

/** Result of one hierarchy access. */
struct AccessResult
{
    CacheLine *line;   //!< the L1 line now holding the data
    Cycles latency;    //!< total access latency including evictions
};

/** The inclusive three-level hierarchy. */
class CacheHierarchy
{
  public:
    /** Private L1/L2 (geometry from @p cfg) over the machine's
     *  shared L3 (the caller keeps @p shared_l3 alive). */
    CacheHierarchy(const HierarchyConfig &cfg, const AddressMap &map,
                   PmDevice &pm, DramDevice &dram, StatsRegistry &stats,
                   Cache &shared_l3);

    /**
     * Wire the observer of lines leaving the private (L1+L2) caches
     * while carrying transactional metadata — the transaction engine.
     * The client provides two non-virtual members:
     *
     *  - `Cycles evictingPrivateLine(CacheLine &, Cycles)`: a line
     *    with transactional metadata is about to overflow from L2 to
     *    L3; flush its buffered log records and persist it if the
     *    metadata demands so (the metadata is then discarded — L3
     *    holds none). Returns extra cycles spent.
     *  - `std::pair<Cycles, std::uint8_t> roundUpLogBits(CacheLine &,
     *    std::uint8_t missing_words, Cycles)`: an L1 line is merging
     *    down into L2 with a 4-word log-bit group partially set; the
     *    client may speculatively log the clean words to round the
     *    group up (Section III-B1). Returns {cycles, words logged}.
     *
     * Dispatch is through function pointers specialised on the
     * concrete client type here — devirtualized: the per-event calls
     * carry no vtable load and no multiple-inheritance thunks.
     */
    template <typename Client>
    void
    setEvictionClient(Client *client)
    {
        evictClientObj = client;
        evictLineFn = [](void *obj, CacheLine &line, Cycles now) {
            return static_cast<Client *>(obj)->evictingPrivateLine(line,
                                                                   now);
        };
        roundUpFn = [](void *obj, CacheLine &line, std::uint8_t missing,
                       Cycles now) {
            return static_cast<Client *>(obj)->roundUpLogBits(
                line, missing, now);
        };
    }

    /**
     * Multicore hook for cross-core folds on shared-L3 evictions:
     * when a shared-L3 victim departs, private copies may live in
     * *other* cores' L1/L2, and the multicore machine folds them into
     * the victim (running each owner's eviction client for metadata-
     * bearing lines) before the writeback. The folder provides a
     * non-virtual `Cycles foldRemotePrivate(CacheHierarchy &evictor,
     * CacheLine &victim, Cycles now)` member; dispatch is the same
     * devirtualized thunk scheme as setEvictionClient().
     */
    template <typename Folder>
    void
    setRemoteFolder(Folder *f)
    {
        remoteFolderObj = f;
        foldRemoteFn = [](void *obj, CacheHierarchy &evictor,
                          CacheLine &victim, Cycles now) {
            return static_cast<Folder *>(obj)->foldRemotePrivate(
                evictor, victim, now);
        };
    }

    /** Enable the Section III-B1 speculative log-rounding option. */
    void setSpeculativeRounding(bool on) { speculativeRounding = on; }

    /**
     * Access one cache line, filling it into L1.
     *
     * The L1-hit path is inline — it is the single hottest operation
     * in the simulator (every load/store chunk lands here) and on a
     * hit touches only the probe-key and LRU arrays. The mapped-range
     * check runs on the miss path only: an unmapped address can never
     * be resident (its first fill would have panicked), so a hit
     * proves the address mapped.
     */
    AccessResult
    access(Addr addr, bool is_write, Cycles now)
    {
        const std::size_t f = l1Cache.findFrameHinted(addr, l1Mru);
        if (f != Cache::npos) {
            l1Mru = f;
            statL1Hits++;
            CacheLine &line = l1Cache.lineAt(f);
            l1Cache.touchFrame(f);
            if (is_write) {
                line.dirty = true;
                line.state = MesiState::Modified;
            }
            return {&line, l1Cache.hitLatency()};
        }
        return accessMiss(addr, is_write, now);
    }

    /** Byte-granular read that may span lines. */
    Cycles readBytes(Addr addr, void *out, std::size_t len, Cycles now);

    /** Byte-granular write that may span lines (no metadata updates —
     *  the transaction engine sets metadata itself). */
    Cycles writeBytes(Addr addr, const void *src, std::size_t len,
                      Cycles now);

    /** Find a line in the private caches (L1 preferred), or nullptr. */
    CacheLine *findPrivate(Addr addr);

    /**
     * Apply @p fn to every metadata-bearing private line: indexed L1
     * lines first, then indexed L2 lines with no L1 copy, each level
     * in frame order — exactly the order (and exactly the lines on
     * which @p fn acts) that the historical full scan produced, so
     * the cycle-charging sweeps stay byte-identical. O(working set).
     *
     * The walk snapshots the index before applying @p fn, so @p fn
     * may clear metadata (unlinking lines) freely; it must not create
     * new metadata lines mid-sweep.
     *
     * With auditing enabled, every walk first cross-checks the index
     * against a brute-force scan and panics on divergence.
     */
    template <typename Fn>
    void
    forEachPrivate(Fn &&fn)
    {
        statMetaWalks++;
        if (metaIndexAudit)
            auditMetaIndex();
        // Move the scratch buffer out for the walk and put it back
        // after: the capacity is reused across walks (no per-walk
        // allocation), and a re-entrant walk — fn reaching another
        // forEachPrivate — simply finds an empty scratch and
        // allocates its own.
        std::vector<CacheLine *> snapshot = std::move(walkScratch);
        snapshot.clear();
        snapshot.reserve(l1Cache.metaLineCount() +
                         l2Cache.metaLineCount());
        l1Cache.collectMetaLines(snapshot);
        const std::size_t l1_end = snapshot.size();
        l2Cache.collectMetaLines(snapshot);
        for (std::size_t i = 0; i < snapshot.size(); ++i) {
            // The metadata-ownership invariant says an indexed L2 line
            // has no L1 copy; keep the historical guard regardless so
            // a hand-built state (tests) cannot double-visit a line.
            if (i >= l1_end && l1Cache.find(snapshot[i]->tag))
                continue;
            fn(*snapshot[i]);
        }
        walkScratch = std::move(snapshot);
    }

    /**
     * Re-evaluate a private line's membership in the metadata line
     * index after its metadata changed. The transaction engine calls
     * this after mutating metadata on lines it obtained from access()
     * or findPrivate(); internal metadata movement (promotion, merge,
     * eviction, invalidation) is maintained by the hierarchy itself.
     * Lines not owned by L1 or L2 (L3 frames, detached copies) are
     * ignored.
     */
    void
    noteMetaUpdate(CacheLine &line)
    {
        if (l1Cache.owns(&line))
            l1Cache.syncMetaIndex(line);
        else if (l2Cache.owns(&line))
            l2Cache.syncMetaIndex(line);
    }

    /**
     * Run the index-vs-full-scan cross-check on both private levels.
     * @return false with a diagnostic when the index diverges.
     */
    bool
    verifyMetaIndex(std::string *why) const
    {
        return l1Cache.checkMetaIndex(why) && l2Cache.checkMetaIndex(why);
    }

    /** Cross-check the index against a full scan on every walk. */
    void setMetaIndexAudit(bool on) { metaIndexAudit = on; }

    /**
     * Persist a private line to PM and mark every cached copy clean
     * (the durable image now matches the cache contents).
     *
     * @param sync false when issued by background hardware (forced
     *        lazy flushes): occupies the WPQ without stalling the core
     */
    Cycles persistPrivateLine(CacheLine &line, PersistKind kind,
                              Cycles now, bool sync = true);

    /** Invalidate every cached copy of a line (abort path). */
    void invalidateLineEverywhere(Addr addr);

    /** Power failure: all cache contents vanish. */
    void crash();

    /**
     * Write back and drop every dirty line (used between experiment
     * phases to reach a quiescent durable state).
     */
    Cycles flushAll(Cycles now);

    /** Flush only the private levels (L1+L2) into the L3. The
     *  multicore quiesce flushes every core's privates first, then
     *  the shared L3 once. */
    Cycles flushPrivate(Cycles now);

    /** Flush (write back and drop) the L3 contents. */
    Cycles flushShared(Cycles now);

    /**
     * Coherence transfer: give up this core's private copy of a line,
     * merging data and transactional metadata down into the shared L3
     * exactly as a capacity eviction would (the eviction client flushes
     * log records / persists when the metadata demands it — the
     * paper's L1<->L2 aggregation rules apply unchanged on the way
     * down). No-op when the line is not privately cached.
     */
    Cycles surrenderPrivate(Addr addr, Cycles now);

    /**
     * Fold this hierarchy's private copy of @p victim (a detached
     * shared-L3 victim) into it, running the eviction client for
     * metadata-bearing lines. Public so the multicore machine can fold
     * *other* cores' copies during a shared-L3 eviction.
     */
    Cycles foldPrivateInto(CacheLine &victim, Cycles now);

    Cache &l1() { return l1Cache; }
    Cache &l2() { return l2Cache; }
    Cache &l3() { return l3Cache; }

  private:
    /** Panic if the metadata line index diverges from a full scan. */
    void auditMetaIndex() const;

    /** The L1-miss tail of access(): fills and metadata movement. */
    AccessResult accessMiss(Addr addr, bool is_write, Cycles now);

    /** Ensure the line is resident in L2+L3; returns fill latency. */
    Cycles ensureInL2(Addr addr, Cycles now);

    /** Move a line from L2 into L1 (metadata moves up). */
    CacheLine &promoteToL1(CacheLine &l2_line, Cycles now,
                           Cycles &latency);

    Cycles evictFromL1(CacheLine &victim, Cycles now);
    Cycles evictFromL2(CacheLine &victim, Cycles now);
    Cycles evictFromL3(CacheLine &victim, Cycles now);

    /** Write a line's data into the backing device (dirty writeback). */
    Cycles writebackToDevice(const CacheLine &line, Cycles now);

    const AddressMap &addrMap;
    PmDevice &pm;
    DramDevice &dram;
    Cache l1Cache;
    Cache l2Cache;
    Cache &l3Cache;  //!< the machine's shared L3

    /** Devirtualized client/folder dispatch (see the setters). */
    void *evictClientObj = nullptr;
    Cycles (*evictLineFn)(void *, CacheLine &, Cycles) = nullptr;
    std::pair<Cycles, std::uint8_t> (*roundUpFn)(void *, CacheLine &,
                                                 std::uint8_t,
                                                 Cycles) = nullptr;
    void *remoteFolderObj = nullptr;
    Cycles (*foldRemoteFn)(void *, CacheHierarchy &, CacheLine &,
                           Cycles) = nullptr;
    bool speculativeRounding = false;

    /** access() L1 MRU hint — pure lookup acceleration, validated
     *  against the probe keys on every use, never serialized. */
    std::size_t l1Mru = 0;

    /** forEachPrivate() snapshot buffer, reused across walks. */
    std::vector<CacheLine *> walkScratch;

    /** Metadata line index audit (see forEachPrivate()): defaults on
     *  in assertion and ASan/TSan builds, off in optimised ones. */
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) ||               \
    defined(__SANITIZE_THREAD__)
    bool metaIndexAudit = true;
#else
    bool metaIndexAudit = false;
#endif

    StatsRegistry::Counter statL1Hits;
    StatsRegistry::Counter statL1Misses;
    StatsRegistry::Counter statL2Hits;
    StatsRegistry::Counter statL2Misses;
    StatsRegistry::Counter statL3Hits;
    StatsRegistry::Counter statL3Misses;
    StatsRegistry::Counter statWritebacks;
    StatsRegistry::Counter statPrivateEvictions;

    /** L1→L2 evictions where aggregating the word-granularity log map
     *  by conjunction zeroed a partially-logged group (III-B1). */
    StatsRegistry::Counter statLogBitAggrLossy;

    /** forEachPrivate invocations (walks, not lines visited); pinned
     *  by GoldenStats. */
    StatsRegistry::Counter statMetaWalks;
};

} // namespace slpmt

#endif // SLPMT_CACHE_HIERARCHY_HH
