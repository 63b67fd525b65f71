/**
 * @file
 * The SLPMT hardware transaction engine.
 *
 * Implements the data path of Sections II and III for every evaluated
 * scheme: the store/storeT semantics of Table I, fine-grain undo
 * logging through the tiered log buffer, the commit persist ordering
 * of Figure 4, lazy persistency with working-set signatures and the
 * circular transaction-ID allocator, plus the ATOM and EDE baselines
 * and a redo-logging mode.
 *
 * Timing model: the engine owns the core clock. Every memory
 * instruction advances it by the hierarchy access latency plus any
 * logging/persist work it triggers; persist operations are charged
 * their WPQ issue latency, which includes stalls when the 512-byte
 * queue is full of writes still draining at the media write latency.
 * Workloads additionally charge pure compute through advance().
 */

#ifndef SLPMT_TXN_ENGINE_HH
#define SLPMT_TXN_ENGINE_HH

#include <array>
#include <cstdint>
#include <exception>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/hierarchy.hh"
#include "stats/stats.hh"
#include "logbuf/log_buffer.hh"
#include "txn/scheme.hh"
#include "txn/signature.hh"
#include "txn/txn_ids.hh"
#include "txn/undo_log_area.hh"

namespace slpmt
{

/** Operands of the storeT instruction (Figure 2). */
struct StoreFlags
{
    bool lazy = false;     //!< defer persisting past commit
    bool logFree = false;  //!< create no log record
};

/** Undo (in-place, default) or redo (out-of-place) logging. */
enum class LoggingStyle : std::uint8_t
{
    Undo,
    Redo,
};

/** Thrown by the fault-injection hook when the armed crash fires. */
class CrashInjected : public std::exception
{
  public:
    const char *what() const noexcept override
    {
        return "injected power failure";
    }
};

/** Fixed instruction overheads of the timing model. */
struct EngineCosts
{
    Cycles txBegin = 20;      //!< allocate ID, set up registers
    Cycles txCommit = 30;     //!< commit bookkeeping before persists
    Cycles lazyScan = 8;      //!< coherence scan kicking off a forced
                              //!< lazy persist

    /**
     * Round-trip of the commit-path coherence request persisting one
     * cache line: the core issues the request and the memory
     * controller acknowledges when the line reaches the persistence
     * domain (Section III-C2). Forced lazy persists issue the same
     * requests off the critical path and do not charge this.
     */
    Cycles commitPersistAck = nsToCycles(60);
};

/**
 * Per-core transaction engine; also the hierarchy's eviction client
 * and the log buffer's drain sink (wired through the devirtualized
 * setEvictionClient/setSink hooks — no virtual interfaces).
 */
class TxnEngine final
{
  public:
    /**
     * @param log_base,log_size Persistent log-area slice this engine
     *        appends to: the machine carves the map's log area into
     *        per-core slices so concurrent engines never interleave
     *        records.
     * @param seq_counter The machine's transaction sequence counter,
     *        shared by its engines so (txn ID, txn seq) pairs stay
     *        globally unique.
     * @param crash_countdown The machine's crash-after-N-stores
     *        countdown, shared by its engines so the machine crashes
     *        at a global store ordinal (0 = disarmed). When it reaches
     *        zero on a store, the engine crashes and throws
     *        CrashInjected, unwinding the workload mid-transaction.
     */
    TxnEngine(const SchemeConfig &scheme, LoggingStyle style,
              const AddressMap &map, CacheHierarchy &hier, PmDevice &pm,
              StatsRegistry &stats, Addr log_base, Bytes log_size,
              std::uint64_t &seq_counter, std::uint64_t &crash_countdown);

    TxnEngine(const TxnEngine &) = delete;
    TxnEngine &operator=(const TxnEngine &) = delete;

    /** @name Transaction control */
    /** @{ */
    void txBegin();
    void txCommit();

    /**
     * Abort the in-flight transaction for concurrency control
     * (Section V-B): invalidate its cache lines, clear the log buffer
     * and signature, and replay the undo log onto PM. Log-free data
     * is left for the caller's user-level recovery.
     */
    void txAbort();

    bool inTransaction() const { return inTxn; }
    std::uint64_t currentTxnSeq() const { return curSeq; }
    /** @} */

    /** @name Data path (the memory instructions) */
    /** @{ */
    /** load: read bytes through the hierarchy. */
    void load(Addr addr, void *out, std::size_t len);

    /** store: the ordinary logged, eagerly persistent store. */
    void
    store(Addr addr, const void *src, std::size_t len)
    {
        storeT(addr, src, len, StoreFlags{});
    }

    /**
     * storeT: store with selective-logging operands. Outside a
     * transaction, or when the scheme disables a feature, the
     * corresponding operand is ignored (the log-free flag of Figure 2
     * "disables the semantic of storeT").
     */
    void storeT(Addr addr, const void *src, std::size_t len,
                StoreFlags flags);
    /** @} */

    /** @name Coherence events from other cores */
    /** @{ */
    /**
     * Directory probe from another core (multicore machine): run the
     * paper's cross-transaction observation rules — the
     * store-triggered signature check and the line-owner txn-ID check
     * of Section III-C3 — against this core's state without moving
     * any data (the caller handles invalidation/downgrade
     * separately). Lazy drains forced this way are attributed to the
     * txn.lazyDrain.remote* counters; the drain work is charged to
     * this core's clock, since it is this core's WPQ traffic.
     *
     * @return true when the probed line belongs to this core's
     *         in-flight transaction (a cross-core conflict the
     *         machine must resolve by aborting this core)
     */
    bool remoteObserve(Addr addr, bool is_write);
    /** @} */

    /**
     * Thread context switch (Section V-C): before switching out, the
     * OS kernel drains the log buffer so a crash while the thread is
     * descheduled cannot lose undo records whose data lines might
     * still overflow. The signatures and transaction-ID allocation
     * state are left untouched — they are not specific to a context.
     */
    void
    contextSwitch()
    {
        clock += logBuf.drainAll(clock);
    }

    /** @name Lazy persistency control */
    /** @{ */
    /** Force every outstanding lazily persistent line to PM (the
     *  "run four empty transactions" effect of Section III-C4). */
    void persistAllLazy();

    /** Number of committed transactions with volatile lazy data. */
    std::size_t lazyOutstandingCount() const;
    /** @} */

    /** @name Crash and recovery */
    /** @{ */
    /** Power failure: caches, log buffer, signatures and IDs vanish. */
    void crash();

    /**
     * Total store/storeT instructions executed so far — the ordinal
     * space the crash countdown counts in. The crash-point explorer
     * dry-runs a workload, reads this, and enumerates every value as
     * an injection point.
     */
    std::uint64_t
    storesExecuted() const
    {
        return statStores.get() + statStoreTs.get();
    }

    /**
     * Post-crash hardware-level recovery: replay the persistent undo
     * log (or redo log) onto the durable image and truncate it.
     * Structure-level fix-up of log-free data is the caller's job.
     *
     * @return number of log records applied
     */
    std::size_t recover();
    /** @} */

    /** @name Timing */
    /** @{ */
    Cycles now() const { return clock; }
    void advance(Cycles c) { clock += c; }
    /** @} */

    const SchemeConfig &scheme() const { return schemeCfg; }
    LoggingStyle style() const { return loggingStyle; }
    UndoLogArea &logArea() { return undoLog; }
    LogBuffer &buffer() { return logBuf; }

    /** @name Checkpointing
     *
     * Serializes every architectural register of the engine: clock,
     * txn-control state, per-ID signatures, log buffer tiers, the
     * undo-log tail, and the redo write/evicted sets. The sequence
     * counter and crash countdown belong to the machine, which
     * serializes them itself.
     */
    /** @{ */
    void saveState(BlobWriter &w) const;
    void restoreState(BlobReader &r);
    /** @} */

    /** Eviction-client hooks (CacheHierarchy::setEvictionClient). */
    Cycles evictingPrivateLine(CacheLine &line, Cycles when);
    std::pair<Cycles, std::uint8_t>
    roundUpLogBits(CacheLine &line, std::uint8_t missing_words,
                   Cycles when);

    /** Drain-sink hook (LogBuffer::setSink). */
    Cycles persistRecord(const LogRecord &rec, Cycles when);

  private:
    /** The full store data path for one line-contained segment. */
    Cycles storeSegment(Addr addr, const void *src, std::size_t len,
                        bool lazy, bool log_free, Cycles when);

    /** Create undo records for the unlogged words a store touches. */
    Cycles createLogRecords(CacheLine &line, Addr addr, std::size_t len,
                            Cycles when);

    /** EDE-style immediate record for a contiguous word span. */
    Cycles appendSpanEager(Addr base, std::size_t words,
                           const std::uint8_t *data, Cycles when);

    /** Redo-mode record creation (new values, post-memcpy). */
    Cycles redoLogSpan(CacheLine &line, Addr addr, std::size_t len,
                       Cycles when);

    /** Store-triggered signature check (Section III-C3). */
    Cycles checkSignaturesOnWrite(Addr addr, Cycles when);

    /** Access-triggered line-owner check (Section III-C3). Inline
     *  fast reject: almost every access hits a line carrying no
     *  owning-transaction tag at all. */
    Cycles
    checkLineOwner(const CacheLine &line, Cycles when)
    {
        if (line.txnId == noTxnId)
            return 0;
        return checkLineOwnerSlow(line, when);
    }

    /** The tagged-line tail of checkLineOwner(). */
    Cycles checkLineOwnerSlow(const CacheLine &line, Cycles when);

    /**
     * Single-entry cache over Signature::probeFor(). The probe is a
     * pure function of the line base (all signatures share the hash
     * functions), and consecutive loads/stores overwhelmingly hit the
     * same line, so the four-way mixing is skipped on repeats. The
     * sentinel ~0 can never equal a 64-byte-aligned line base.
     */
    const Signature::Probe &
    probeForLine(Addr base)
    {
        if (base != probeBase) {
            probeCache = Signature::probeFor(base);
            probeBase = base;
        }
        return probeCache;
    }

    /** Persist all lazy lines of live txns up to @p id (oldest first),
     *  releasing their IDs. @p reason attributes the forced lines. */
    Cycles persistLazyThrough(std::uint8_t id, Cycles when,
                              StatsRegistry::Counter &reason);

    /** Persist the lazy lines of exactly one committed txn. */
    Cycles persistLazyOf(std::uint8_t id, Cycles when,
                         StatsRegistry::Counter &reason);

    /** Commit paths per logging style. */
    Cycles commitUndo(Cycles when);
    Cycles commitRedo(Cycles when);

    SchemeConfig schemeCfg;
    LoggingStyle loggingStyle;
    const AddressMap &addrMap;
    CacheHierarchy &hier;
    PmDevice &pm;

    LogBuffer logBuf;
    UndoLogArea undoLog;
    TxnIdAllocator ids;
    EngineCosts costs;

    /** Per-ID state (index = core-local transaction ID). */
    struct IdState
    {
        Signature signature;          //!< working set of the txn
        std::uint64_t txnSeq = 0;
        bool lazyOutstanding = false; //!< committed w/ volatile lazy data
    };
    std::vector<IdState> idState;

    /** probeForLine() memo (see the helper above). */
    Addr probeBase = ~Addr{0};
    Signature::Probe probeCache{};

    Cycles clock = 0;
    bool inTxn = false;
    std::uint8_t curId = noTxnId;
    std::uint64_t curSeq = 0;

    /** The machine's shared counters (see the constructor). */
    std::uint64_t &seqCounter;
    std::uint64_t &crashCountdown;

    /** A remoteObserve() probe is running: attribute forced lazy
     *  drains to the cross-core counters. */
    bool remoteObserving = false;

    /**
     * Redo mode: lines written by the in-flight txn (volatile). A hash
     * set: the hot path only inserts and membership-tests. Every walk
     * must go through sortedWriteSet() — the commit persists and the
     * abort invalidations charge cycles per line, so iteration order
     * is observable and must stay the ascending-address order the
     * previous std::set produced (determinism rule: sort before any
     * ordered output).
     */
    std::unordered_set<Addr> redoWriteSet;

    /** The write set as a sorted drain order (see redoWriteSet). */
    std::vector<Addr> sortedWriteSet() const;

    /**
     * Redo mode (no-steal): images of in-flight logged lines whose
     * writeback was suppressed on private eviction. The shared cache
     * holds them as clean lines and may silently drop them, so the
     * engine restores the image on the next access — the software
     * stand-in for a hardware redo design servicing such reads from
     * the log. Volatile; cleared on commit, abort and crash. A hash
     * map: accessed only by point lookup, never iterated, so no sort
     * discipline is needed.
     */
    std::unordered_map<Addr, std::array<std::uint8_t, cacheLineSize>>
        redoEvicted;

    /** Restore @p line's data from redoEvicted if it was stashed. */
    void restoreRedoEvicted(CacheLine &line);

    StatsRegistry::Counter statTxns;
    StatsRegistry::Counter statCommits;
    StatsRegistry::Counter statAborts;
    StatsRegistry::Counter statLoads;
    StatsRegistry::Counter statStores;
    StatsRegistry::Counter statStoreTs;
    StatsRegistry::Counter statLogRecords;
    StatsRegistry::Counter statLinesPersistedAtCommit;
    StatsRegistry::Counter statLazyLinesDeferred;
    StatsRegistry::Counter statLazyForcedPersists;
    StatsRegistry::Counter statSigHits;
    StatsRegistry::Counter statIdReclaims;
    StatsRegistry::Counter statRecoverReplays;

    /** @name Why lazy lines were forced out (Section III-C3 taxonomy).
     *  Counted per line, so the seven sum to lazyForcedPersists. */
    /** @{ */
    StatsRegistry::Counter statLazyDrainSigHit;    //!< working-set hit
    StatsRegistry::Counter statLazyDrainLineOwner; //!< foreign-ID access
    StatsRegistry::Counter statLazyDrainIdWrap;    //!< circular-ID reclaim
    StatsRegistry::Counter statLazyDrainEviction;  //!< private overflow
    StatsRegistry::Counter statLazyDrainExplicit;  //!< persistAllLazy()

    /** Cross-core flavours of sigHit/lineOwner: another core's access
     *  observed this core's signature or lazy txn ID (the paper's
     *  drain condition (b) seen through the coherence directory). */
    StatsRegistry::Counter statLazyDrainRemoteSigHit;
    StatsRegistry::Counter statLazyDrainRemoteIdObserved;
    /** @} */

    /** Bytes stored with an effective lazy / log-free operand. */
    StatsRegistry::Counter statLazyStoreBytes;
    StatsRegistry::Counter statLogFreeStoreBytes;

    /** Word-log events the log-free operand elided (pre-dedup). */
    StatsRegistry::Counter statLogFreeWordsElided;

    StatsRegistry::Histogram statCommitCycles;  //!< commit-path latency
    StatsRegistry::Histogram statStoreBytes;    //!< store/storeT sizes
};

} // namespace slpmt

#endif // SLPMT_TXN_ENGINE_HH
