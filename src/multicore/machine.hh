/**
 * @file
 * The multi-core simulated machine.
 *
 * N logical cores, each owning a private L1/L2 hierarchy, a
 * transaction engine with its tiered log buffer and circular txn-ID
 * allocator, and a per-core statistics registry — all sharing one L3
 * cache, one PM device (and its WPQ), one DRAM device, one persistent
 * heap, and one store-site registry. The persistent log area is
 * carved into per-core slices so concurrent engines never interleave
 * records; the transaction sequence counter is shared so
 * (core, txn ID, seq) observations stay globally unambiguous.
 *
 * Coherence is directory-style over the existing per-line MESI
 * states: before a core touches a line, the machine probes every
 * other core. A probe first runs the owner's cross-transaction
 * observation rules (signature check on stores, txn-ID line-owner
 * check — the paper's lazy-drain condition (b) seen from another
 * core), then resolves the MESI side: a remote store invalidates the
 * peer's copy, a remote load downgrades dirty or metadata-bearing
 * copies, both by surrendering the private line into the shared L3
 * through the ordinary eviction path (so log-bit aggregation and the
 * eviction-client drains apply unchanged). A probe that meets the
 * peer's *in-flight* transaction is a conflict; the machine aborts
 * the suspended peer (requester wins — it is the one currently
 * scheduled) and notifies the conflict handler so the driver can
 * restart the peer's transaction group.
 *
 * Everything is deterministic: no wall clock, no real threads; the
 * interleaving comes from the seeded scheduler (scheduler.hh).
 *
 * This is the only machine: the single-core PmSystem facade
 * (core/pm_system.hh) is an McMachine with one core.
 */

#ifndef SLPMT_MULTICORE_MACHINE_HH
#define SLPMT_MULTICORE_MACHINE_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/annotation.hh"
#include "core/heap.hh"
#include "core/pm_context.hh"
#include "core/system_config.hh"
#include "mem/persist_tracker.hh"

namespace slpmt
{

class McMachine;

/**
 * One logical core: the PmContext a program running on this core
 * sees. Every data-path access consults the machine's coherence
 * directory line-by-line before reaching the private engine.
 */
class McCore final : public PmContext
{
  public:
    McCore(McMachine &machine, std::size_t id, const SystemConfig &cfg,
           Cache &shared_l3, PmDevice &pm, DramDevice &dram,
           Addr log_base, Bytes log_size, std::uint64_t &seq_counter,
           CrashCountdown &crash_countdown);

    std::size_t id() const { return coreId; }
    TxnEngine &engine() { return eng; }
    const TxnEngine &engine() const { return eng; }
    CacheHierarchy &hierarchy() { return hier; }
    const CacheHierarchy &hierarchy() const { return hier; }
    StatsRegistry &stats() { return coreStats; }
    const StatsRegistry &stats() const { return coreStats; }

    /** @name PmContext */
    /** @{ */
    void txBegin() override { eng.txBegin(); }
    void txCommit() override { eng.txCommit(); }
    void txAbort() override { eng.txAbort(); }
    bool inTransaction() const override { return eng.inTransaction(); }

    void readBytes(Addr addr, void *out, std::size_t len) override;
    void writeBytes(Addr addr, const void *src, std::size_t len) override;
    void writeBytesT(Addr addr, const void *src, std::size_t len,
                     StoreFlags flags) override;
    void writeBytesSite(Addr addr, const void *src, std::size_t len,
                        SiteId site) override;
    void peekBytes(Addr addr, void *out, std::size_t len) const override;

    PersistentHeap &heap() override;
    StoreSiteRegistry &sites() override;
    const AddressMap &map() const override;

    Cycles cycles() const override { return eng.now(); }
    void compute(Cycles c) override { eng.advance(c); }

    /** Quiesce is machine-wide: lazy data and dirty lines of *every*
     *  core drain (the shared L3 cannot be flushed per-core). */
    void quiesce() override;
    /** @} */

    /** Drains this engine forced by remote probes, for the machine's
     *  aggregated multicore.remote* counters. */
    std::uint64_t remoteSigHitDrains() const
    {
        return ctrRemoteSigHit.get();
    }
    std::uint64_t remoteIdObservedDrains() const
    {
        return ctrRemoteIdObserved.get();
    }

  private:
    /** Probe the directory for every line a [addr, addr+len) access
     *  touches; charges transfer/drain cycles to this core. */
    void probeRange(Addr addr, std::size_t len, bool is_write);

    McMachine &machine;
    std::size_t coreId;
    bool hasPeers;  //!< more than one core: accesses probe the directory
    StatsRegistry coreStats;
    CacheHierarchy hier;
    TxnEngine eng;

    /** Read handles onto this core's cross-core drain counters. */
    StatsRegistry::Counter ctrRemoteSigHit;
    StatsRegistry::Counter ctrRemoteIdObserved;
};

/** The machine: shared components plus the per-core column. */
class McMachine
{
  public:
    /** Called when a probe aborted core @p core's in-flight
     *  transaction (after the engine-level abort completed). */
    using ConflictHandler = std::function<void(std::size_t core)>;

    explicit McMachine(const SystemConfig &cfg);

    McMachine(const McMachine &) = delete;
    McMachine &operator=(const McMachine &) = delete;

    std::size_t numCores() const { return cores.size(); }
    McCore &core(std::size_t i) { return *cores[i]; }
    const McCore &core(std::size_t i) const { return *cores[i]; }
    PmContext &context(std::size_t i) { return *cores[i]; }

    StatsRegistry &sharedStats() { return shared; }
    const StatsRegistry &sharedStats() const { return shared; }
    PersistTracker &tracker() { return persistTracker; }
    PmDevice &pm() { return pmDev; }
    const PmDevice &pm() const { return pmDev; }
    DramDevice &dram() { return dramDev; }
    Cache &l3() { return sharedL3; }
    PersistentHeap &heap() { return pmHeap; }
    StoreSiteRegistry &sites() { return siteRegistry; }
    const AddressMap &map() const { return config.map; }
    const SystemConfig &cfg() const { return config; }

    /** @name Checkpoint access to the shared machine registers */
    /** @{ */
    std::uint64_t sharedSeqCounter() const { return seqCounter; }
    void setSharedSeqCounter(std::uint64_t v) { seqCounter = v; }
    std::uint64_t sharedCrashCountdown() const
    {
        return crashCountdown.stores;
    }
    /** @} */

    void setAnnotationPolicy(const AnnotationPolicy *p)
    {
        policy = p ? p : &manualPolicy;
    }
    const AnnotationPolicy &annotationPolicy() const { return *policy; }

    void setConflictHandler(ConflictHandler h)
    {
        conflictHandler = std::move(h);
    }

    /**
     * Directory probe ahead of core @p requester's access to the line
     * at @p line_addr: run observation rules on every other core,
     * abort conflicting in-flight peers, and invalidate (store) or
     * downgrade (load of a dirty/metadata line) remote copies.
     *
     * @return transfer cycles to charge to the requester
     */
    Cycles beforeLineAccess(std::size_t requester, Addr line_addr,
                            bool is_write);

    /**
     * Scheduler quantum expired on @p core: the OS is switching the
     * thread out, so the §V-C context-switch rule drains that core's
     * log buffer (and only that core's — the others keep batching).
     */
    void noteQuantumExpiry(std::size_t core);

    /** @name Machine-wide crash, recovery, quiesce */
    /** @{ */
    void crash();
    /** Crash in place at the @p n-th store from now (0 disarms). */
    void armCrashAfterStores(std::uint64_t n) { crashCountdown = {n}; }

    /** The shared countdown register, which a crash sweep's walk arms
     *  with its fork hook. */
    CrashCountdown &countdown() { return crashCountdown; }
    std::uint64_t storesExecuted() const;

    /** Hardware log replay on every core's log slice. */
    std::size_t recover();

    /** Persist all lazy data and flush every cache to a durable
     *  quiescent state. */
    void quiesce();
    /** @} */

    /** Walk every flattened value (StatsRegistry::forEachFlat): the
     *  shared counters under their own names, then each core's under a
     *  "coreN." prefix. */
    template <typename Fn>
    void
    forEachFlat(Fn &&fn) const
    {
        shared.forEachFlat(fn);
        for (std::size_t i = 0; i < cores.size(); ++i) {
            const std::string prefix = "core" + std::to_string(i) + ".";
            cores[i]->stats().forEachFlat([&](StatsRegistry::FlatStat f) {
                f.prefix = prefix;
                fn(f);
            });
        }
    }

    /** Merged statistics, as forEachFlat() names them. */
    StatsSnapshot snapshot() const { return flatSnapshot(*this); }

    /** Slowest core's clock — the wall time of a parallel phase. */
    Cycles makespan() const;

    /**
     * The 64 bytes of the newest copy of the line at @p line: a core's
     * L1, else that core's L2, else the shared L3, else the PM or DRAM
     * image; nullptr for an untouched page, which reads as zeros. No
     * fill, LRU update, clock advance, statistic, lazy drain or
     * coherence probe: the machine is only observed (OracleView).
     * Under the single-writer rule at most one core holds a dirty
     * copy; audit builds panic if two cores' private copies differ.
     * An unmapped line no cache holds panics as a timed access does.
     */
    const std::uint8_t *observeLine(Addr line) const;

    /** Remote-folder hook (CacheHierarchy::setRemoteFolder): fold
     *  other cores' private copies into a shared-L3 victim being
     *  evicted by @p evictor. */
    Cycles foldRemotePrivate(CacheHierarchy &evictor, CacheLine &victim,
                             Cycles now);

  private:
    /** Bytes reserved for the durable root directory. */
    static constexpr Bytes rootDirBytes = 4096;

    /** Cross-core line transfer charge: a shared-L3 round trip. */
    static constexpr Cycles remoteTransferCycles = 40;

    SystemConfig config;
    StatsRegistry shared;
    PersistTracker persistTracker;
    PmDevice pmDev;
    DramDevice dramDev;
    Cache sharedL3;
    PersistentHeap pmHeap;
    StoreSiteRegistry siteRegistry;
    ManualAnnotationPolicy manualPolicy;
    const AnnotationPolicy *policy = nullptr;

    std::uint64_t seqCounter = 0;      //!< shared txn sequence source
    CrashCountdown crashCountdown;     //!< shared fault injection

    std::vector<std::unique_ptr<McCore>> cores;
    ConflictHandler conflictHandler;

    StatsRegistry::Counter statProbes;
    StatsRegistry::Counter statRemoteHits;
    StatsRegistry::Counter statInvalidations;
    StatsRegistry::Counter statDowngrades;
    StatsRegistry::Counter statConflictAborts;
    StatsRegistry::Counter statCtxSwitchDrains;
    StatsRegistry::Counter statRemoteSigHitDrains;
    StatsRegistry::Counter statRemoteIdObservedDrains;
};

// The per-access data path is inline: every load and store of a
// workload passes through it, and a one-core machine (PmSystem) must
// reach its engine without a call per access.

inline void
McCore::probeRange(Addr addr, std::size_t len, bool is_write)
{
    if (len == 0 || !hasPeers)
        return;
    const Addr last = lineBase(addr + len - 1);
    for (Addr line = lineBase(addr); line <= last; line += cacheLineSize)
        eng.advance(machine.beforeLineAccess(coreId, line, is_write));
}

inline void
McCore::readBytes(Addr addr, void *out, std::size_t len)
{
    probeRange(addr, len, false);
    eng.load(addr, out, len);
}

inline void
McCore::writeBytes(Addr addr, const void *src, std::size_t len)
{
    probeRange(addr, len, true);
    eng.store(addr, src, len);
}

inline void
McCore::writeBytesT(Addr addr, const void *src, std::size_t len,
                    StoreFlags flags)
{
    probeRange(addr, len, true);
    eng.storeT(addr, src, len, flags);
}

inline void
McCore::writeBytesSite(Addr addr, const void *src, std::size_t len,
                       SiteId site)
{
    probeRange(addr, len, true);
    eng.storeT(addr, src, len,
               machine.annotationPolicy().flagsFor(
                   machine.sites().info(site)));
}

} // namespace slpmt

#endif // SLPMT_MULTICORE_MACHINE_HH
