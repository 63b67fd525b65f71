#include "multicore/machine.hh"

namespace slpmt
{

// ---------------------------------------------------------------------
// McCore
// ---------------------------------------------------------------------

McCore::McCore(McMachine &machine, std::size_t id,
               const SystemConfig &cfg, Cache &shared_l3, PmDevice &pm,
               DramDevice &dram, Addr log_base, Bytes log_size,
               std::uint64_t &seq_counter, std::uint64_t &crash_countdown)
    : machine(machine),
      coreId(id),
      hasPeers(cfg.numCores > 1),
      hier(cfg.hierarchy, cfg.map, pm, dram, coreStats, shared_l3),
      eng(cfg.scheme, cfg.style, cfg.map, hier, pm, coreStats, log_base,
          log_size, seq_counter, crash_countdown),
      ctrRemoteSigHit(coreStats.counter("txn.lazyDrain.remoteSigHit")),
      ctrRemoteIdObserved(
          coreStats.counter("txn.lazyDrain.remoteIdObserved"))
{
    hier.setRemoteFolder(&machine);
}

void
McCore::peekBytes(Addr addr, void *out, std::size_t len) const
{
    machine.pm().peek(addr, out, len);
}

PersistentHeap &
McCore::heap()
{
    return machine.heap();
}

StoreSiteRegistry &
McCore::sites()
{
    return machine.sites();
}

const AddressMap &
McCore::map() const
{
    return machine.map();
}

void
McCore::quiesce()
{
    machine.quiesce();
}

// ---------------------------------------------------------------------
// McMachine
// ---------------------------------------------------------------------

McMachine::McMachine(const SystemConfig &cfg)
    : config(cfg),
      pmDev(config.pm, shared, persistTracker),
      dramDev(config.dram, shared),
      sharedL3(config.hierarchy.l3),
      pmHeap(config.map.heapBase() + rootDirBytes,
             config.map.heapSize() - rootDirBytes, shared),
      statProbes(shared.counter("multicore.probes")),
      statRemoteHits(shared.counter("multicore.remoteHits")),
      statInvalidations(shared.counter("multicore.invalidations")),
      statDowngrades(shared.counter("multicore.downgrades")),
      statConflictAborts(shared.counter("multicore.conflictAborts")),
      statCtxSwitchDrains(shared.counter("multicore.ctxSwitchDrains")),
      statRemoteSigHitDrains(
          shared.counter("multicore.remoteDrains.sigHit")),
      statRemoteIdObservedDrains(
          shared.counter("multicore.remoteDrains.idObserved"))
{
    panicIfNot(config.numCores >= 1 && config.numCores <= 16,
               "McMachine supports 1 to 16 cores");
    policy = &manualPolicy;

    // Carve the persistent log area into per-core, line-aligned
    // slices so concurrent engines never interleave records.
    const Bytes slice =
        (config.map.logAreaSize() / config.numCores) &
        ~static_cast<Bytes>(cacheLineSize - 1);
    panicIfNot(slice >= 64 * 1024,
               "log area too small for per-core slices");
    for (std::size_t i = 0; i < config.numCores; ++i)
        cores.push_back(std::make_unique<McCore>(
            *this, i, config, sharedL3, pmDev, dramDev,
            config.map.logAreaBase() + i * slice, slice, seqCounter,
            crashCountdown));
}

Cycles
McMachine::beforeLineAccess(std::size_t requester, Addr line_addr,
                            bool is_write)
{
    Cycles xfer = 0;
    for (std::size_t j = 0; j < cores.size(); ++j) {
        if (j == requester)
            continue;
        McCore &peer = *cores[j];
        TxnEngine &eng = peer.engine();
        statProbes++;

        // Cross-transaction observation rules first (Section III-C3
        // through the directory): the peer drains lazy transactions
        // whose signature or line txn-ID the probe observed.
        const std::uint64_t sig_before = peer.remoteSigHitDrains();
        const std::uint64_t own_before = peer.remoteIdObservedDrains();
        const bool conflict = eng.remoteObserve(line_addr, is_write);
        statRemoteSigHitDrains +=
            peer.remoteSigHitDrains() - sig_before;
        statRemoteIdObservedDrains +=
            peer.remoteIdObservedDrains() - own_before;

        // A probe that met the peer's in-flight transaction is a
        // conflict; the requester (currently scheduled) wins and the
        // suspended peer aborts, replaying its undo log.
        if (conflict) {
            statConflictAborts++;
            if (eng.inTransaction())
                eng.txAbort();
            if (conflictHandler)
                conflictHandler(j);
        }

        // MESI side: a remote store invalidates the peer's copy; a
        // remote load takes dirty or metadata-bearing copies away
        // (modelled as a surrender into the shared L3 — the ordinary
        // eviction path, so log-bit aggregation and eviction-client
        // drains apply unchanged). Clean, metadata-free copies stay
        // put on loads.
        if (CacheLine *line = peer.hierarchy().findPrivate(line_addr)) {
            statRemoteHits++;
            xfer += remoteTransferCycles;
            if (is_write || line->dirty || line->hasTxnMeta()) {
                if (is_write)
                    statInvalidations++;
                else
                    statDowngrades++;
                eng.advance(peer.hierarchy().surrenderPrivate(
                    line_addr, eng.now()));
            }
        }
    }
    return xfer;
}

void
McMachine::noteQuantumExpiry(std::size_t core, bool drain)
{
    if (!drain)
        return;
    statCtxSwitchDrains++;
    cores[core]->engine().contextSwitch();
}

void
McMachine::crash()
{
    // Engine crash is idempotent (the injected-crash path already
    // crashed the firing core); each call clears that core's caches,
    // buffers and IDs. The shared L3 and PM WPQ are cleared
    // repeatedly, which is harmless.
    for (auto &core : cores)
        core->engine().crash();
    dramDev.crash();
}

std::uint64_t
McMachine::storesExecuted() const
{
    std::uint64_t total = 0;
    for (const auto &core : cores)
        total += core->engine().storesExecuted();
    return total;
}

std::size_t
McMachine::recover()
{
    std::size_t applied = 0;
    for (auto &core : cores)
        applied += core->engine().recover();
    return applied;
}

void
McMachine::quiesce()
{
    // Lazy data and private lines drain per core first; the shared L3
    // flushes once afterwards (its remote folds are then no-ops).
    for (auto &core : cores)
        core->engine().persistAllLazy();
    for (auto &core : cores) {
        TxnEngine &eng = core->engine();
        eng.advance(core->hierarchy().flushPrivate(eng.now()));
    }
    TxnEngine &eng0 = cores.front()->engine();
    eng0.advance(cores.front()->hierarchy().flushShared(eng0.now()));
}

Cycles
McMachine::makespan() const
{
    Cycles max = 0;
    for (const auto &core : cores)
        max = std::max(max, core->engine().now());
    return max;
}

Cycles
McMachine::foldRemotePrivate(CacheHierarchy &evictor, CacheLine &victim,
                             Cycles now)
{
    Cycles latency = 0;
    for (auto &core : cores) {
        CacheHierarchy &hier = core->hierarchy();
        if (&hier != &evictor)
            latency += hier.foldPrivateInto(victim, now);
    }
    return latency;
}

} // namespace slpmt
