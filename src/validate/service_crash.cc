#include "service/service_crash.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <ranges>
#include <span>

#include "checkpoint/checkpoint.hh"
#include "common/rng.hh"
#include "workloads/factory.hh"
#include "workloads/ycsb.hh"

namespace slpmt
{
namespace
{

SystemConfig
shardSysConfig(const ServiceCrashConfig &cfg)
{
    SystemConfig sys;
    applySweepOptions(sys, cfg);
    sys.numCores = 1;
    return sys;
}

/** The generated load lowered to one arrival-ordered dispatch list:
 *  the preload, then the requests. */
std::vector<ShardOp>
buildDispatch(const SvcLoad &load)
{
    std::vector<ShardOp> dispatch = lowerOps(load.preload, load.keySalt);
    for (const ShardOp &op : lowerOps(load.ops, load.keySalt))
        dispatch.push_back(op);
    return dispatch;
}

/** The service's shard machines plus the global store ordinal. */
struct ShardSet
{
    std::vector<std::unique_ptr<McMachine>> machines;
    std::vector<std::unique_ptr<Workload>> workloads;
    std::uint64_t baseStores = 0;

    std::uint64_t
    rawStores() const
    {
        std::uint64_t total = 0;
        for (const auto &m : machines)
            total += m->storesExecuted();
        return total;
    }

    std::uint64_t globalStores() const { return rawStores() - baseStores; }

    /** Apply dispatch ops [from, to), each on its key's shard. */
    void
    replay(const ShardRouter &router, const std::vector<ShardOp> &dispatch,
           std::size_t from, std::size_t to)
    {
        for (std::size_t i = from; i < to; ++i) {
            const std::size_t s = router.shardOf(dispatch[i].key);
            applyShardOp(machines[s]->context(0), *workloads[s], dispatch[i]);
        }
    }
};

/** Fresh machines; setup() runs when @p with_setup (restores skip it:
 *  the checkpoint rewrites the whole machine and the cloned workload
 *  carries the roots, so the workload slots stay empty). */
ShardSet
makeShards(const ServiceCrashConfig &cfg, bool with_setup)
{
    ShardSet set;
    const SystemConfig sys = shardSysConfig(cfg);
    set.workloads.resize(cfg.numShards);
    for (std::size_t s = 0; s < cfg.numShards; ++s) {
        set.machines.push_back(std::make_unique<McMachine>(sys));
        if (with_setup) {
            set.workloads[s] = makeWorkload(cfg.workload);
            set.workloads[s]->setup(set.machines[s]->context(0));
        }
    }
    set.baseStores = set.rawStores();
    return set;
}

/** A base at a request boundary: every shard machine and workload
 *  captured before dispatch op opIndex, and the shadow of the ops
 *  before it. */
struct SvcBase final : SweepBase
{
    SvcBase(const ShardSet &set, const SvcShadow &shadow,
            std::size_t op_index)
        : shadow(shadow), opIndex(op_index)
    {
        for (std::size_t s = 0; s < set.machines.size(); ++s) {
            machines.push_back(MachineCheckpoint::capture(*set.machines[s]));
            workloads.push_back(set.workloads[s]->clone());
        }
    }

    std::vector<MachineCheckpoint> machines;
    std::vector<std::unique_ptr<const Workload>> workloads;
    const SvcShadow shadow;
    const std::size_t opIndex;
};

class ServiceTarget final : public SweepTarget
{
  public:
    explicit ServiceTarget(const ServiceCrashConfig &cfg)
        : SweepTarget(identity(cfg),
                      cfg.load.seed ^ 0x5e4'71ce'c4a5'4f1eULL),
          cfg(cfg), router(cfg.numShards, cfg.routerSalt),
          dispatch(buildDispatch(svcGenerate(cfg.load))),
          writtenKeys(runKeySet(dispatch | std::views::filter(
                                             &ShardOp::isMutation)))
    {}

    std::uint64_t runMaster(MasterSink &sink) override;
    std::unique_ptr<SweepPoint> newPoint() const override;

    const ServiceCrashConfig &cfg;
    const ShardRouter router;
    const std::vector<ShardOp> dispatch;

    /** Every key a dispatch op writes, ascending: those a point's
     *  shadow lacks, only later requests write. */
    const std::vector<std::uint64_t> writtenKeys;

    /**
     * Global stores completed before dispatch op i, written by the
     * master; the extra final entry is the whole run's store count.
     */
    std::vector<std::uint64_t> opStart;

  private:
    static SweepIdentity
    identity(const ServiceCrashConfig &cfg)
    {
        SweepIdentity id = sweepIdentity("service-crash-sweep", cfg,
                                         cfg.workload, cfg.load.seed);
        id.shapeKey = "shards";
        id.shape = cfg.numShards;
        id.opsKey = "dispatch_ops";
        return id;
    }
};

/** The boundary before every dispatch op is a fork base candidate. */
std::uint64_t
ServiceTarget::runMaster(MasterSink &sink)
{
    ShardSet set = makeShards(cfg, true);
    SvcShadow shadow;  // the ops before `folded`
    std::size_t folded = 0;
    opStart.assign(dispatch.size() + 1, 0);
    for (std::size_t i = 0; i < dispatch.size(); ++i) {
        const std::uint64_t stores = set.globalStores();
        opStart[i] = stores;
        std::unique_ptr<SvcBase> base;
        if (sink.wantsBase(stores)) {
            commitToShadow(shadow, std::span(dispatch).subspan(
                                       folded, i - folded));
            folded = i;
            base = std::make_unique<SvcBase>(set, shadow, i);
        }
        sink.boundary(stores, std::move(base));
        set.replay(router, dispatch, i, i + 1);
    }
    opStart.back() = set.globalStores();
    return opStart.back();
}

/**
 * Every shard replaying the dispatch tail from a base (or from setup).
 * The tail leaves the oracle's inputs: the shadow of the completed
 * request prefix and the write the crash unwound.
 */
class SvcPoint final : public SweepPoint
{
  public:
    explicit SvcPoint(const ServiceTarget &target)
        : target(target), router(target.router)
    {}

    void
    fork(const SweepBase *from, std::uint64_t crash_point) override
    {
        const auto *base = static_cast<const SvcBase *>(from);
        crashPoint = crash_point;
        // A point with no base is the from-scratch reference: it runs
        // on fresh machines.
        if (!base || set.machines.empty())
            set = makeShards(target.cfg, base == nullptr);
        if (base) {
            for (std::size_t s = 0; s < target.cfg.numShards; ++s) {
                set.workloads[s] = base->workloads[s]->clone();
                base->machines[s].restore(*set.machines[s]);
            }
            shadow = base->shadow;
            at = base->opIndex;
        } else {
            shadow.clear();
            at = 0;
        }
        interrupted.reset();
        fresh.clear();
    }

    bool
    tail(CrashPointOutcome &out) override
    {
        const std::vector<ShardOp> &dispatch = target.dispatch;
        const std::vector<std::uint64_t> &op_start = target.opStart;
        std::size_t completed = dispatch.size();
        if (crashPoint == 0) {
            // Post-completion point: run out, then power off with
            // lazy data still volatile.
            set.replay(router, dispatch, at, dispatch.size());
        } else {
            // The dispatch op executing global store crashPoint: the
            // last one starting below it (zero-store requests can
            // never hold a point). A point past the run's last store
            // arms the last op, whose crash then does not fire.
            completed = at;
            while (completed + 2 < op_start.size() &&
                   op_start[completed + 1] < crashPoint)
                ++completed;
            set.replay(router, dispatch, at, completed);

            const ShardOp &op = dispatch.at(completed);
            if (op.isMutation())
                interrupted = InterruptedWrite{
                    op.key, svcValueFor(op.key, op.valueSalt, op.valueBytes)};
            out.crashShard = router.shardOf(op.key);
            McMachine &machine = *set.machines[out.crashShard];
            machine.armCrashAfterStores(crashPoint - op_start[completed]);
            try {
                applyShardOp(machine.context(0),
                             *set.workloads[out.crashShard], op);
            } catch (const CrashInjected &) {
                out.fired = true;
            }
            machine.armCrashAfterStores(0);
        }
        out.committedOps = completed;

        // Power failure is service-wide: every shard machine goes down,
        // the one that fired included (its engine crashed only itself).
        for (auto &machine : set.machines)
            machine->crash();

        commitToShadow(shadow,
                       std::span(dispatch).subspan(at, completed - at));
        return crashPoint == 0 || out.fired;
    }

    /** Hardware log replay, then the workload's user-level recovery,
     *  on every shard. */
    std::size_t
    recover() override
    {
        std::size_t replayed = 0;
        for (std::size_t s = 0; s < target.cfg.numShards; ++s) {
            replayed += set.machines[s]->recover();
            set.workloads[s]->recover(set.machines[s]->context(0));
        }
        return replayed;
    }

    void
    check(OracleLines &lines) override
    {
        // Keys only later requests write must not surface.
        verifyStructure(
            {set.machines, set.workloads,
             [this](std::uint64_t key) { return router.shardOf(key); }},
            shadow, lines,
            {target.writtenKeys, "future",
             interrupted ? &*interrupted : nullptr});
    }

    /** Every shard must keep serving: fresh inserts routed like any
     *  request (generator keys have bit 62 set; these fresh keys set
     *  bit 61 instead, so they can never collide). */
    void
    continueRun(std::size_t ops) override
    {
        Rng rng(mix64(target.cfg.load.seed) ^ (crashPoint + 1));
        for (std::size_t i = 0; i < ops; ++i) {
            const std::uint64_t key =
                (std::uint64_t{1} << 61) |
                (rng.next() & ((std::uint64_t{1} << 61) - 1));
            const std::size_t s = router.shardOf(key);
            set.workloads[s]->insert(set.machines[s]->context(0), key,
                                     ycsbValueFor(key, 64));
            fresh.push_back(key);
        }
    }

    /** The fresh keys read back. */
    void
    checkContinuation(OracleLines &lines) override
    {
        std::vector<std::uint8_t> got;
        for (std::uint64_t key : fresh) {
            const std::size_t s = router.shardOf(key);
            OracleView view(*set.machines[s]);
            got.clear();
            if (!set.workloads[s]->lookup(view, key, &got) ||
                got != ycsbValueFor(key, 64))
                lines.add("fresh key " + hexKey(key) +
                          " unreadable on shard " + std::to_string(s));
        }
    }

    /** The service report carries no machine counters. */
    void statNames(std::vector<std::string> &) const override {}
    void stats(std::vector<std::uint64_t> &) const override {}

  private:
    const ServiceTarget &target;
    const ShardRouter &router;
    ShardSet set;  //!< machines built by the first fork
    std::uint64_t crashPoint = 0;
    std::size_t at = 0;  //!< first dispatch op the tail applies
    std::optional<InterruptedWrite> interrupted;  //!< a mutation only
    SvcShadow shadow;
    std::vector<std::uint64_t> fresh;  //!< continueRun()'s keys
};

std::unique_ptr<SweepPoint>
ServiceTarget::newPoint() const
{
    return std::make_unique<SvcPoint>(*this);
}

} // namespace

ServiceCrashPointOutcome
runServiceCrashPoint(const ServiceCrashConfig &cfg,
                     std::uint64_t crash_point)
{
    // The from-scratch point needs the master's op boundaries.
    ServiceTarget target(cfg);
    countStores(target);
    return target.runPoint(*target.newPoint(), nullptr, crash_point);
}

ServiceCrashSweepReport
runServiceCrashSweep(const ServiceCrashConfig &cfg)
{
    ServiceTarget target(cfg);
    ServiceCrashSweepReport report = runSweep(target, cfg);
    report.traceOps = target.dispatch.size();
    return report;
}

} // namespace slpmt
