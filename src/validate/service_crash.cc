#include "service/service_crash.hh"

#include <algorithm>
#include <deque>
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
                                             &ShardOp::isMutation))),
          opBytes(buildBytes(dispatch))
    {}

    std::uint64_t runMaster(MasterSink &sink) override;
    std::unique_ptr<SweepPoint> newPoint() const override;

    const ServiceCrashConfig &cfg;
    const ShardRouter router;
    const std::vector<ShardOp> dispatch;

    /** Every key a dispatch op writes, ascending: those a point's
     *  shadow lacks, only later requests write. */
    const std::vector<std::uint64_t> writtenKeys;

    /** Each dispatch mutation's value bytes, built once for every
     *  oracle of the sweep (empty for reads). */
    const std::vector<std::vector<std::uint8_t>> opBytes;

    /**
     * Global stores completed before dispatch op i, written by the
     * master; the extra final entry is the whole run's store count.
     */
    std::vector<std::uint64_t> opStart;

  private:
    static std::vector<std::vector<std::uint8_t>>
    buildBytes(const std::vector<ShardOp> &dispatch)
    {
        std::vector<std::vector<std::uint8_t>> bytes(dispatch.size());
        for (std::size_t i = 0; i < dispatch.size(); ++i) {
            const ShardOp &op = dispatch[i];
            if (op.isMutation())
                bytes[i] = svcValueFor(op.key, op.valueSalt, op.valueBytes);
        }
        return bytes;
    }

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
            commitToShadow(shadow,
                           std::span(dispatch).subspan(folded, i - folded),
                           std::span(opBytes).subspan(folded, i - folded));
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
 * Every shard walking the dispatch list from a base (or from setup), or
 * a point forked from them. The walk leaves the oracle's inputs at its
 * stop: the shadow of the completed request prefix and the write the
 * stop interrupted.
 */
class SvcPoint final : public SweepPoint
{
  public:
    explicit SvcPoint(const ServiceTarget &target)
        : target(target), router(target.router)
    {}

    void
    restore(const SweepBase *from) override
    {
        const auto *base = static_cast<const SvcBase *>(from);
        // A walk with no base is the from-scratch reference: it runs on
        // fresh machines.
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
        folded = at;
        interrupted.reset();
    }

    /** Each op's shard enters the walk with the op's stores; the last
     *  op's range is open, so a point past the run's last store arms it
     *  and never fires. */
    bool
    walk(SweepWalk &walk) override
    {
        const std::vector<ShardOp> &dispatch = target.dispatch;
        const std::vector<std::uint64_t> &op_start = target.opStart;
        bool crashed = false;
        for (; at < dispatch.size(); ++at) {
            const std::size_t s = router.shardOf(dispatch[at].key);
            walk.enter(set.machines[s]->countdown(), op_start[at],
                       at + 1 < dispatch.size() ? op_start[at + 1]
                                                : SweepWalk::unbounded);
            try {
                applyShardOp(set.machines[s]->context(0), *set.workloads[s],
                             dispatch[at]);
            } catch (const CrashInjected &) {
                crashed = true;
                break;
            }
        }
        settle();
        return crashed;
    }

    void
    forkFrom(SweepPoint &from) override
    {
        auto &walker = static_cast<SvcPoint &>(from);
        walker.settle();
        if (set.machines.empty())
            set = makeShards(target.cfg, false);
        for (std::size_t s = 0; s < target.cfg.numShards; ++s) {
            MachineCheckpoint::capture(*walker.set.machines[s])
                .restore(*set.machines[s]);
            set.workloads[s] = walker.set.workloads[s]->clone();
        }
        shadow = walker.shadow;
        at = folded = walker.at;
        interrupted = walker.interrupted;
    }

    /** A stop inside a request names that request's shard; the
     *  post-completion point names shard 0. */
    void
    progress(CrashPointOutcome &out) const override
    {
        out.committedOps = at;
        if (at < target.dispatch.size())
            out.crashShard = router.shardOf(target.dispatch[at].key);
    }

    /** Power failure is service-wide: every shard machine goes down,
     *  the one whose store fired included. */
    void
    forEachMachine(const std::function<void(McMachine &)> &fn) override
    {
        for (auto &machine : set.machines)
            fn(*machine);
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
        fresh.clear();
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

    /** The fresh keys read back, through one view per shard. */
    void
    checkContinuation(OracleLines &lines) override
    {
        std::deque<OracleView> views;
        for (const auto &machine : set.machines)
            views.emplace_back(*machine);
        std::vector<std::uint8_t> got;
        for (std::uint64_t key : fresh) {
            const std::size_t s = router.shardOf(key);
            got.clear();
            if (!set.workloads[s]->lookup(views[s], key, &got) ||
                got != ycsbValueFor(key, 64))
                lines.add("fresh key " + hexKey(key) +
                          " unreadable on shard " + std::to_string(s));
        }
    }

    /** The service report carries no machine counters. */
    void statNames(std::vector<std::string> &) const override {}
    void stats(std::vector<std::uint64_t> &) const override {}

  private:
    /** Fold the requests completed since the last fold into the shadow
     *  and name the write the stop interrupted (none past the end). */
    void
    settle()
    {
        const std::vector<ShardOp> &dispatch = target.dispatch;
        if (at > folded)
            commitToShadow(shadow,
                           std::span(dispatch).subspan(folded, at - folded),
                           std::span(target.opBytes)
                               .subspan(folded, at - folded));
        folded = at;
        interrupted.reset();
        if (at < dispatch.size() && dispatch[at].isMutation())
            interrupted = InterruptedWrite{dispatch[at].key,
                                           target.opBytes[at]};
    }

    const ServiceTarget &target;
    const ShardRouter &router;
    ShardSet set;  //!< machines built on first use
    std::size_t at = 0;      //!< the first dispatch op not yet completed
    std::size_t folded = 0;  //!< ops before it are in the shadow
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
    // The walk needs the master's op boundaries.
    ServiceTarget target(cfg);
    countStores(target);
    return runSweepPoint(target, crash_point);
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
