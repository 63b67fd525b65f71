#include "service/service_crash.hh"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "checkpoint/checkpoint.hh"
#include "common/rng.hh"
#include "multicore/oracle_view.hh"
#include "workloads/factory.hh"
#include "workloads/ycsb.hh"

namespace slpmt
{
namespace
{

/** One entry of the arrival-ordered (shard, op) dispatch list. */
struct DispatchOp
{
    std::size_t shard = 0;
    ShardOp op;
};

/** Last-write-wins value recipe of one committed key. */
struct ShadowValue
{
    std::uint64_t valueSalt = 0;
    std::uint32_t valueBytes = 0;
};

/** The committed keys with their value recipes, in key order: a flat
 *  array, so a base holds it compactly and a fork copies it in one
 *  block. */
using SvcShadow = std::vector<std::pair<std::uint64_t, ShadowValue>>;

/** Where @p key sits in @p shadow: the first entry not below it. */
template <typename Shadow>
auto
shadowSlot(Shadow &shadow, std::uint64_t key)
{
    return std::lower_bound(
        shadow.begin(), shadow.end(), key,
        [](const auto &entry, std::uint64_t k) { return entry.first < k; });
}

bool
inShadow(const SvcShadow &shadow, std::uint64_t key)
{
    const auto it = shadowSlot(shadow, key);
    return it != shadow.end() && it->first == key;
}

/** Record a completed dispatch op in @p shadow. */
void
commitToShadow(SvcShadow &shadow, const ShardOp &op)
{
    if (!op.isMutation())
        return;
    const ShadowValue value{op.valueSalt, op.valueBytes};
    const auto it = shadowSlot(shadow, op.key);
    if (it != shadow.end() && it->first == op.key)
        it->second = value;
    else
        shadow.insert(it, {op.key, value});
}

/** One key's first mutating dispatch op. */
struct FirstWrite
{
    std::size_t index = 0;
    std::uint64_t key = 0;
};

/** Every mutated key's first mutating dispatch op, in dispatch order. */
std::vector<FirstWrite>
firstWritesOf(const std::vector<DispatchOp> &dispatch)
{
    std::vector<FirstWrite> first;
    std::unordered_set<std::uint64_t> seen;
    for (std::size_t i = 0; i < dispatch.size(); ++i) {
        const ShardOp &op = dispatch[i].op;
        if (op.isMutation() && seen.insert(op.key).second)
            first.push_back({i, op.key});
    }
    return first;
}

SystemConfig
shardSysConfig(const ServiceCrashConfig &cfg)
{
    SystemConfig sys;
    applySweepOptions(sys, cfg);
    sys.numCores = 1;
    return sys;
}

/** Lower the generated load (preload then requests, arrival order)
 *  to the flat dispatch list; per-shard subsequences equal the
 *  routeOps() streams by construction. */
std::vector<DispatchOp>
buildDispatch(const ServiceCrashConfig &cfg, const SvcLoad &load)
{
    const ShardRouter router(cfg.numShards, cfg.routerSalt);
    std::vector<DispatchOp> dispatch;
    auto lower = [&](const std::vector<SvcOp> &ops) {
        for (const SvcOp &op : ops) {
            if (op.kind == SvcOpKind::Scan) {
                for (std::uint32_t j = 0; j < op.scanLen; ++j) {
                    ShardOp sub;
                    sub.kind = SvcOpKind::Scan;
                    sub.key =
                        svcKeyForRecord(op.record + j, load.keySalt);
                    dispatch.push_back(
                        {router.shardOf(sub.key), sub});
                }
                continue;
            }
            ShardOp out;
            out.kind = op.kind;
            out.key = op.key;
            out.valueBytes = op.valueBytes;
            out.valueSalt = op.valueSalt;
            dispatch.push_back({router.shardOf(out.key), out});
        }
    };
    lower(load.preload);
    lower(load.ops);
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

    /** Apply dispatch ops [from, to). */
    void
    replay(const std::vector<DispatchOp> &dispatch, std::size_t from,
           std::size_t to)
    {
        for (std::size_t i = from; i < to; ++i) {
            const DispatchOp &d = dispatch[i];
            applyShardOp(machines[d.shard]->context(0),
                         *workloads[d.shard], d.op);
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

/** Oracle comparison of every recovered shard with the shadow.
 *  @p interrupted is the dispatch op the crash unwound (nullptr for
 *  the post-completion point); its key may atomically hold the old
 *  or the new value. */
void
checkState(ShardSet &set, const ShardRouter &router, const SvcShadow &shadow,
           const DispatchOp *interrupted,
           const std::vector<std::uint64_t> &absent_keys,
           OracleLines &lines)
{
    const bool interrupted_mutation =
        interrupted && interrupted->op.isMutation();
    const std::uint64_t ikey =
        interrupted_mutation ? interrupted->op.key : 0;

    std::vector<std::size_t> expected_counts(router.numShards(), 0);
    for (const auto &[key, value] : shadow)
        expected_counts[router.shardOf(key)]++;

    for (std::size_t s = 0; s < router.numShards(); ++s) {
        OracleView view(*set.machines[s]);
        Workload &wl = *set.workloads[s];
        const std::string where = "shard " + std::to_string(s) + " ";

        std::string why;
        if (!wl.checkConsistency(view, &why))
            lines.add(where + "structure invariant violated: " + why);

        // The interrupted request may atomically add one key.
        const std::size_t n = wl.count(view);
        const bool slack = interrupted_mutation &&
                           !inShadow(shadow, ikey) &&
                           router.shardOf(ikey) == s;
        if (n != expected_counts[s] &&
            !(slack && n == expected_counts[s] + 1))
            lines.add(where + "count mismatch: structure holds " +
                      std::to_string(n) + ", oracle expects " +
                      std::to_string(expected_counts[s]) +
                      (slack ? " (+1 allowed)" : ""));

        std::vector<std::uint8_t> got;
        for (const auto &[key, value] : shadow) {
            if (router.shardOf(key) != s)
                continue;
            got.clear();
            if (interrupted_mutation && key == ikey) {
                // Old-or-new, never torn.
                if (!wl.lookup(view, key, &got)) {
                    lines.add(where + "interrupted key " + hexKey(key) +
                              " lost its committed value");
                } else if (got != svcValueFor(key, value.valueSalt,
                                              value.valueBytes) &&
                           got != svcValueFor(
                                      key, interrupted->op.valueSalt,
                                      interrupted->op.valueBytes)) {
                    lines.add(where + "interrupted key " + hexKey(key) +
                              " holds neither old nor new value");
                }
                continue;
            }
            if (!wl.lookup(view, key, &got))
                lines.add(where + "committed key " + hexKey(key) +
                          " missing");
            else if (got != svcValueFor(key, value.valueSalt,
                                        value.valueBytes))
                lines.add(where + "value mismatch for committed key " +
                          hexKey(key));
        }

        // A fresh interrupted insert is allowed fully in or fully
        // out — but never torn.
        if (slack && wl.lookup(view, ikey, &got) &&
            got != svcValueFor(ikey, interrupted->op.valueSalt,
                               interrupted->op.valueBytes))
            lines.add(where + "interrupted fresh key " + hexKey(ikey) +
                      " visible with a torn value");
    }

    for (std::uint64_t key : absent_keys) {
        const std::size_t s = router.shardOf(key);
        OracleView view(*set.machines[s]);
        if (set.workloads[s]->lookup(view, key, nullptr))
            lines.add("future key " + hexKey(key) + " visible on shard " +
                      std::to_string(s));
    }
}

class ServiceTarget final : public SweepTarget
{
  public:
    explicit ServiceTarget(const ServiceCrashConfig &cfg)
        : SweepTarget(identity(cfg),
                      cfg.load.seed ^ 0x5e4'71ce'c4a5'4f1eULL),
          cfg(cfg), dispatch(buildDispatch(cfg, svcGenerate(cfg.load))),
          firstWrites(firstWritesOf(dispatch))
    {}

    std::uint64_t runMaster(MasterSink &sink) override;
    std::unique_ptr<SweepPoint> newPoint() const override;

    const ServiceCrashConfig &cfg;
    const std::vector<DispatchOp> dispatch;

    /** Every mutated key's first write, by dispatch index: a point's
     *  absent keys are the ones first written at or after its
     *  completed prefix. */
    const std::vector<FirstWrite> firstWrites;

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
    SvcShadow shadow;
    opStart.assign(dispatch.size() + 1, 0);
    for (std::size_t i = 0; i < dispatch.size(); ++i) {
        const std::uint64_t stores = set.globalStores();
        opStart[i] = stores;
        sink.boundary(stores, sink.wantsBase(stores)
                                  ? std::make_unique<SvcBase>(set, shadow, i)
                                  : nullptr);
        set.replay(dispatch, i, i + 1);
        commitToShadow(shadow, dispatch[i].op);
    }
    opStart.back() = set.globalStores();
    return opStart.back();
}

/**
 * Every shard replaying the dispatch tail from a base (or from setup).
 * The tail leaves the oracle's inputs: the completed request prefix,
 * the request the crash unwound and the keys only later requests
 * write.
 */
class SvcPoint final : public SweepPoint
{
  public:
    explicit SvcPoint(const ServiceTarget &target)
        : target(target), router(target.cfg.numShards, target.cfg.routerSalt)
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
        interrupted = nullptr;
        absent.clear();
        fresh.clear();
    }

    bool
    tail(CrashPointOutcome &out) override
    {
        const std::vector<DispatchOp> &dispatch = target.dispatch;
        const std::vector<std::uint64_t> &op_start = target.opStart;
        std::size_t completed = dispatch.size();
        if (crashPoint == 0) {
            // Post-completion point: run out, then power off with
            // lazy data still volatile.
            set.replay(dispatch, at, dispatch.size());
        } else {
            // The dispatch op executing global store crashPoint: the
            // last one starting below it (zero-store requests can
            // never hold a point). A point past the run's last store
            // arms the last op, whose crash then does not fire.
            completed = at;
            while (completed + 2 < op_start.size() &&
                   op_start[completed + 1] < crashPoint)
                ++completed;
            set.replay(dispatch, at, completed);

            interrupted = &dispatch.at(completed);
            out.crashShard = interrupted->shard;
            McMachine &machine = *set.machines[interrupted->shard];
            machine.armCrashAfterStores(crashPoint - op_start[completed]);
            try {
                applyShardOp(machine.context(0),
                             *set.workloads[interrupted->shard],
                             interrupted->op);
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

        for (std::size_t i = at; i < completed; ++i)
            commitToShadow(shadow, dispatch[i].op);

        // Keys no completed (or interrupted) request ever wrote must
        // not surface: those first written at or after the completed
        // prefix, but for the interrupted request's own key. Ascending,
        // like the violation lines.
        const auto &first = target.firstWrites;
        for (auto it = std::partition_point(
                 first.begin(), first.end(),
                 [&](const FirstWrite &w) { return w.index < completed; });
             it != first.end(); ++it) {
            if (!(interrupted && interrupted->op.isMutation() &&
                  interrupted->op.key == it->key))
                absent.push_back(it->key);
        }
        std::sort(absent.begin(), absent.end());
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
        checkState(set, router, shadow, interrupted, absent, lines);
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
    const ShardRouter router;
    ShardSet set;  //!< machines built by the first fork
    std::uint64_t crashPoint = 0;
    std::size_t at = 0;  //!< first dispatch op the tail applies
    const DispatchOp *interrupted = nullptr;
    SvcShadow shadow;
    std::vector<std::uint64_t> absent;
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
