#include "multicore/mc_crash.hh"

#include <memory>
#include <ranges>

#include "checkpoint/checkpoint.hh"

namespace slpmt
{
namespace
{

/** The run configuration with the shared options stamped in. */
McYcsbConfig
runConfigFor(const McCrashSweepConfig &cfg)
{
    McYcsbConfig rc = cfg.run;
    applySweepOptions(rc.sys, cfg);
    rc.sys.numCores = rc.numCores;
    return rc;
}

struct McBase;

/**
 * One interleaved run: a machine fresh from setup (or restored from
 * @p base) and one driver per core, all appending to one commit log.
 */
struct Interleaving
{
    Interleaving(const McYcsbConfig &rc,
                 const std::vector<std::vector<McOpRecord>> &streams,
                 const McBase *base);

    McMachine machine;
    std::unique_ptr<Workload> wl;
    std::vector<McOpRecord> commitLog;
    std::vector<std::unique_ptr<McYcsbDriver>> drivers;
    std::vector<McCoreDriver *> ptrs;
};

/** A base at a quantum boundary: the machine plus everything
 *  host-side the boundary needs — workload roots, the commit log so
 *  far, per-driver cursors and the scheduler's register file. */
struct McBase final : SweepBase
{
    McBase(Interleaving &run, const McScheduleState &sched)
        : machine(MachineCheckpoint::capture(run.machine)),
          workload(run.wl->clone()), commitLog(run.commitLog),
          sched(sched)
    {
        for (const auto &d : run.drivers)
            cursors.push_back(d->position());
    }

    const MachineCheckpoint machine;
    const std::unique_ptr<const Workload> workload;
    const std::vector<McOpRecord> commitLog;
    std::vector<std::size_t> cursors;
    const McScheduleState sched;
};

Interleaving::Interleaving(
    const McYcsbConfig &rc,
    const std::vector<std::vector<McOpRecord>> &streams,
    const McBase *base)
    : machine(rc.sys)
{
    if (rc.policy)
        machine.setAnnotationPolicy(rc.policy);
    if (base) {
        // No setup(): the restore rewrites the whole machine (site
        // registry included) and the cloned workload carries the
        // roots.
        wl = base->workload->clone();
        base->machine.restore(machine);
        commitLog = base->commitLog;
    } else {
        wl = makeWorkload(rc.workload);
        wl->setup(machine.context(0));
    }
    for (std::size_t i = 0; i < rc.numCores; ++i) {
        drivers.push_back(std::make_unique<McYcsbDriver>(
            machine.context(i), *wl, streams[i], commitLog));
        if (base)
            drivers.back()->resumeAt(base->cursors[i]);
        ptrs.push_back(drivers.back().get());
    }
}

class McTarget final : public SweepTarget
{
  public:
    explicit McTarget(const McCrashSweepConfig &cfg)
        : SweepTarget(identity(cfg),
                      cfg.run.seed ^ 0xc5a5c5a5c5a5c5a5ULL),
          rc(runConfigFor(cfg)), streams(mcYcsbStreams(rc)),
          keys(runKeySet(streams | std::views::join))
    {}

    std::uint64_t runMaster(MasterSink &sink) override;
    std::unique_ptr<SweepPoint>
    fork(const SweepBase *base, std::uint64_t crash_point) const override;

    const McYcsbConfig rc;
    const std::vector<std::vector<McOpRecord>> streams;

    /** Every key the streams touch, ascending. */
    const std::vector<std::uint64_t> keys;

  private:
    static SweepIdentity
    identity(const McCrashSweepConfig &cfg)
    {
        SweepIdentity id = sweepIdentity("mc-crash-sweep", cfg,
                                         cfg.run.workload, cfg.run.seed);
        id.shapeKey = "cores";
        id.shape = cfg.run.numCores;
        return id;
    }
};

/** Every quantum boundary (the entry one included) is a fork base
 *  candidate. */
std::uint64_t
McTarget::runMaster(MasterSink &sink)
{
    Interleaving run(rc, streams, nullptr);
    const std::uint64_t start = run.machine.storesExecuted();
    runInterleaved(run.machine, run.ptrs, rc.sched,
                   [&](const McScheduleState &st) {
                       const std::uint64_t stores =
                           run.machine.storesExecuted() - start;
                       sink.boundary(stores,
                                     sink.wantsBase(stores)
                                         ? std::make_unique<McBase>(run, st)
                                         : nullptr);
                   });
    return run.machine.storesExecuted() - start;
}

/** One interleaving resumed from a base (or from setup); the shadow is
 *  the commit log the tail leaves behind. */
class McPoint final : public SweepPoint
{
  public:
    McPoint(const McTarget &target, const McBase *base,
            std::uint64_t crash_point)
        : target(target), base(base), crashPoint(crash_point),
          run(target.rc, target.streams, base)
    {}

    bool
    tail(CrashPointOutcome &out) override
    {
        McMachine &machine = run.machine;
        if (crashPoint > 0)
            machine.armCrashAfterStores(crashPoint -
                                        (base ? base->storesAt : 0));
        const McScheduleResult res =
            base ? runInterleavedFrom(machine, run.ptrs, target.rc.sched,
                                      base->sched)
                 : runInterleaved(machine, run.ptrs, target.rc.sched);
        machine.armCrashAfterStores(0);
        out.fired = res.crashed;
        out.committedOps = run.commitLog.size();

        // Power off after the run when the armed point never fired
        // (or for the explicit post-completion sentinel).
        if (!res.crashed)
            machine.crash();
        for (const auto &op : run.commitLog)
            shadow[op.key] = op.value;
        return true;
    }

    /** Every core's log slice, then the workload's user-level recovery
     *  (on core 0: recovery is single-threaded kernel/runtime work). */
    std::size_t
    recover() override
    {
        const std::size_t replayed = run.machine.recover();
        run.wl->recover(run.machine.context(0));
        return replayed;
    }

    void
    check(OracleLines &lines) override
    {
        checkShadow(run.machine.context(0), *run.wl, shadow, target.keys,
                    "uncommitted", lines);
    }

    /** The fresh inserts spread across the cores. */
    void
    continueRun(std::size_t ops, OracleLines &lines) override
    {
        insertContinuation(*run.wl, shadow, target.rc.seed, crashPoint, ops,
                           target.rc.valueBytes,
                           [&](std::size_t i) -> PmContext & {
                               return run.machine.context(
                                   i % target.rc.numCores);
                           });
        check(lines);
    }

    void
    statNames(std::vector<std::string> &names) const override
    {
        flatNames(run.machine, names);
    }

    void
    stats(std::vector<std::uint64_t> &values) const override
    {
        flatValues(run.machine, values);
    }

  private:
    const McTarget &target;
    const McBase *const base;
    const std::uint64_t crashPoint;
    Interleaving run;
    Shadow shadow;
};

std::unique_ptr<SweepPoint>
McTarget::fork(const SweepBase *base, std::uint64_t crash_point) const
{
    return std::make_unique<McPoint>(
        *this, static_cast<const McBase *>(base), crash_point);
}

} // namespace

std::uint64_t
countMcTraceStores(const McCrashSweepConfig &cfg)
{
    McTarget target(cfg);
    return countStores(target);
}

McCrashPointOutcome
runMcCrashPoint(const McCrashSweepConfig &cfg, std::uint64_t crash_point)
{
    return McTarget(cfg).runPoint(nullptr, crash_point);
}

McCrashSweepReport
runMcCrashSweep(const McCrashSweepConfig &cfg)
{
    McTarget target(cfg);
    return runSweep(target, cfg);
}

} // namespace slpmt
