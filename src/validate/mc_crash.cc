#include "multicore/mc_crash.hh"

#include <memory>
#include <optional>
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
 * One interleaved run: a machine and one driver per core, all
 * appending to one commit log.
 */
struct Interleaving
{
    explicit Interleaving(const McYcsbConfig &rc) : machine(rc.sys)
    {
        if (rc.policy)
            machine.setAnnotationPolicy(rc.policy);
    }

    /** Put the run at @p base, restored into this machine, or (with
     *  nullptr) at its start: setup on this machine, which must then
     *  be fresh. */
    void start(const McYcsbConfig &rc,
               const std::vector<std::vector<McOpRecord>> &streams,
               const McBase *base);

    McMachine machine;
    std::unique_ptr<Workload> wl;
    std::vector<McOpRecord> commitLog;
    std::vector<McYcsbDriver> drivers;  //!< reserved: ptrs stay valid
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
            cursors.push_back(d.position());
    }

    const MachineCheckpoint machine;
    const std::unique_ptr<const Workload> workload;
    const std::vector<McOpRecord> commitLog;
    std::vector<std::size_t> cursors;
    const McScheduleState sched;
};

void
Interleaving::start(const McYcsbConfig &rc,
                    const std::vector<std::vector<McOpRecord>> &streams,
                    const McBase *base)
{
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
        commitLog.clear();
    }
    drivers.clear();
    drivers.reserve(rc.numCores);
    ptrs.clear();
    for (std::size_t i = 0; i < rc.numCores; ++i) {
        drivers.emplace_back(machine.context(i), *wl, streams[i],
                             commitLog);
        if (base)
            drivers.back().resumeAt(base->cursors[i]);
        ptrs.push_back(&drivers.back());
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
    std::unique_ptr<SweepPoint> newPoint() const override;

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
    Interleaving run(rc);
    run.start(rc, streams, nullptr);
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

/** One interleaving walked from a base (or from setup), or a point
 *  forked from one; the shadow is the commit log as of the stop. */
class McPoint final : public SweepPoint
{
  public:
    explicit McPoint(const McTarget &target) : target(target) {}

    void
    restore(const SweepBase *from) override
    {
        base = static_cast<const McBase *>(from);
        // A walk with no base is the from-scratch reference: it runs on
        // a fresh machine.
        if (!base || !run)
            run.emplace(target.rc);
        run->start(target.rc, target.streams, base);
        committed = 0;
    }

    bool
    walk(SweepWalk &walk) override
    {
        McMachine &machine = run->machine;
        walk.enter(machine.countdown(), base ? base->storesAt : 0);
        const McScheduleResult res =
            base ? runInterleavedFrom(machine, run->ptrs, target.rc.sched,
                                      base->sched)
                 : runInterleaved(machine, run->ptrs, target.rc.sched);
        committed = run->commitLog.size();
        shadow = shadowOf(run->commitLog);
        return res.crashed;
    }

    /** A point copies no drivers: only the walker runs the streams. */
    void
    forkFrom(SweepPoint &from) override
    {
        auto &walker = static_cast<McPoint &>(from);
        if (!run)
            run.emplace(target.rc);
        MachineCheckpoint::capture(walker.run->machine).restore(run->machine);
        run->wl = walker.run->wl->clone();
        committed = walker.run->commitLog.size();
        shadow = shadowOf(walker.run->commitLog);
    }

    void
    progress(CrashPointOutcome &out) const override
    {
        out.committedOps = committed;
    }

    void
    forEachMachine(const std::function<void(McMachine &)> &fn) override
    {
        fn(run->machine);
    }

    /** Every core's log slice, then the workload's user-level recovery
     *  (on core 0: recovery is single-threaded kernel/runtime work). */
    std::size_t
    recover() override
    {
        const std::size_t replayed = run->machine.recover();
        run->wl->recover(run->machine.context(0));
        return replayed;
    }

    void
    check(OracleLines &lines) override
    {
        verifyStructure({run->machine, *run->wl}, shadow, lines,
                        {target.keys, "uncommitted"});
    }

    /** The fresh inserts spread across the cores. */
    void
    continueRun(std::size_t ops) override
    {
        insertContinuation(*run->wl, shadow, target.rc.seed, crashPoint, ops,
                           target.rc.valueBytes,
                           [&](std::size_t i) -> PmContext & {
                               return run->machine.context(
                                   i % target.rc.numCores);
                           });
    }

    void checkContinuation(OracleLines &lines) override { check(lines); }

    void
    statNames(std::vector<std::string> &names) const override
    {
        flatNames(run->machine, names);
    }

    void
    stats(std::vector<std::uint64_t> &values) const override
    {
        flatValues(run->machine, values);
    }

  private:
    const McTarget &target;
    const McBase *base = nullptr;  //!< the walk's base (nullptr: setup)
    std::optional<Interleaving> run;  //!< built on first use
    std::size_t committed = 0;  //!< commit-log entries as of the stop
    Shadow shadow;
};

std::unique_ptr<SweepPoint>
McTarget::newPoint() const
{
    return std::make_unique<McPoint>(*this);
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
    const McTarget target(cfg);
    return runSweepPoint(target, crash_point);
}

McCrashSweepReport
runMcCrashSweep(const McCrashSweepConfig &cfg)
{
    McTarget target(cfg);
    return runSweep(target, cfg);
}

} // namespace slpmt
