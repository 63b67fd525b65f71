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
          cfg(cfg), rc(runConfigFor(cfg)), streams(mcYcsbStreams(rc)),
          keys(runKeySet(streams | std::views::join))
    {}

    std::uint64_t runMaster(MasterSink &sink) override;
    CrashPointOutcome runPoint(const SweepBase *base,
                               std::uint64_t crash_point) const override;

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

    void finish(Interleaving &run, bool crashed, const std::string &tuple,
                CrashPointOutcome &out) const;

    const McCrashSweepConfig &cfg;
    const McYcsbConfig rc;
    const std::vector<std::vector<McOpRecord>> streams;

    /** Every key the streams touch, ascending. */
    const std::vector<std::uint64_t> keys;
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

CrashPointOutcome
McTarget::runPoint(const SweepBase *base, std::uint64_t crash_point) const
{
    CrashPointOutcome out;
    out.crashPoint = crash_point;
    const std::string tuple = reproTuple(id, crash_point);

    try {
        const auto *b = static_cast<const McBase *>(base);
        Interleaving run(rc, streams, b);
        if (crash_point > 0)
            run.machine.armCrashAfterStores(crash_point -
                                            (b ? b->storesAt : 0));
        const McScheduleResult res =
            b ? runInterleavedFrom(run.machine, run.ptrs, rc.sched,
                                   b->sched)
              : runInterleaved(run.machine, run.ptrs, rc.sched);
        run.machine.armCrashAfterStores(0);
        finish(run, res.crashed, tuple, out);
    } catch (const std::exception &e) {
        out.violations.push_back(tuple + " exception: " + e.what());
    }
    return out;
}

/**
 * From the crash (or run completion) onward: power off if nothing
 * fired, rebuild the shadow from the commit log, recover, and run the
 * oracle phases.
 */
void
McTarget::finish(Interleaving &run, bool crashed, const std::string &tuple,
                 CrashPointOutcome &out) const
{
    McMachine &machine = run.machine;
    Workload &wl = *run.wl;
    out.fired = crashed;
    out.committedOps = run.commitLog.size();

    // Power off after the run when the armed point never fired
    // (or for the explicit post-completion sentinel).
    if (!crashed)
        machine.crash();

    Shadow shadow;
    for (const auto &op : run.commitLog)
        shadow[op.key] = op.value;

    auto check = [&](const char *phase) {
        OracleLines lines(tuple, phase, out.violations);
        checkShadow(machine.context(0), wl, shadow, keys, "uncommitted",
                    lines);
    };

    // Hardware replay of every core's log slice, then the
    // workload's user-level recovery (runs on core 0 — recovery
    // is single-threaded kernel/runtime work).
    out.replayedRecords = machine.recover();
    wl.recover(machine.context(0));
    check("post-recovery");

    if (cfg.checkIdempotence) {
        const std::size_t again = machine.recover();
        if (again != 0)
            out.violations.push_back(
                tuple + " idempotence: second hardware recovery "
                        "replayed " +
                std::to_string(again) + " records");
        wl.recover(machine.context(0));
        check("idempotence");
    }

    // The structure must keep working: the fresh inserts spread
    // across the cores.
    if (cfg.continuationOps > 0) {
        insertContinuation(wl, shadow, rc.seed, out.crashPoint,
                           cfg.continuationOps, rc.valueBytes,
                           [&](std::size_t i) -> PmContext & {
                               return machine.context(i % rc.numCores);
                           });
        check("continuation");
    }

    out.stats = machine.snapshot();
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
