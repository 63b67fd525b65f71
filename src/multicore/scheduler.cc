#include "multicore/scheduler.hh"

#include "common/rng.hh"

namespace slpmt
{

namespace
{

/** Livelock bound: conflict aborts in a row after which a core is
 *  scheduled stubbornly until it commits. */
constexpr std::size_t stubbornAfterAborts = 3;

/** The scheduling loop, parameterised on the starting register file
 *  so a fresh run and a checkpoint resume share one code path. */
McScheduleResult
runLoop(McMachine &machine, const std::vector<McCoreDriver *> &drivers,
        const McSchedConfig &cfg, Rng rng, std::size_t rr,
        std::size_t quanta, const McQuantumHook &hook)
{
    panicIfNot(drivers.size() == machine.numCores(),
               "one driver per core required");
    panicIfNot(cfg.quantumOps > 0, "quantum must be at least one op");

    machine.setConflictHandler([&](std::size_t core) {
        drivers[core]->onConflictAbort();
    });
    // The handler refers to the caller's drivers, so it goes on every
    // way out of the loop, a throwing driver or hook included.
    struct ClearHandler
    {
        McMachine &machine;
        ~ClearHandler() { machine.setConflictHandler(nullptr); }
    } clear_handler{machine};

    McScheduleResult result;
    result.quanta = quanta;
    std::vector<std::size_t> runnable;

    auto pick = [&]() -> std::size_t {
        // Livelock bound: a core whose transactions keep aborting is
        // scheduled exclusively until it commits (lowest index wins
        // for determinism).
        for (std::size_t i = 0; i < drivers.size(); ++i)
            if (!drivers[i]->done() &&
                drivers[i]->abortStreak() >= stubbornAfterAborts)
                return i;
        runnable.clear();
        for (std::size_t i = 0; i < drivers.size(); ++i)
            if (!drivers[i]->done())
                runnable.push_back(i);
        if (runnable.empty())
            return drivers.size();
        if (cfg.weighted)
            return runnable[rng.below(runnable.size())];
        while (drivers[rr % drivers.size()]->done())
            ++rr;
        const std::size_t core = rr % drivers.size();
        ++rr;
        return core;
    };

    // The entry boundary is a quantum boundary too (nothing has been
    // picked yet), so a master run gets a trace-start checkpoint.
    if (hook)
        hook(McScheduleState{rng.rawState(), rr, result.quanta});

    try {
        for (std::size_t core = pick(); core < drivers.size();
             core = pick()) {
            for (std::size_t op = 0;
                 op < cfg.quantumOps && !drivers[core]->done(); ++op)
                drivers[core]->step();
            ++result.quanta;
            machine.noteQuantumExpiry(core);
            // Everything the next pick() reads is in {rng, rr,
            // quanta}; drivers are between transactions. Report the
            // boundary so sweeps can checkpoint here.
            if (hook)
                hook(McScheduleState{rng.rawState(), rr,
                                     result.quanta});
        }
    } catch (const CrashInjected &) {
        // The firing engine crashed itself; take the whole machine
        // down (power failure is machine-wide).
        result.crashed = true;
        machine.crash();
    }
    return result;
}

} // namespace

McScheduleResult
runInterleaved(McMachine &machine,
               const std::vector<McCoreDriver *> &drivers,
               const McSchedConfig &cfg, const McQuantumHook &hook)
{
    return runLoop(machine, drivers, cfg,
                   Rng(mix64(cfg.seed ^ 0x9c0'9c09'c09c'09c0ULL)), 0,
                   0, hook);
}

McScheduleResult
runInterleavedFrom(McMachine &machine,
                   const std::vector<McCoreDriver *> &drivers,
                   const McSchedConfig &cfg,
                   const McScheduleState &resume,
                   const McQuantumHook &hook)
{
    Rng rng;
    rng.setRawState(resume.rngState);
    return runLoop(machine, drivers, cfg, std::move(rng), resume.rr,
                   resume.quanta, hook);
}

} // namespace slpmt
