/**
 * @file
 * Multicore crash-point sweep (recovery fuzzing of the interleaved
 * machine): the multicore target of the sweep engine
 * (validate/sweep_engine.hh), built into slpmt_validate.
 *
 * The seeded interleaved YCSB run executes once on a master machine;
 * its bases sit at scheduler quantum boundaries, where no driver is
 * mid-transaction, and carry the machine checkpoint plus the driver
 * cursors, the commit log so far and the scheduler's register file. A
 * walker resumes the identical interleaving from a base and forks
 * each point at its store; the point takes the machine-wide power
 * failure at exactly that store,
 * recovers every core's log slice plus the workload's user-level
 * recovery, and checks the survivors against the
 * scheduler-commit-order shadow map: committed upserts readable with
 * their committed values, interrupted ops invisible, invariants
 * intact, recovery idempotent, and the structure still writable
 * afterwards.
 */

#ifndef SLPMT_MULTICORE_MC_CRASH_HH
#define SLPMT_MULTICORE_MC_CRASH_HH

#include <cstdint>

#include "multicore/mc_ycsb.hh"
#include "validate/sweep_engine.hh"

namespace slpmt
{

/** Everything configurable about one multicore sweep. */
struct McCrashSweepConfig : SweepOptions
{
    /** The interleaved run to crash (its sys scheme/style fields are
     *  overwritten from the options' scheme and style). */
    McYcsbConfig run;
};

using McCrashPointOutcome = CrashPointOutcome;
using McCrashSweepReport = CrashSweepReport;

/** Run one sweep: master run, enumerate, explore (possibly parallel). */
McCrashSweepReport runMcCrashSweep(const McCrashSweepConfig &cfg);

/** Re-run a single point in isolation (the repro handle). */
McCrashPointOutcome runMcCrashPoint(const McCrashSweepConfig &cfg,
                                    std::uint64_t crash_point);

/** Dry-run the interleaving and count its stores. */
std::uint64_t countMcTraceStores(const McCrashSweepConfig &cfg);

} // namespace slpmt

#endif // SLPMT_MULTICORE_MC_CRASH_HH
