/**
 * @file
 * Exhaustive crash-point exploration (recovery-correctness fuzzing):
 * the single-core target of the sweep engine (validate/sweep_engine.hh).
 *
 * The paper's guarantee is that selective logging plus lazy
 * persistency recovers a consistent state from *any* power-failure
 * point. This target validates that systematically instead of via
 * hand-picked points: a seeded YCSB-style mixed trace runs once on a
 * master machine, whose op boundaries are the bases; a walker replays
 * the trace from a base and forks each crash point at exactly its
 * store, where the point takes the power failure (the whole machine,
 * DRAM included), runs hardware recovery (undo/redo replay) plus the
 * workload's user-level recovery, and checks the surviving state
 * against a shadow map updated op by op:
 *
 *  - every committed key is readable with its committed value,
 *  - no aborted or in-flight partial update is visible,
 *  - the structure's deep invariants hold,
 *  - recovery is idempotent (running it twice changes nothing),
 *  - the structure keeps working (post-recovery inserts succeed).
 *
 * Every violation prints the (scheme, style, workload, seed,
 * ckpt_interval, crash_point) tuple that reproduces it in isolation.
 */

#ifndef SLPMT_VALIDATE_CRASH_EXPLORER_HH
#define SLPMT_VALIDATE_CRASH_EXPLORER_HH

#include <cstdint>
#include <string>

#include "core/pm_system.hh"
#include "validate/sweep_engine.hh"
#include "workloads/ycsb.hh"

namespace slpmt
{

/** Everything configurable about one single-core crash sweep. */
struct CrashSweepConfig : SweepOptions
{
    std::string workload = "hashtable";

    /** Seeded op trace the sweep replays (seed is the repro handle). */
    YcsbMixConfig mix;

    /**
     * Fault-injection knobs for the explorer's own tests: deliberately
     * skip a recovery stage to prove the oracle discriminates a broken
     * recovery path from a working one. Never set in real sweeps.
     */
    bool skipHardwareReplay = false;
    bool skipUserRecovery = false;
};

/** Run one sweep: master run, enumerate, explore (possibly parallel). */
CrashSweepReport runCrashSweep(const CrashSweepConfig &cfg);

/**
 * Re-run a single crash point in isolation — the reproducer for a
 * printed (scheme, style, workload, seed, crash_point) tuple.
 * @p crash_point 0 reproduces the post-completion point.
 */
CrashPointOutcome runCrashPoint(const CrashSweepConfig &cfg,
                                std::uint64_t crash_point);

/** Dry-run the trace and count its store/storeT instructions. */
std::uint64_t countTraceStores(const CrashSweepConfig &cfg);

} // namespace slpmt

#endif // SLPMT_VALIDATE_CRASH_EXPLORER_HH
