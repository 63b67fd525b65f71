/**
 * @file
 * Concurrent YCSB over the durable KV structures.
 *
 * Each core runs its own deterministic op stream against one shared
 * structure: mostly core-private keys (generated disjointly) plus a
 * configurable fraction of ops targeting a small shared key pool —
 * the knob that provokes genuine cross-core txn-ID observations,
 * signature hits and coherence invalidations. Ops are upserts
 * (update-else-insert) so shared keys are inserted by first touch and
 * overwritten thereafter.
 *
 * The scheduler-commit order of the interleaved run is recorded as a
 * commit log; replaying that log serially on a single-core machine
 * must produce a logically identical structure (the differential
 * oracle), and the multicore crash sweep (mc_crash.hh) reuses the
 * same streams to crash at stratified points of the interleaving.
 */

#ifndef SLPMT_MULTICORE_MC_YCSB_HH
#define SLPMT_MULTICORE_MC_YCSB_HH

#include <string>
#include <vector>

#include "multicore/machine.hh"
#include "multicore/scheduler.hh"
#include "workloads/factory.hh"

namespace slpmt
{

/** One multicore YCSB sweep configuration. */
struct McYcsbConfig
{
    std::string workload = "hashtable";
    std::size_t numCores = 2;
    std::size_t opsPerCore = 100;
    std::size_t valueBytes = 64;
    std::uint64_t seed = 42;

    /** Percent of each core's ops that target the 16-key shared
     *  pool. */
    unsigned sharedPct = 25;

    McSchedConfig sched;

    /** Machine configuration; numCores is overridden from above. */
    SystemConfig sys;

    /** Annotation policy (non-owning; nullptr = manual). */
    const AnnotationPolicy *policy = nullptr;
};

/** One upsert in a core's op stream. */
struct McOpRecord
{
    std::size_t core = 0;
    std::uint64_t key = 0;
    std::vector<std::uint8_t> value;
};

/** Deterministic per-core op streams for a configuration. */
std::vector<std::vector<McOpRecord>> mcYcsbStreams(const McYcsbConfig &cfg);

/** A core driver executing one op stream as upsert transactions. */
class McYcsbDriver : public McCoreDriver
{
  public:
    McYcsbDriver(PmContext &ctx, Workload &wl,
                 const std::vector<McOpRecord> &ops,
                 std::vector<McOpRecord> &commit_log)
        : ctx(ctx), wl(wl), ops(ops), commitLog(commit_log)
    {
    }

    bool done() const override { return cursor >= ops.size(); }

    void
    step() override
    {
        const McOpRecord &op = ops[cursor];
        if (!wl.update(ctx, op.key, op.value))
            wl.insert(ctx, op.key, op.value);
        commitLog.push_back(op);
        ++cursor;
    }

    /** @name Checkpoint support: a driver's whole state is its cursor
     *  (the commit log is snapshotted separately by the sweep). */
    /** @{ */
    std::size_t position() const { return cursor; }
    void resumeAt(std::size_t c) { cursor = c; }
    /** @} */

  private:
    PmContext &ctx;
    Workload &wl;
    const std::vector<McOpRecord> &ops;
    std::vector<McOpRecord> &commitLog;
    std::size_t cursor = 0;
};

/** Outcome of one interleaved multicore YCSB run. */
struct McYcsbResult
{
    Cycles makespan = 0;     //!< slowest core's measured cycles
    std::size_t quanta = 0;
    bool crashed = false;
    std::vector<McOpRecord> commitLog;  //!< scheduler-commit order
    StatsSnapshot statsBefore;
    StatsSnapshot statsAfter;
    bool verified = false;
    std::string failure;
};

/**
 * Run the interleaved multicore YCSB to completion and verify the
 * final structure against the commit log (consistency, per-key
 * lookups, count).
 */
McYcsbResult runMcYcsb(const McYcsbConfig &cfg);

/**
 * Differential oracle: replay @p commit_log serially on a fresh
 * single-core machine and verify it reaches the same logical state
 * the log implies (same lookups and count).
 */
bool replaySerialOracle(const McYcsbConfig &cfg,
                        const std::vector<McOpRecord> &commit_log,
                        std::string *why);

} // namespace slpmt

#endif // SLPMT_MULTICORE_MC_YCSB_HH
