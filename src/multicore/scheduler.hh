/**
 * @file
 * Deterministic interleaving scheduler for the multicore machine.
 *
 * Multi-core runs must be bit-reproducible and crash-sweepable, so
 * there are no real threads: per-core op streams are interleaved by a
 * seeded scheduler that hands one core a quantum of micro-ops at a
 * time, either round-robin or by weighted random draw over the cores
 * that still have work. Quantum expiry models an OS context switch —
 * the §V-C rule drains the departing core's log buffer.
 *
 * Cross-core conflicts abort the *suspended* transaction; the driver
 * rewinds to its transaction group start and retries. A core whose
 * transactions keep getting aborted (abortStreak) is eventually
 * scheduled "stubbornly" — given consecutive quanta until it commits
 * — which bounds retry livelock deterministically.
 */

#ifndef SLPMT_MULTICORE_SCHEDULER_HH
#define SLPMT_MULTICORE_SCHEDULER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "multicore/machine.hh"

namespace slpmt
{

/** Scheduler knobs; defaults favour heavy interleaving. */
struct McSchedConfig
{
    std::uint64_t seed = 1;        //!< interleaving seed
    std::size_t quantumOps = 4;    //!< micro-ops per scheduling quantum
    bool weighted = false;         //!< random draw instead of round-robin
};

/** One core's op stream, advanced one micro-op at a time. */
class McCoreDriver
{
  public:
    virtual ~McCoreDriver() = default;

    virtual bool done() const = 0;

    /** Execute the next micro-op on this core's context. */
    virtual void step() = 0;

    /** Consecutive conflict aborts since the last commit. */
    virtual std::size_t abortStreak() const { return 0; }

    /** The machine aborted this core's in-flight transaction. */
    virtual void onConflictAbort() {}
};

/** What an interleaved run did. */
struct McScheduleResult
{
    bool crashed = false;    //!< an armed crash fired mid-stream
    std::size_t quanta = 0;  //!< scheduling quanta granted
};

/**
 * The scheduler's register file at a quantum boundary. Together with
 * a machine checkpoint and the drivers' cursors this resumes an
 * interleaved run bit-exactly: the RNG raw state replays the same
 * weighted draws, rr the same round-robin order, quanta the same
 * count bookkeeping.
 */
struct McScheduleState
{
    std::array<std::uint64_t, 4> rngState{};
    std::size_t rr = 0;
    std::size_t quanta = 0;
};

/**
 * Called after every scheduling quantum (context-switch drain
 * included) with the state that resumes the run from this boundary.
 * Drivers are never mid-transaction here — step() runs whole
 * transactions — so this is where crash sweeps drop checkpoints.
 */
using McQuantumHook = std::function<void(const McScheduleState &)>;

/**
 * Interleave the drivers' op streams over the machine's cores until
 * every driver reports done (or an armed crash fires). drivers[i]
 * runs on core i; there must be one driver per core.
 */
McScheduleResult runInterleaved(McMachine &machine,
                                const std::vector<McCoreDriver *> &drivers,
                                const McSchedConfig &cfg,
                                const McQuantumHook &hook = nullptr);

/**
 * Resume an interleaved run from a quantum boundary previously
 * reported to an McQuantumHook. The machine and the drivers must
 * already be restored to that same boundary; the continuation is
 * bit-identical to the uninterrupted run.
 */
McScheduleResult runInterleavedFrom(McMachine &machine,
                                    const std::vector<McCoreDriver *> &drivers,
                                    const McSchedConfig &cfg,
                                    const McScheduleState &resume,
                                    const McQuantumHook &hook = nullptr);

} // namespace slpmt

#endif // SLPMT_MULTICORE_SCHEDULER_HH
