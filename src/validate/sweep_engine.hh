/**
 * @file
 * The checkpoint-and-fork crash-sweep engine every sweep target shares.
 *
 * A crash sweep validates the paper's guarantee — selective logging
 * plus lazy persistency recover a consistent state from *any*
 * power-failure point — by crashing a seeded run at every store (or a
 * stratified sample of them) and checking each recovery against an
 * oracle. Three targets run sweeps: the single-core explorer
 * (validate/crash_explorer.hh), the interleaved multicore machine
 * (multicore/mc_crash.hh) and the sharded service
 * (service/service_crash.hh). This engine owns everything that does
 * not depend on the target:
 *
 *  - the master run's checkpoint chain: a base is captured at the
 *    first boundary the target reports and then at every boundary
 *    that completes another checkpointInterval stores;
 *  - the nearest-base lookup: point k's base is the last one captured
 *    strictly below store k (the post-completion point 0's is the
 *    last base);
 *  - stratified point enumeration, seeded from the target's salt;
 *  - dispatch: every sweep runs its master to the end (the strata
 *    need the store count), then hands its points out over the ticket
 *    pool (validate/work_queue.hh) in chunks of consecutive points;
 *  - the walk: each sweep thread keeps a walker and a point. For a
 *    chunk, the walker restores the base of the chunk's first point
 *    and replays the trace forward with its machines' countdown armed
 *    for a fork. At each point's store the countdown forks the walker
 *    into the point, which power-fails and runs the point's pipeline,
 *    and the store then proceeds. When the next point's base lies
 *    ahead of the walker, the walker restores it rather than walking
 *    up to it, so no store is replayed that the point's own tail from
 *    its base would not replay. After the chunk's last point the
 *    walker crashes and unwinds;
 *  - the from-scratch audit path (useCheckpoints = false) and the
 *    single-point runs: the walker walks from setup to its one point
 *    and crashes in place, with no checkpoint anywhere;
 *  - every point's pipeline after its power failure: the engine stamps
 *    the crash point and its repro tuple, then runs recovery, the
 *    post-recovery oracle, a second recovery that must replay nothing,
 *    the idempotence oracle, the continuation inserts and their oracle,
 *    and the stats dump, and turns an exception anywhere in the point
 *    into a violation line; a walker that throws gives the point it
 *    was bound for that line, and the next point restores its own base;
 *  - the host time of each pipeline step, summed over the points
 *    (PointStep);
 *  - the sweep's one stat-name table, taken from the first point that
 *    dumps its stats: each point keeps only its values, in table order;
 *  - report aggregation, JSON and the summary text.
 *
 * A target supplies only what differs: the master run, which reports
 * its op or quantum boundaries and captures an immutable base when
 * asked; a walker that restores a base (or runs setup) and replays its
 * trace, entering each machine's countdown with the walk before the
 * stores it counts; a point that copies the walker at a store; the
 * point's recover, check, continue and stats primitives; and the
 * fields of its repro tuple.
 *
 * `workers` is the total thread count, the calling thread included:
 * 1 starts no thread at all, and no sweep starts more threads than it
 * has chunks.
 */

#ifndef SLPMT_VALIDATE_SWEEP_ENGINE_HH
#define SLPMT_VALIDATE_SWEEP_ENGINE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pm_system.hh"
#include "multicore/verifier.hh"
#include "txn/scheme.hh"
#include "workloads/workload.hh"

namespace slpmt
{

/** Knobs every crash sweep shares; each target's config extends it. */
struct SweepOptions
{
    SchemeKind scheme = SchemeKind::SLPMT;
    LoggingStyle style = LoggingStyle::Undo;

    /**
     * Crash-point budget. 0 explores every store; otherwise the range
     * is split into this many strata and one point is drawn
     * deterministically (from the target's seed) per stratum, always
     * including the first and last store.
     */
    std::size_t maxPoints = 0;

    /** Total sweep threads, the calling thread included (1 = serial). */
    std::size_t workers = 1;

    /**
     * Stores between master-run bases. Restores are bit-exact, so the
     * report does not depend on it; it is part of the repro tuple so a
     * printed violation names the exact sweep that found it.
     */
    std::size_t checkpointInterval = 64;

    /** Audit mode: false re-runs every point from scratch (O(P·T)). */
    bool useCheckpoints = true;

    /**
     * Shrink every cache level far below the working set so dirty
     * transactional lines overflow mid-transaction, draining log
     * records to PM and making recovery actually replay them.
     */
    bool tinyCache = false;
};

/** The steps of one point's pipeline, in order. Recover and Oracle run
 *  more than once per point: recovery twice, the oracle after each
 *  recovery and after the continuation inserts. */
enum class PointStep : std::size_t
{
    Fork,      //!< copy the walker into the point and power it off, or
               //!< restore a chunk's base into the walker
    Tail,      //!< the walker's own stores up to the point
    Recover,   //!< hardware log replay and user-level recovery
    Oracle,    //!< the recovered structure against the committed state
    Continue,  //!< the continuation inserts
    Stats,     //!< the machine counters' dump
};

inline constexpr std::size_t numPointSteps = 6;

/** Lower-case step names, by PointStep. */
inline constexpr std::array<const char *, numPointSteps> pointStepNames = {
    "fork", "tail", "recover", "oracle", "continue", "stats"};

/** Outcome of one explored crash point. */
struct CrashPointOutcome
{
    /** Store/storeT ordinal at which the crash fired; 0 marks the
     *  post-completion crash point. */
    std::uint64_t crashPoint = 0;

    /** The armed crash fired mid-run (vs. injected after it). */
    bool fired = false;

    /** Ops that completed before the crash (trace ops, commit-log
     *  entries or dispatch ops, by target). */
    std::size_t committedOps = 0;

    /** Log records the hardware recovery replayed. */
    std::size_t replayedRecords = 0;

    /** Shard whose store fired (service target; 0 elsewhere). */
    std::size_t crashShard = 0;

    /** Oracle violations (empty = the point recovered correctly). */
    std::vector<std::string> violations;

    /** The point's machine counters, in the order of the sweep's
     *  name table (CrashSweepReport::statNames), summed into the JSON
     *  report. Empty when the point threw, and for the service target,
     *  which carries none. */
    std::vector<std::uint64_t> stats;
};

/** What names a sweep in its repro tuples, JSON and summary. */
struct SweepIdentity
{
    std::string name;          //!< summary prefix, e.g. "mc-crash-sweep"
    SchemeKind scheme = SchemeKind::SLPMT;
    LoggingStyle style = LoggingStyle::Undo;
    std::string workload;
    std::string shapeKey;      //!< "cores" / "shards"; empty = none
    std::size_t shape = 0;
    std::uint64_t seed = 0;
    bool tinyCache = false;
    std::size_t checkpointInterval = 0;
    std::string opsKey;        //!< name of traceOps; empty = unreported
};

/** The identity fields every target takes from its options; the
 *  target adds its shape and ops keys. */
SweepIdentity sweepIdentity(std::string name, const SweepOptions &opts,
                            std::string workload, std::uint64_t seed);

/** "undo" or "redo". */
std::string styleName(LoggingStyle style);

/** The printed handle that reproduces point @p crash_point in
 *  isolation. */
std::string reproTuple(const SweepIdentity &id, std::uint64_t crash_point);

/** Stamp the shared options into @p sys: scheme, style and, with
 *  tinyCache, the sweeps' tiny cache geometry. */
void applySweepOptions(SystemConfig &sys, const SweepOptions &opts);

/**
 * One oracle phase's violation lines, capped per phase so one broken
 * point cannot flood the report.
 */
class OracleLines final : public VerifySink
{
  public:
    OracleLines(const std::string &tuple, const char *phase,
                std::vector<std::string> &out)
        : tuple(tuple), phase(phase), out(out)
    {}

    void add(const std::string &msg) override;

  private:
    static constexpr std::size_t maxPerPhase = 4;

    const std::string &tuple;
    const char *phase;
    std::vector<std::string> &out;
    std::size_t added = 0;
};

/** Every key the ops of @p ops carry, once each, ascending: the run
 *  keys a crash point's structure must not show unless committed. */
template <typename Ops>
std::vector<std::uint64_t>
runKeySet(Ops &&ops)
{
    std::vector<std::uint64_t> keys;
    for (const auto &op : ops)
        keys.push_back(op.key);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
}

/**
 * The continuation inserts of the core and mc targets: @p ops fresh
 * inserts with per-point deterministic keys (drawn from @p seed and
 * @p crash_point) and @p value_bytes values, the i-th on
 * @p ctx_for(i), each recorded in @p shadow. Run keys are odd and
 * continuation keys even, so they can never collide.
 */
void insertContinuation(Workload &wl, Shadow &shadow, std::uint64_t seed,
                        std::uint64_t crash_point, std::size_t ops,
                        std::size_t value_bytes,
                        const std::function<PmContext &(std::size_t)> &ctx_for);

/** Aggregated result of a sweep (every target). */
struct CrashSweepReport
{
    SweepIdentity identity;

    /** Store/storeT instructions the full run executes. */
    std::uint64_t traceStores = 0;

    /** Ops of the lowered run, reported as identity.opsKey. */
    std::size_t traceOps = 0;

    /** Per-point outcomes, ordered by crash point (deterministic). */
    std::vector<CrashPointOutcome> points;

    /** The names of every point's stats values, by index; no name
     *  appears twice. */
    std::vector<std::string> statNames;

    /** Wall-clock milliseconds of the (possibly parallel) sweep. Kept
     *  out of toJson() and summaryText() so reports diff cleanly
     *  across modes. */
    double wallMs = 0.0;

    /** Host milliseconds per pipeline step (indexed by PointStep),
     *  summed over every point and thread; kept out of toJson() and
     *  summaryText() like wallMs. A step that throws is not counted. */
    std::array<double, numPointSteps> stepMs{};

    std::size_t pointsExplored() const { return points.size(); }
    std::size_t violationCount() const;
    std::uint64_t replayedRecordsTotal() const;

    /** Deterministic violation listing: one line per violation, each
     *  carrying its repro tuple; empty when the sweep is clean. */
    std::string violationsText() const;

    /** Deterministic human-readable summary. */
    std::string summaryText() const;

    /**
     * Full machine-readable report. No timing or worker-count fields,
     * so the checkpointed sweep and the audit sweep produce
     * byte-identical documents.
     */
    std::string toJson() const;
};

/** An immutable base the master run captured at a boundary, which
 *  walkers restore; targets derive from it to add their host state. */
struct SweepBase
{
    SweepBase() = default;
    SweepBase(const SweepBase &) = delete;
    SweepBase &operator=(const SweepBase &) = delete;
    virtual ~SweepBase() = default;

    std::uint64_t storesAt = 0;  //!< run stores executed at capture
};

/** The engine's side of a target's master run. */
class MasterSink
{
  public:
    /** Whether the target must capture a base at the boundary it is
     *  at, @p stores run stores in. */
    virtual bool wantsBase(std::uint64_t stores) const = 0;

    /** Report a boundary, with the base wantsBase() asked for. */
    virtual void boundary(std::uint64_t stores,
                          std::unique_ptr<SweepBase> base) = 0;

  protected:
    ~MasterSink() = default;
};

/**
 * The engine's side of a walk (SweepPoint::walk): which stores the
 * walker stops at. A walker enters each machine's countdown register
 * before the run stores that machine executes; the walk arms the
 * register for the next point among them, with a fork hook or, in the
 * audit and single-point runs, to crash in place.
 */
class SweepWalk
{
  public:
    /** No upper store bound: the register counts the rest of the walk. */
    static constexpr std::uint64_t unbounded = ~std::uint64_t{0};

    /**
     * The machine of register @p cd is about to execute run stores
     * @p from + 1 through @p to: disarm the register entered before,
     * then arm @p cd if the walk's next point lies among those stores.
     */
    virtual void enter(CrashCountdown &cd, std::uint64_t from,
                       std::uint64_t to = unbounded) = 0;

  protected:
    ~SweepWalk() = default;
};

/**
 * A sweep thread's machine(s) with the cloned workload(s), the shadow
 * and the per-point scratch, in one of two roles. As the walker it
 * restores bases and replays the trace (restore, walk); as the point it
 * becomes a copy of the walker at a point's store (forkFrom). After its
 * power failure the engine drives the point's pipeline through the
 * remaining primitives; in the audit and single-point runs the walker
 * crashes in place and is its own point. The engine keeps one walker
 * and one point per thread and reuses them for every point the thread
 * runs.
 */
class SweepPoint
{
  public:
    virtual ~SweepPoint() = default;

    /** The crash point this machine stands for once the walk stops
     *  there: set by the engine before the point's pipeline runs. */
    std::uint64_t crashPoint = 0;

    /**
     * Put the walker at @p base: restore the base into the machines it
     * already has (building them on first use), copy the base's host
     * state into its containers and reset every per-walk field, so
     * nothing a previous walk left behind, even one that threw, is
     * seen. With no base (nullptr) it builds fresh machines and runs
     * setup, as a from-scratch reference must.
     */
    virtual void restore(const SweepBase *base) = 0;

    /**
     * Replay the trace from where the walker stands, entering every
     * machine's countdown with @p walk before the stores it counts.
     * Returns true when an injected crash unwound the walk (the
     * walker's own in-place crash, or the engine ending the walk at a
     * fork) and false when the trace ran out; either way the host state
     * (op cursor, shadow) is left as of the stop.
     */
    virtual bool walk(SweepWalk &walk) = 0;

    /**
     * Become a copy of @p walker, which stands at the top of a store:
     * its machines (whose countdown reads 0), workload clones, shadow,
     * interrupted write and op cursor. @p walker is the same target's.
     */
    virtual void forkFrom(SweepPoint &walker) = 0;

    /** Record where the run stopped in @p out: committedOps (trace
     *  ops, commit-log entries or dispatch ops) and crashShard. */
    virtual void progress(CrashPointOutcome &out) const = 0;

    /** Call @p fn on every machine: the engine power-fails each. */
    virtual void
    forEachMachine(const std::function<void(McMachine &)> &fn) = 0;

    /** Hardware log replay, then the workload's user-level recovery;
     *  returns the log records the replay applied. */
    virtual std::size_t recover() = 0;

    /** The oracle: the recovered state against the committed one. */
    virtual void check(OracleLines &lines) = 0;

    /** Insert @p ops fresh keys, drawn from crashPoint, on top of the
     *  recovered state. */
    virtual void continueRun(std::size_t ops) = 0;

    /** The oracle after continueRun(): the structure serves the
     *  committed keys and the fresh ones. */
    virtual void checkContinuation(OracleLines &lines) = 0;

    /** Append the names of the machine counters stats() dumps, in its
     *  order. The engine asks only the first point that dumps its
     *  stats, and keeps the names as the sweep's table. */
    virtual void statNames(std::vector<std::string> &names) const = 0;

    /** Append the machine counters the report sums, in statNames()
     *  order. */
    virtual void stats(std::vector<std::uint64_t> &values) const = 0;
};

/** What a sweep target supplies to the engine. */
class SweepTarget
{
  public:
    SweepTarget(SweepIdentity id, std::uint64_t point_seed)
        : id(std::move(id)), pointSeed(point_seed)
    {}
    SweepTarget(const SweepTarget &) = delete;
    SweepTarget &operator=(const SweepTarget &) = delete;
    virtual ~SweepTarget() = default;

    const SweepIdentity id;

    /** Seeds the stratified point draw. */
    const std::uint64_t pointSeed;

    /**
     * Run the whole trace once, reporting every boundary a walker may
     * restore (the first at the run's start) to @p sink. Returns the
     * run's store count. No point runs before this call returns.
     */
    virtual std::uint64_t runMaster(MasterSink &sink) = 0;

    /** A new walker or point, not yet restored or forked; building it
     *  must be cheap (its machines come with first use). Called
     *  concurrently from many threads: once per sweep thread for its
     *  walker, and once more if the thread forks. */
    virtual std::unique_ptr<SweepPoint> newPoint() const = 0;
};

/** Run a sweep of @p target (dispatch as in the file comment). */
CrashSweepReport runSweep(SweepTarget &target, const SweepOptions &opts);

/** Walk @p target from setup to point @p crash_point, crash in place
 *  and run the point's pipeline: the reproducer of a printed tuple.
 *  Stores past the run's end never fire, which the outcome reports. */
CrashPointOutcome runSweepPoint(const SweepTarget &target,
                                std::uint64_t crash_point);

/** Run the target's master once, capturing nothing; returns its
 *  store count. */
std::uint64_t countStores(SweepTarget &target);

} // namespace slpmt

#endif // SLPMT_VALIDATE_SWEEP_ENGINE_HH
