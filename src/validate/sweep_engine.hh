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
 *  - the nearest-base lookup: point k forks the last base captured
 *    strictly below store k (the post-completion point 0 forks the
 *    last base);
 *  - stratified point enumeration, seeded from the target's salt;
 *  - the two dispatch paths. Sampled sweeps run the master to the end
 *    (the strata need the store count), then fan the points out over
 *    the work-stealing pool. Exhaustive sweeps (maxPoints == 0) with
 *    two or more workers pipeline instead: the master publishes bases
 *    and its store frontier as it runs, and tail threads start point k
 *    the moment the frontier reaches k. Point k's base is final once
 *    the frontier reaches k, so both paths give identical outcomes;
 *  - the from-scratch audit path (useCheckpoints = false): the master
 *    captures nothing and every point runs with no base;
 *  - every point's pipeline after its tail run: the engine stamps the
 *    crash point and its repro tuple, then runs recovery, the
 *    post-recovery oracle, a second recovery that must replay nothing,
 *    the idempotence oracle, the continuation inserts and their oracle,
 *    and the stats dump, and turns an exception anywhere in the point
 *    into a violation line;
 *  - the sweep's one stat-name table, taken from the first point that
 *    dumps its stats: each point keeps only its values, in table order;
 *  - report aggregation, JSON and the summary text.
 *
 * A target supplies only what differs: the master run, which reports
 * its op or quantum boundaries and captures an immutable base when
 * asked; a fork of one point from a base (or from scratch), whose tail
 * runs up to and including the power failure; the point's recover,
 * check, continue and stats primitives; and the fields of its repro
 * tuple.
 *
 * `workers` is the total thread count on every path, the calling
 * thread included: 1 starts no thread at all, and the pipelined path
 * (master plus workers - 1 tail threads) needs at least 2.
 */

#ifndef SLPMT_VALIDATE_SWEEP_ENGINE_HH
#define SLPMT_VALIDATE_SWEEP_ENGINE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pm_system.hh"
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

/** A key as printed in violation lines. */
std::string hexKey(std::uint64_t key);

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
class OracleLines
{
  public:
    OracleLines(const std::string &tuple, const char *phase,
                std::vector<std::string> &out)
        : tuple(tuple), phase(phase), out(out)
    {}

    void add(const std::string &msg);

  private:
    static constexpr std::size_t maxPerPhase = 4;

    const std::string &tuple;
    const char *phase;
    std::vector<std::string> &out;
    std::size_t added = 0;
};

/** Committed state a shadow-map target's structure must match. */
using Shadow = std::map<std::uint64_t, std::vector<std::uint8_t>>;

/**
 * The shadow-map oracle of the core and mc targets: invariants hold,
 * the count matches, every committed key reads back its value, and
 * every key of @p run_keys (ascending) the shadow lacks is invisible
 * (@p absent_label names those keys in violation lines).
 */
void checkShadow(PmContext &ctx, Workload &wl, const Shadow &shadow,
                 const std::vector<std::uint64_t> &run_keys,
                 const char *absent_label, OracleLines &lines);

/** Every key the ops of @p ops carry, once each, ascending: the
 *  run_keys checkShadow takes. */
template <typename Ops>
std::vector<std::uint64_t>
runKeySet(const Ops &ops)
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

/** An immutable fork base the master run captured at a boundary;
 *  targets derive from it to add their host state. */
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
 * One crash point forked from a base (or from scratch): the machine
 * state a target's primitives act on while the engine drives the point
 * (SweepTarget::runPoint).
 */
class SweepPoint
{
  public:
    virtual ~SweepPoint() = default;

    /**
     * Run the tail up to and including the power failure, recording
     * fired and committedOps (and crashShard) in @p out. Returns false
     * when the armed crash should have fired and did not.
     */
    virtual bool tail(CrashPointOutcome &out) = 0;

    /** Hardware log replay, then the workload's user-level recovery;
     *  returns the log records the replay applied. */
    virtual std::size_t recover() = 0;

    /** The oracle: the recovered state against the committed one. */
    virtual void check(OracleLines &lines) = 0;

    /** Insert @p ops fresh keys and check the structure serves them. */
    virtual void continueRun(std::size_t ops, OracleLines &lines) = 0;

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
     * Run the whole trace once, reporting every boundary a point may
     * fork from to @p sink (the first at the run's start). Returns the
     * run's store count. During a pipelined sweep, the points run
     * while this call does; they may read host state the master wrote
     * before the boundary that published them.
     */
    virtual std::uint64_t runMaster(MasterSink &sink) = 0;

    /** Fork crash point @p crash_point from @p base (nullptr: from
     *  scratch). Called concurrently from many threads. */
    virtual std::unique_ptr<SweepPoint>
    fork(const SweepBase *base, std::uint64_t crash_point) const = 0;

    /** Run crash point @p crash_point forked from @p base through its
     *  tail, recovery and every oracle phase. */
    CrashPointOutcome runPoint(const SweepBase *base,
                               std::uint64_t crash_point) const;

    /** The sweep's stat-name table, built from the first point that
     *  reached its stats dump (empty before that). Read it once the
     *  points have run. */
    const std::vector<std::string> &statNames() const { return names; }

  private:
    /** The name table, built from @p point's names on first use;
     *  panics on a duplicate name. */
    const std::vector<std::string> &statTable(const SweepPoint &point) const;

    mutable std::mutex namesMtx;
    mutable bool namesBuilt = false;  //!< guarded by namesMtx
    mutable std::vector<std::string> names;  //!< written under namesMtx
};

/** Run a sweep of @p target (dispatch as in the file comment). */
CrashSweepReport runSweep(SweepTarget &target, const SweepOptions &opts);

/** Run the target's master once, capturing nothing; returns its
 *  store count. */
std::uint64_t countStores(SweepTarget &target);

} // namespace slpmt

#endif // SLPMT_VALIDATE_SWEEP_ENGINE_HH
