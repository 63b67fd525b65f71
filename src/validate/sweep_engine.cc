#include "validate/sweep_engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <string_view>

#include "common/rng.hh"
#include "sim/json.hh"
#include "validate/work_queue.hh"
#include "workloads/ycsb.hh"

namespace slpmt
{

SweepIdentity
sweepIdentity(std::string name, const SweepOptions &opts,
              std::string workload, std::uint64_t seed)
{
    SweepIdentity id;
    id.name = std::move(name);
    id.scheme = opts.scheme;
    id.style = opts.style;
    id.workload = std::move(workload);
    id.seed = seed;
    id.tinyCache = opts.tinyCache;
    id.checkpointInterval = opts.checkpointInterval;
    return id;
}

std::string
styleName(LoggingStyle style)
{
    return style == LoggingStyle::Undo ? "undo" : "redo";
}

std::string
reproTuple(const SweepIdentity &id, std::uint64_t crash_point)
{
    std::string tuple = "(scheme=" + schemeName(id.scheme) +
                        " style=" + styleName(id.style) +
                        " workload=" + id.workload;
    if (!id.shapeKey.empty())
        tuple += " " + id.shapeKey + "=" + std::to_string(id.shape);
    return tuple + " seed=" + std::to_string(id.seed) +
           std::string(id.tinyCache ? " tiny_cache=1" : "") +
           " ckpt_interval=" + std::to_string(id.checkpointInterval) +
           " crash_point=" + std::to_string(crash_point) + ")";
}

void
applySweepOptions(SystemConfig &sys, const SweepOptions &opts)
{
    sys.scheme = SchemeConfig::forKind(opts.scheme);
    sys.style = opts.style;
    if (opts.tinyCache) {
        sys.hierarchy.l1 = CacheConfig{"L1", 1024, 2, 4};
        sys.hierarchy.l2 = CacheConfig{"L2", 2048, 2, 12};
        sys.hierarchy.l3 = CacheConfig{"L3", 4096, 4, 40};
    }
}

void
OracleLines::add(const std::string &msg)
{
    if (added < maxPerPhase)
        out.push_back(tuple + " " + phase + ": " + msg);
    else if (added == maxPerPhase)
        out.push_back(tuple + " " + phase +
                      ": further violations suppressed");
    ++added;
}

void
insertContinuation(Workload &wl, Shadow &shadow, std::uint64_t seed,
                   std::uint64_t crash_point, std::size_t ops,
                   std::size_t value_bytes,
                   const std::function<PmContext &(std::size_t)> &ctx_for)
{
    Rng rng(mix64(seed) ^ (crash_point + 1));
    for (std::size_t i = 0; i < ops; ++i) {
        std::uint64_t key;
        do {
            key = ((rng.next() >> 1) | 2ULL) &
                  ~static_cast<std::uint64_t>(1);
        } while (shadow.count(key));
        const auto value = ycsbValueFor(key, value_bytes);
        wl.insert(ctx_for(i), key, value);
        shadow[key] = value;
    }
}

std::size_t
CrashSweepReport::violationCount() const
{
    std::size_t n = 0;
    for (const auto &p : points)
        n += p.violations.size();
    return n;
}

std::uint64_t
CrashSweepReport::replayedRecordsTotal() const
{
    std::uint64_t n = 0;
    for (const auto &p : points)
        n += p.replayedRecords;
    return n;
}

std::string
CrashSweepReport::violationsText() const
{
    std::string text;
    for (const auto &p : points) {
        for (const auto &v : p.violations) {
            text += v;
            text += '\n';
        }
    }
    return text;
}

namespace
{

std::size_t
firedCount(const std::vector<CrashPointOutcome> &points)
{
    std::size_t fired = 0;
    for (const auto &p : points)
        fired += p.fired ? 1 : 0;
    return fired;
}

} // namespace

std::string
CrashSweepReport::summaryText() const
{
    const SweepIdentity &id = identity;
    std::string text = id.name + " scheme=" + schemeName(id.scheme) +
                       " style=" + styleName(id.style) +
                       " workload=" + id.workload;
    if (!id.shapeKey.empty())
        text += " " + id.shapeKey + "=" + std::to_string(id.shape);
    text += " seed=" + std::to_string(id.seed) + "\n";
    text += "  trace_stores=" + std::to_string(traceStores);
    if (!id.opsKey.empty())
        text += " " + id.opsKey + "=" + std::to_string(traceOps);
    text += " points=" + std::to_string(pointsExplored()) +
            " fired=" + std::to_string(firedCount(points)) +
            " replayed_records=" + std::to_string(replayedRecordsTotal()) +
            " violations=" + std::to_string(violationCount()) + "\n";
    return text + violationsText();
}

std::string
CrashSweepReport::toJson() const
{
    // Sum the per-point values by index (addition commutes, so this is
    // worker-count independent), then name the sums in key order. A
    // name is reported once some point reported values.
    std::vector<std::uint64_t> sums;
    for (const auto &p : points) {
        if (p.stats.empty())
            continue;
        panicIfNot(p.stats.size() == statNames.size(),
                   "point stats do not match the sweep's name table");
        sums.resize(statNames.size());
        for (std::size_t i = 0; i < sums.size(); ++i)
            sums[i] += p.stats[i];
    }
    std::vector<std::size_t> byName(sums.size());
    std::iota(byName.begin(), byName.end(), 0);
    std::sort(byName.begin(), byName.end(),
              [&](std::size_t a, std::size_t b) {
                  return statNames[a] < statNames[b];
              });

    const SweepIdentity &id = identity;
    JsonWriter w;
    w.beginObject();
    w.key("scheme").value(schemeName(id.scheme));
    w.key("style").value(styleName(id.style));
    w.key("workload").value(id.workload);
    if (!id.shapeKey.empty())
        w.key(id.shapeKey).value(id.shape);
    w.key("seed").value(id.seed);
    w.key("tiny_cache").value(id.tinyCache);
    if (!id.opsKey.empty())
        w.key(id.opsKey).value(traceOps);
    w.key("trace_stores").value(traceStores);
    w.key("points_explored").value(pointsExplored());
    w.key("points_fired").value(firedCount(points));
    w.key("violations").value(violationCount());
    w.key("replayed_records").value(replayedRecordsTotal());
    w.key("ckpt_interval").value(id.checkpointInterval);

    w.key("violation_lines").beginArray();
    for (const auto &p : points) {
        for (const auto &v : p.violations)
            w.value(v);
    }
    w.endArray();

    w.key("stats").beginObject();
    for (std::size_t i : byName)
        w.key(statNames[i]).value(sums[i]);
    w.endObject();

    w.key("points").beginArray();
    for (const auto &p : points) {
        w.beginObject();
        w.key("crash_point").value(p.crashPoint);
        w.key("fired").value(p.fired);
        w.key("committed_ops").value(p.committedOps);
        w.key("replayed_records").value(p.replayedRecords);
        w.key("violations").value(p.violations.size());
        w.endObject();
    }
    w.endArray();

    w.endObject();
    return w.str();
}

namespace
{

/**
 * The master run's base chain: a base lands at the first boundary and
 * then at every one that completes another interval of stores. The
 * master finishes before any point runs, so the points read a chain
 * that no longer changes.
 */
class BaseChain final : public MasterSink
{
  public:
    BaseChain(bool capture, std::size_t interval)
        : capture(capture),
          interval(std::max<std::size_t>(interval, 1))
    {}

    bool
    wantsBase(std::uint64_t stores) const override
    {
        return capture &&
               (bases.empty() ||
                stores - bases.back()->storesAt >= interval);
    }

    void
    boundary(std::uint64_t stores, std::unique_ptr<SweepBase> base) override
    {
        if (base) {
            base->storesAt = stores;
            bases.push_back(std::move(base));
        }
    }

    /** The base a walk to point @p k restores: the last one strictly
     *  below k, so the armed countdown sees at least one store (point 0
     *  runs after the last store, so every base lies below it).
     *  nullptr when none does: the walk starts from setup. */
    const SweepBase *
    baseFor(std::uint64_t k) const
    {
        const auto above =
            k == 0 ? bases.end()
                   : std::partition_point(
                         bases.begin(), bases.end(),
                         [k](const auto &b) { return b->storesAt < k; });
        return above == bases.begin() ? nullptr : std::prev(above)->get();
    }

  private:
    const bool capture;
    const std::uint64_t interval;
    std::vector<std::unique_ptr<const SweepBase>> bases;
};

/** Fresh inserts every recovered point must accept. */
constexpr std::size_t continuationOps = 2;

/**
 * Enumerate the crash points to explore: every store when the budget
 * allows, otherwise one point drawn per stratum (always covering the
 * first and last store). Sentinel 0, appended last, stands for the
 * post-completion crash.
 */
std::vector<std::uint64_t>
enumeratePoints(std::uint64_t total, const SweepOptions &opts,
                std::uint64_t point_seed)
{
    std::vector<std::uint64_t> points;
    if (total > 0) {
        if (opts.maxPoints == 0 || total <= opts.maxPoints) {
            for (std::uint64_t k = 1; k <= total; ++k)
                points.push_back(k);
        } else {
            Rng rng(mix64(point_seed));
            const std::uint64_t strata = opts.maxPoints;
            for (std::uint64_t s = 0; s < strata; ++s) {
                const std::uint64_t lo = 1 + s * total / strata;
                const std::uint64_t hi = 1 + (s + 1) * total / strata;
                points.push_back(hi > lo ? lo + rng.below(hi - lo) : lo);
            }
            points.front() = 1;
            points.back() = total;
            std::sort(points.begin(), points.end());
            points.erase(std::unique(points.begin(), points.end()),
                         points.end());
        }
    }
    points.push_back(0);
    return points;
}

/** Most consecutive points one ticket hands out: enough to walk far
 *  between restores, few enough that four workers draw many chunks of
 *  an exhaustive sweep and stay balanced. */
constexpr std::size_t chunkCap = 32;

/** What the points of one sweep share: the stat-name table and the
 *  host time per pipeline step. */
class SweepLedger
{
  public:
    /** The name table, built from @p point's names on first use;
     *  panics on a duplicate name. */
    const std::vector<std::string> &statTable(const SweepPoint &point);

    void
    charge(PointStep step, std::uint64_t ns)
    {
        stepNs[static_cast<std::size_t>(step)] += ns;
    }

    /** The name table once the points have run (empty if none
     *  dumped its stats). */
    const std::vector<std::string> &names() const { return table; }

    std::array<double, numPointSteps> stepMs() const;

  private:
    std::mutex namesMtx;
    bool namesBuilt = false;         //!< guarded by namesMtx
    std::vector<std::string> table;  //!< written under namesMtx

    /** Nanoseconds per pipeline step, added to by concurrent points. */
    std::array<std::atomic<std::uint64_t>, numPointSteps> stepNs{};
};

const std::vector<std::string> &
SweepLedger::statTable(const SweepPoint &point)
{
    // Once built, the table never changes, so callers read it unlocked.
    // A rejected table stays unbuilt: every later point is rejected too.
    std::lock_guard<std::mutex> lock(namesMtx);
    if (!namesBuilt) {
        std::vector<std::string> names;
        point.statNames(names);
        std::vector<std::string_view> sorted(names.begin(), names.end());
        std::sort(sorted.begin(), sorted.end());
        const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
        if (dup != sorted.end())
            panic("stat '" + std::string(*dup) +
                  "' appears twice in the sweep's name table");
        table = std::move(names);
        namesBuilt = true;
    }
    return table;
}

std::array<double, numPointSteps>
SweepLedger::stepMs() const
{
    std::array<double, numPointSteps> ms{};
    for (std::size_t i = 0; i < numPointSteps; ++i)
        ms[i] = static_cast<double>(stepNs[i].load()) / 1e6;
    return ms;
}

/**
 * One sweep thread's walker and point, walking a chunk of points at a
 * time (file comment). Without forks (the audit and single-point runs)
 * the walker crashes in place at its point and is its own point.
 */
class ChunkWalker final : public SweepWalk, public ForkHook
{
  public:
    ChunkWalker(const SweepTarget &target, SweepLedger &ledger,
                const BaseChain &chain, bool forks)
        : target(target), ledger(ledger), chain(chain), forks(forks)
    {}

    /** Run the chunk @p points (ascending, but for a final 0), writing
     *  each point's outcome to the same index of @p outs. */
    void run(std::span<const std::uint64_t> points,
             std::span<CrashPointOutcome> outs);

    void enter(CrashCountdown &cd, std::uint64_t from,
               std::uint64_t to) override;

    /** The walker is at the top of the next point's store: fork the
     *  point and run it, then walk on to the next one or end the walk
     *  (the walker crashes and unwinds). */
    void atArmedStore() override;

  private:
    using Clock = std::chrono::steady_clock;

    /** Charge the time since the previous lap to @p step. */
    void lap(PointStep step);

    /** Disarm the register entered last. */
    void disarm();

    /** Stop at point next: fork it from the walker (or, without forks,
     *  take the walker itself), power it off and run its pipeline. */
    void stopAtNext(bool fired);

    /** Recovery, the oracles, the continuation and the stats dump. */
    void pipeline(SweepPoint &p, CrashPointOutcome &out,
                  const std::string &tuple);

    const SweepTarget &target;
    SweepLedger &ledger;
    const BaseChain &chain;
    const bool forks;

    std::unique_ptr<SweepPoint> walker;  //!< built on first use
    std::unique_ptr<SweepPoint> point;   //!< built on first fork

    std::span<const std::uint64_t> points;
    std::span<CrashPointOutcome> outs;
    std::size_t next = 0;  //!< the point the walker is bound for
    std::uint64_t walkFrom = 0;  //!< run stores at the walk's base
    bool stopped = false;  //!< the walk ended at a fork

    CrashCountdown *armed = nullptr;  //!< the register entered last
    std::uint64_t armedTo = 0;        //!< its last run store
    Clock::time_point last;
};

void
ChunkWalker::lap(PointStep step)
{
    const Clock::time_point now = Clock::now();
    ledger.charge(step, static_cast<std::uint64_t>(
                            std::chrono::duration_cast<
                                std::chrono::nanoseconds>(now - last)
                                .count()));
    last = now;
}

void
ChunkWalker::disarm()
{
    if (armed)
        *armed = {};
    armed = nullptr;
}

void
ChunkWalker::enter(CrashCountdown &cd, std::uint64_t from,
                   std::uint64_t to)
{
    disarm();
    armed = &cd;
    armedTo = to;
    const std::uint64_t k = points[next];
    if (k > from && k <= to)
        cd = {k - from, forks ? this : nullptr};
}

void
ChunkWalker::run(std::span<const std::uint64_t> chunk,
                 std::span<CrashPointOutcome> chunk_outs)
{
    points = chunk;
    outs = chunk_outs;
    for (next = 0; next < points.size();) {
        const SweepBase *base = chain.baseFor(points[next]);
        walkFrom = base ? base->storesAt : 0;
        stopped = false;
        bool walking = false;
        bool fired = false;
        last = Clock::now();
        try {
            if (!walker)
                walker = target.newPoint();
            walker->restore(base);
            lap(PointStep::Fork);
            walking = true;
            fired = walker->walk(*this);
        } catch (const std::exception &e) {
            disarm();
            if (stopped)
                continue;
            // The walker threw on its way to point next, which gets
            // the line; the next point restores its own base.
            CrashPointOutcome &out = outs[next];
            out = {};
            out.crashPoint = points[next++];
            if (walking)
                walker->progress(out);
            out.violations.push_back(reproTuple(target.id, out.crashPoint) +
                                     " exception: " + e.what());
            continue;
        }
        disarm();
        lap(PointStep::Tail);
        if (stopped)
            continue;
        // The walker crashed in place, or ran the trace out.
        stopAtNext(fired);
        ++next;
    }
}

void
ChunkWalker::atArmedStore()
{
    lap(PointStep::Tail);
    // The walker stands at the top of store k: k - 1 stores are done.
    const std::uint64_t k = points[next];
    stopAtNext(true);
    ++next;

    // Walk on unless the chunk is done or the next point's base lies
    // ahead of the walker: restoring it replays fewer stores.
    const SweepBase *base =
        next < points.size() ? chain.baseFor(points[next]) : nullptr;
    if (next == points.size() || (base && base->storesAt >= k)) {
        stopped = true;
        walker->forEachMachine([](McMachine &m) { m.crash(); });
        throw CrashInjected();
    }
    const std::uint64_t q = points[next];
    if (q != 0 && q <= armedTo)
        *armed = {q - k, this};
}

void
ChunkWalker::stopAtNext(bool fired)
{
    const std::uint64_t k = points[next];
    CrashPointOutcome &out = outs[next];
    out = {};
    out.crashPoint = k;
    out.fired = fired;
    const std::string tuple = reproTuple(target.id, k);
    try {
        SweepPoint *subject = walker.get();
        if (forks) {
            if (!point)
                point = target.newPoint();
            // The walker's countdown reads 0 here, so the copy carries
            // no trap.
            point->forkFrom(*walker);
            subject = point.get();
        }
        subject->crashPoint = k;
        subject->forEachMachine([](McMachine &m) { m.crash(); });
        subject->progress(out);
        lap(forks ? PointStep::Fork : PointStep::Tail);
        if (k != 0 && !fired)
            out.violations.push_back(tuple +
                                     " armed crash did not fire (stores "
                                     "at " +
                                     std::to_string(walkFrom) + ")");
        pipeline(*subject, out, tuple);
    } catch (const std::exception &e) {
        out.stats.clear();
        out.violations.push_back(tuple + " exception: " + e.what());
    }
}

void
ChunkWalker::pipeline(SweepPoint &p, CrashPointOutcome &out,
                      const std::string &tuple)
{
    out.replayedRecords = p.recover();
    lap(PointStep::Recover);
    OracleLines post(tuple, "post-recovery", out.violations);
    p.check(post);
    lap(PointStep::Oracle);

    // Recovery must be idempotent: a second replay finds an empty log
    // and a second user-level pass changes nothing.
    const std::size_t again = p.recover();
    lap(PointStep::Recover);
    if (again != 0)
        out.violations.push_back(
            tuple + " idempotence: second hardware recovery replayed " +
            std::to_string(again) + " records");
    OracleLines idem(tuple, "idempotence", out.violations);
    p.check(idem);
    lap(PointStep::Oracle);

    // The recovered structure must keep working.
    p.continueRun(continuationOps);
    lap(PointStep::Continue);
    OracleLines cont(tuple, "continuation", out.violations);
    p.checkContinuation(cont);
    lap(PointStep::Oracle);

    const std::vector<std::string> &table = ledger.statTable(p);
    out.stats.reserve(table.size());
    p.stats(out.stats);
    if (out.stats.size() != table.size())
        panic("point dumped " + std::to_string(out.stats.size()) +
              " stats values for the sweep's " +
              std::to_string(table.size()) + " names");
    lap(PointStep::Stats);
}

} // namespace

CrashSweepReport
runSweep(SweepTarget &target, const SweepOptions &opts)
{
    CrashSweepReport report;
    report.identity = target.id;
    const std::size_t workers = std::max<std::size_t>(opts.workers, 1);

    const auto t0 = std::chrono::steady_clock::now();
    // The whole master run first (capturing nothing in audit mode),
    // then every point against the finished chain.
    BaseChain chain(opts.useCheckpoints, opts.checkpointInterval);
    report.traceStores = target.runMaster(chain);
    const auto points =
        enumeratePoints(report.traceStores, opts, target.pointSeed);
    report.points.resize(points.size());
    // Chunks of up to chunkCap consecutive points, smaller when a
    // sweep has too few points to give every worker a chunk.
    const std::size_t chunk = std::clamp<std::size_t>(
        (points.size() + workers - 1) / workers, 1, chunkCap);
    SweepLedger ledger;
    // One walker (and point) per worker, built by the worker on first
    // use.
    std::vector<std::optional<ChunkWalker>> own(workers);
    parallelFor(workers, (points.size() + chunk - 1) / chunk,
                [&](std::size_t worker, std::size_t c) {
                    if (!own[worker])
                        own[worker].emplace(target, ledger, chain,
                                            opts.useCheckpoints);
                    const std::size_t lo = c * chunk;
                    const std::size_t n =
                        std::min(chunk, points.size() - lo);
                    own[worker]->run(
                        std::span(points).subspan(lo, n),
                        std::span(report.points).subspan(lo, n));
                });
    const auto t1 = std::chrono::steady_clock::now();
    report.statNames = ledger.names();
    report.stepMs = ledger.stepMs();
    report.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return report;
}

CrashPointOutcome
runSweepPoint(const SweepTarget &target, std::uint64_t crash_point)
{
    const BaseChain none(false, 1);
    SweepLedger ledger;
    ChunkWalker walker(target, ledger, none, false);
    CrashPointOutcome out;
    walker.run(std::span(&crash_point, 1), std::span(&out, 1));
    return out;
}

std::uint64_t
countStores(SweepTarget &target)
{
    BaseChain chain(false, 1);
    return target.runMaster(chain);
}

} // namespace slpmt
