#include "validate/sweep_engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <iterator>
#include <mutex>
#include <numeric>
#include <string_view>
#include <thread>

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
hexKey(std::uint64_t key)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(key));
    return buf;
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
checkShadow(PmContext &ctx, Workload &wl, const Shadow &shadow,
            const std::vector<std::uint64_t> &run_keys,
            const char *absent_label, OracleLines &lines)
{
    std::string why;
    if (!wl.checkConsistency(ctx, &why))
        lines.add("structure invariant violated: " + why);

    const std::size_t n = wl.count(ctx);
    if (n != shadow.size())
        lines.add("count mismatch: structure holds " + std::to_string(n) +
                  ", oracle expects " + std::to_string(shadow.size()));

    std::vector<std::uint8_t> got;
    for (const auto &[key, value] : shadow) {
        got.clear();
        if (!wl.lookup(ctx, key, &got))
            lines.add("committed key " + hexKey(key) + " missing");
        else if (got != value)
            lines.add("value mismatch for committed key " + hexKey(key));
    }

    for (std::uint64_t key : run_keys) {
        if (!shadow.count(key) && wl.lookup(ctx, key, nullptr))
            lines.add(std::string(absent_label) + " key " + hexKey(key) +
                      " visible");
    }
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
 * The master run's base chain. Every boundary advances the store
 * frontier; a base lands at the first boundary and then at every one
 * that completes another interval of stores. Bases are immutable and
 * heap-allocated, so tail threads keep plain pointers to them while
 * the master appends more; the chain itself is read under mtx while
 * the master may still run.
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
        // Only the master appends, so its own unlocked read is safe.
        return capture &&
               (bases.empty() ||
                stores - bases.back()->storesAt >= interval);
    }

    void
    boundary(std::uint64_t stores, std::unique_ptr<SweepBase> base) override
    {
        {
            std::lock_guard<std::mutex> lock(mtx);
            if (base) {
                base->storesAt = stores;
                bases.push_back(std::move(base));
            }
            frontier = stores;
        }
        cv.notify_all();
    }

    /** The base point @p k forks: the last one strictly below k, so
     *  the armed countdown sees at least one store (point 0 runs after
     *  the last store, so every base lies below it). nullptr when none
     *  does: the point runs from scratch. */
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

    std::mutex mtx;
    std::condition_variable cv;
    std::vector<std::unique_ptr<const SweepBase>> bases;
    std::uint64_t frontier = 0;     //!< run stores the master applied
    std::uint64_t traceStores = 0;  //!< final count, valid once done
    bool done = false;
    std::exception_ptr error;

  private:
    const bool capture;
    const std::uint64_t interval;
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

/**
 * The pipelined exhaustive sweep: the master runs on the calling
 * thread while workers - 1 tail threads claim points 1, 2, ... from an
 * atomic ticket, each blocking only until the frontier reaches its
 * point — an exhaustive sweep needs no store count up front. The
 * finished master then joins the tail threads.
 */
void
runPipelined(SweepTarget &target, const SweepOptions &opts,
             std::size_t workers, CrashSweepReport &report)
{
    BaseChain chain(true, opts.checkpointInterval);
    std::mutex results_mtx;
    std::map<std::uint64_t, CrashPointOutcome> results;
    std::atomic<std::uint64_t> ticket{1};

    auto tail = [&]() {
        for (;;) {
            const std::uint64_t k = ticket.fetch_add(1);
            std::uint64_t point = k;
            const SweepBase *base = nullptr;
            {
                std::unique_lock<std::mutex> lock(chain.mtx);
                chain.cv.wait(lock, [&] {
                    return chain.done || chain.frontier >= k;
                });
                if (chain.error)
                    return;
                if (chain.done && k > chain.traceStores) {
                    // Exactly one ticket past the last store runs the
                    // post-completion point; later tickets are spent.
                    if (k != chain.traceStores + 1)
                        return;
                    point = 0;
                }
                base = chain.baseFor(point);
            }
            CrashPointOutcome out = target.runPoint(base, point);
            std::lock_guard<std::mutex> lock(results_mtx);
            results[point] = std::move(out);
            if (point == 0)
                return;
        }
    };

    {
        // Declared after everything the tail threads use, so they join
        // before it goes away, on every path.
        std::vector<std::jthread> tails;
        tails.reserve(workers - 1);
        for (std::size_t w = 1; w < workers; ++w)
            tails.emplace_back(tail);
        try {
            const std::uint64_t total = target.runMaster(chain);
            std::lock_guard<std::mutex> lock(chain.mtx);
            chain.traceStores = total;
            chain.done = true;
        } catch (...) {
            std::lock_guard<std::mutex> lock(chain.mtx);
            chain.error = std::current_exception();
            chain.done = true;
        }
        chain.cv.notify_all();
        tail();
    }
    if (chain.error)
        std::rethrow_exception(chain.error);

    report.traceStores = chain.traceStores;
    for (std::uint64_t p :
         enumeratePoints(report.traceStores, opts, target.pointSeed))
        report.points.push_back(std::move(results.at(p)));
}

} // namespace

CrashPointOutcome
SweepTarget::runPoint(const SweepBase *base, std::uint64_t crash_point) const
{
    CrashPointOutcome out;
    out.crashPoint = crash_point;
    const std::string tuple = reproTuple(id, crash_point);

    try {
        const std::unique_ptr<SweepPoint> point = fork(base, crash_point);
        if (!point->tail(out))
            out.violations.push_back(
                tuple + " armed crash did not fire (stores at " +
                std::to_string(base ? base->storesAt : 0) + ")");

        out.replayedRecords = point->recover();
        OracleLines post(tuple, "post-recovery", out.violations);
        point->check(post);

        // Recovery must be idempotent: a second replay finds an empty
        // log and a second user-level pass changes nothing.
        const std::size_t again = point->recover();
        if (again != 0)
            out.violations.push_back(
                tuple +
                " idempotence: second hardware recovery replayed " +
                std::to_string(again) + " records");
        OracleLines idem(tuple, "idempotence", out.violations);
        point->check(idem);

        // The recovered structure must keep working.
        OracleLines cont(tuple, "continuation", out.violations);
        point->continueRun(continuationOps, cont);

        const std::vector<std::string> &table = statTable(*point);
        out.stats.reserve(table.size());
        point->stats(out.stats);
        if (out.stats.size() != table.size())
            panic("point dumped " + std::to_string(out.stats.size()) +
                  " stats values for the sweep's " +
                  std::to_string(table.size()) + " names");
    } catch (const std::exception &e) {
        out.stats.clear();
        out.violations.push_back(tuple + " exception: " + e.what());
    }
    return out;
}

const std::vector<std::string> &
SweepTarget::statTable(const SweepPoint &point) const
{
    // Once built, the table never changes, so callers read it unlocked.
    // A rejected table stays unbuilt: every later point is rejected too.
    std::lock_guard<std::mutex> lock(namesMtx);
    if (!namesBuilt) {
        std::vector<std::string> table;
        point.statNames(table);
        std::vector<std::string_view> sorted(table.begin(), table.end());
        std::sort(sorted.begin(), sorted.end());
        const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
        if (dup != sorted.end())
            panic("stat '" + std::string(*dup) +
                  "' appears twice in the sweep's name table");
        names = std::move(table);
        namesBuilt = true;
    }
    return names;
}

CrashSweepReport
runSweep(SweepTarget &target, const SweepOptions &opts)
{
    CrashSweepReport report;
    report.identity = target.id;
    const std::size_t workers = std::max<std::size_t>(opts.workers, 1);

    const auto t0 = std::chrono::steady_clock::now();
    if (opts.useCheckpoints && opts.maxPoints == 0 && workers >= 2) {
        runPipelined(target, opts, workers, report);
    } else {
        // Two-phase: the whole master run first (capturing nothing in
        // audit mode), then every point against the finished chain.
        BaseChain chain(opts.useCheckpoints, opts.checkpointInterval);
        report.traceStores = target.runMaster(chain);
        const auto points =
            enumeratePoints(report.traceStores, opts, target.pointSeed);
        report.points.resize(points.size());
        runWorkStealing(workers, points.size(), [&](std::size_t i) {
            report.points[i] =
                target.runPoint(chain.baseFor(points[i]), points[i]);
        });
    }
    const auto t1 = std::chrono::steady_clock::now();
    report.statNames = target.statNames();
    report.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return report;
}

std::uint64_t
countStores(SweepTarget &target)
{
    BaseChain chain(false, 1);
    return target.runMaster(chain);
}

} // namespace slpmt
