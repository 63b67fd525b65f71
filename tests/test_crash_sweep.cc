/**
 * @file
 * Tests of the crash-sweep engine and its core target: clean sampled
 * sweeps over every scheme family (the recovery guarantee),
 * bit-identical parallel determinism, oracle discrimination against
 * deliberately broken recovery paths, pinned report digests for every
 * target, the engine's own violation lines under fake targets, and the
 * underlying ticket pool and JSON writer.
 */

#include <atomic>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/checkpoint.hh"
#include "multicore/mc_crash.hh"
#include "service/service_crash.hh"
#include "sim/json.hh"
#include "validate/crash_explorer.hh"
#include "validate/work_queue.hh"
#include "workloads/factory.hh"

namespace slpmt
{
namespace
{

/** The standard sweep configuration the suite uses: big enough values
 *  that rbtree rebalancing transactions self-evict under the tiny
 *  cache (so hardware log replay actually runs), small enough to keep
 *  a multi-scheme sampled sweep inside tier-1 time. */
CrashSweepConfig
sweepConfig(SchemeKind scheme, LoggingStyle style,
            const std::string &workload)
{
    CrashSweepConfig cfg;
    cfg.scheme = scheme;
    cfg.style = style;
    cfg.workload = workload;
    cfg.mix.numOps = 60;
    cfg.mix.valueBytes = 256;
    cfg.mix.seed = 42;
    cfg.mix.insertPct = 80;
    cfg.mix.updatePct = 12;
    cfg.mix.removePct = 8;
    cfg.maxPoints = 100;
    cfg.tinyCache = true;
    return cfg;
}

/** Sweep one scheme over both workloads; returns total points. */
std::size_t
expectCleanSweeps(SchemeKind scheme, LoggingStyle style,
                  std::uint64_t *replays_out = nullptr)
{
    std::size_t points = 0;
    std::uint64_t replays = 0;
    for (const std::string workload : {"hashtable", "rbtree"}) {
        const auto report =
            runCrashSweep(sweepConfig(scheme, style, workload));
        EXPECT_EQ(report.violationCount(), 0u)
            << report.violationsText();
        EXPECT_GE(report.pointsExplored(), 100u);
        points += report.pointsExplored();
        replays += report.replayedRecordsTotal();
    }
    if (replays_out)
        *replays_out = replays;
    return points;
}

TEST(CrashSweep, SlpmtUndoRecoversEverySampledPoint)
{
    std::uint64_t replays = 0;
    const std::size_t points =
        expectCleanSweeps(SchemeKind::SLPMT, LoggingStyle::Undo,
                          &replays);
    EXPECT_GE(points, 200u);
    // The sweep must exercise the hardware replay path, not just
    // crash points where the persistent log happens to be empty.
    EXPECT_GT(replays, 0u);
}

TEST(CrashSweep, FullLoggingUndoRecoversEverySampledPoint)
{
    std::uint64_t replays = 0;
    const std::size_t points =
        expectCleanSweeps(SchemeKind::FG, LoggingStyle::Undo,
                          &replays);
    EXPECT_GE(points, 200u);
    EXPECT_GT(replays, 0u);
}

TEST(CrashSweep, RedoStyleRecoversEverySampledPoint)
{
    const std::size_t points =
        expectCleanSweeps(SchemeKind::FG, LoggingStyle::Redo);
    EXPECT_GE(points, 200u);
}

TEST(CrashSweep, LazyCacheLineGrainRecoversEverySampledPoint)
{
    expectCleanSweeps(SchemeKind::SLPMT_CL, LoggingStyle::Undo);
}

/** Dedicated index-structure sweeps: the log-free skiplist and
 *  blinktree under a remove-bearing mix, across the logging baseline
 *  and the full hardware scheme in both styles. Removes matter here —
 *  they drive the unlink/unpublish paths whose final-store-commits
 *  contract the structures' crash consistency rests on. */
TEST(CrashSweep, IndexStructuresSurviveRemoveBearingSweeps)
{
    for (const auto &workload : indexWorkloads()) {
        for (SchemeKind scheme : {SchemeKind::FG, SchemeKind::SLPMT}) {
            for (LoggingStyle style :
                 {LoggingStyle::Undo, LoggingStyle::Redo}) {
                CrashSweepConfig cfg =
                    sweepConfig(scheme, style, workload);
                cfg.mix.numOps = 40;
                cfg.mix.insertPct = 55;
                cfg.mix.updatePct = 15;
                cfg.mix.removePct = 30;
                cfg.maxPoints = 40;
                const auto report = runCrashSweep(cfg);
                EXPECT_EQ(report.violationCount(), 0u)
                    << workload << "/" << schemeName(scheme) << ":\n"
                    << report.violationsText();
                EXPECT_GE(report.pointsExplored(), 40u) << workload;
            }
        }
    }
}

/** Broader, shallower pass: every registered workload survives a
 *  sampled sweep under the full SLPMT scheme. */
TEST(CrashSweep, EveryWorkloadSurvivesSampledCrashes)
{
    for (const auto &workload : allWorkloads()) {
        CrashSweepConfig cfg = sweepConfig(
            SchemeKind::SLPMT, LoggingStyle::Undo, workload);
        cfg.mix.numOps = 30;
        cfg.maxPoints = 25;
        const auto report = runCrashSweep(cfg);
        EXPECT_EQ(report.violationCount(), 0u)
            << workload << ":\n"
            << report.violationsText();
    }
}

/** The post-completion point (sentinel 0) crashes with lazily
 *  persistent data still volatile; user recovery must rebuild it. */
TEST(CrashSweep, PostCompletionCrashRecoversLazyData)
{
    const auto cfg = sweepConfig(SchemeKind::SLPMT,
                                 LoggingStyle::Undo, "hashtable");
    const auto out = runCrashPoint(cfg, 0);
    EXPECT_FALSE(out.fired);
    EXPECT_EQ(out.violations.size(), 0u);
    EXPECT_GT(out.committedOps, 0u);
}

/**
 * The heap's array growth frees the old array with the insert's
 * transaction. These points of the census trace (800 ops, 10/85/5,
 * 256 B values, tiny cache, seed 8) crash inside an insert that grows
 * the array. An in-transaction free let rollback swing the header back
 * to an array the allocator no longer held, so recovery's rebuild left
 * it out and the continuation inserts allocated over live entries.
 */
TEST(CrashSweep, HeapGrowthCrashKeepsTheOldArray)
{
    for (const SchemeKind scheme : {SchemeKind::SLPMT, SchemeKind::FG}) {
        CrashSweepConfig cfg;
        cfg.scheme = scheme;
        cfg.workload = "heap";
        cfg.mix = {.numOps = 800, .valueBytes = 256, .seed = 8,
                   .insertPct = 10, .updatePct = 85, .removePct = 5};
        cfg.tinyCache = true;
        for (std::uint64_t k = 3006; k <= 3015; ++k) {
            const auto out = runCrashPoint(cfg, k);
            EXPECT_TRUE(out.fired) << schemeName(scheme) << " point " << k;
            EXPECT_EQ(out.violations.size(), 0u)
                << schemeName(scheme) << " point " << k << ": "
                << (out.violations.empty() ? "" : out.violations[0]);
        }
    }
}

/**
 * Same sweep, 1 worker vs 4 workers: the violation report and every
 * per-point outcome must be bit-identical regardless of scheduling.
 * Wall times and speedup land in a JSON report for inspection.
 */
TEST(CrashSweep, ParallelSweepIsBitIdenticalToSerial)
{
    CrashSweepConfig serial_cfg =
        sweepConfig(SchemeKind::SLPMT, LoggingStyle::Undo, "rbtree");
    serial_cfg.workers = 1;
    CrashSweepConfig parallel_cfg = serial_cfg;
    parallel_cfg.workers = 4;

    const auto serial = runCrashSweep(serial_cfg);
    const auto parallel = runCrashSweep(parallel_cfg);

    EXPECT_EQ(serial.violationsText(), parallel.violationsText());
    ASSERT_EQ(serial.points.size(), parallel.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
        const auto &a = serial.points[i];
        const auto &b = parallel.points[i];
        EXPECT_EQ(a.crashPoint, b.crashPoint);
        EXPECT_EQ(a.fired, b.fired);
        EXPECT_EQ(a.committedOps, b.committedOps);
        EXPECT_EQ(a.replayedRecords, b.replayedRecords);
        EXPECT_EQ(a.stats, b.stats);
    }

    JsonWriter w;
    w.beginObject();
    w.key("serial_wall_ms").value(serial.wallMs);
    w.key("parallel_wall_ms").value(parallel.wallMs);
    w.key("speedup").value(parallel.wallMs > 0.0
                               ? serial.wallMs / parallel.wallMs
                               : 0.0);
    w.key("hardware_threads")
        .value(std::thread::hardware_concurrency());
    w.key("points").value(serial.points.size());
    w.endObject();
    std::ofstream("crash_sweep_determinism.json") << w.str() << "\n";
}

/**
 * Oracle discrimination: a recovery path with the hardware log replay
 * deliberately skipped must be caught. The FG/rbtree/tiny-cache sweep
 * is the one whose points genuinely depend on undo replay (dirty
 * rebalancing lines overflow to PM mid-transaction).
 */
TEST(CrashSweep, SkippedHardwareReplayIsCaught)
{
    CrashSweepConfig cfg =
        sweepConfig(SchemeKind::FG, LoggingStyle::Undo, "rbtree");
    cfg.skipHardwareReplay = true;
    const auto report = runCrashSweep(cfg);
    EXPECT_GT(report.violationCount(), 0u)
        << "a sweep with hardware recovery disabled reported clean -- "
           "the oracle discriminates nothing";

    // The printed tuple must reproduce in isolation.
    for (const auto &p : report.points) {
        if (p.violations.empty())
            continue;
        const auto again = runCrashPoint(cfg, p.crashPoint);
        EXPECT_EQ(again.violations, p.violations);
        break;
    }
}

/** Skipping the user-level (log-free / lazy data) recovery pass must
 *  equally be caught under selective logging. */
TEST(CrashSweep, SkippedUserRecoveryIsCaught)
{
    CrashSweepConfig cfg = sweepConfig(SchemeKind::SLPMT,
                                       LoggingStyle::Undo, "rbtree");
    cfg.skipUserRecovery = true;
    const auto report = runCrashSweep(cfg);
    EXPECT_GT(report.violationCount(), 0u)
        << "a sweep with user-level recovery disabled reported clean";
}

/**
 * A skipped recovery stage leaves structures corrupted in any way a
 * crash can. One AVL point here holds a cyclic tree, whose height
 * recomputation once overflowed the stack and whose lookup never
 * returned; both walks now end in an exception line. Every structure
 * must end every point under both broken recoveries.
 */
TEST(CrashSweep, BrokenRecoveryEndsEveryPointOnEveryStructure)
{
    for (const auto &workload : allWorkloads()) {
        for (const bool skip_user : {false, true}) {
            CrashSweepConfig cfg;
            cfg.workload = workload;
            cfg.tinyCache = true;
            cfg.mix.numOps = 300;
            cfg.mix.insertPct = 60;
            cfg.mix.updatePct = 25;
            cfg.mix.removePct = 15;
            cfg.mix.valueBytes = 64;
            cfg.mix.seed = 1;
            cfg.maxPoints = 20;
            cfg.skipHardwareReplay = true;
            cfg.skipUserRecovery = skip_user;
            const auto report = runCrashSweep(cfg);
            EXPECT_EQ(report.pointsExplored(), 21u)
                << workload << (skip_user ? " (no user recovery)" : "");
            if (workload == "avl") {
                EXPECT_NE(report.violationsText().find(
                              skip_user ? "lookup walks a cyclic tree"
                                        : "recovery walks a cyclic tree"),
                          std::string::npos)
                    << report.violationsText();
            }
        }
    }
}

TEST(CrashSweep, ReportJsonIsWellFormed)
{
    CrashSweepConfig cfg = sweepConfig(SchemeKind::SLPMT,
                                       LoggingStyle::Undo, "hashtable");
    cfg.mix.numOps = 10;
    cfg.maxPoints = 5;
    const auto report = runCrashSweep(cfg);
    const std::string json = report.toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"scheme\":\"SLPMT\""), std::string::npos);
    EXPECT_NE(json.find("\"violation_lines\":[]"), std::string::npos);
    EXPECT_NE(json.find("\"points\":["), std::string::npos);
}

// ---------------------------------------------------------------------
// Referee digests: FNV-1a over every per-point field of one sampled and
// one exhaustive sweep per target. pointFields (the summary, every
// point's fields and its violation lines) is pinned on every target;
// core and mc also pin their JSON report, whose summed machine
// counters pointFields leaves out. Each sweep runs serially and on
// three threads; both run the finished master's points over the pool.
// ---------------------------------------------------------------------

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Every field of every point, after the summary. */
std::string
pointFields(const CrashSweepReport &report)
{
    std::string text = report.summaryText();
    for (const auto &p : report.points) {
        text += std::to_string(p.crashPoint) + ' ' +
                std::to_string(p.fired) + ' ' +
                std::to_string(p.crashShard) + ' ' +
                std::to_string(p.committedOps) + ' ' +
                std::to_string(p.replayedRecords) + ' ' +
                std::to_string(p.violations.size()) + '\n';
        for (const auto &v : p.violations)
            text += v + '\n';
    }
    return text;
}

/** Run @p cfg's sweep on one and on three workers and compare its
 *  pointFields digest, and its JSON digest when @p json is given. */
template <class Config>
void
expectDigest(Config cfg, CrashSweepReport (*sweep)(const Config &),
             std::uint64_t fields, std::optional<std::uint64_t> json,
             std::size_t points)
{
    for (std::size_t workers : {1u, 3u}) {
        cfg.workers = workers;
        const CrashSweepReport report = sweep(cfg);
        EXPECT_EQ(report.pointsExplored(), points) << workers;
        EXPECT_EQ(fnv1a(pointFields(report)), fields)
            << "workers=" << workers << "\n"
            << report.summaryText();
        if (json) {
            EXPECT_EQ(fnv1a(report.toJson()), *json)
                << "workers=" << workers;
        }
    }
}

TEST(CrashSweepDigest, CoreReportsArePinned)
{
    CrashSweepConfig cfg;
    cfg.tinyCache = true;
    cfg.mix.valueBytes = 256;
    cfg.mix.seed = 42;
    cfg.checkpointInterval = 16;
    cfg.workload = "rbtree";
    cfg.mix.numOps = 40;
    cfg.maxPoints = 30;
    expectDigest(cfg, runCrashSweep, 0x6c39f46d8e6d33eeULL,
                 0x55053321d36a21fcULL, 31);

    cfg.scheme = SchemeKind::FG;
    cfg.workload = "hashtable";
    cfg.mix.numOps = 20;
    cfg.mix.insertPct = 70;
    cfg.mix.updatePct = 20;
    cfg.mix.removePct = 10;
    cfg.maxPoints = 0;
    expectDigest(cfg, runCrashSweep, 0xfa763219f93f64c8ULL,
                 0xd781d45e4457b941ULL, 147);

    // A sweep that reports violations pins the violation lines too.
    CrashSweepConfig broken;
    broken.scheme = SchemeKind::FG;
    broken.workload = "rbtree";
    broken.tinyCache = true;
    broken.mix.numOps = 60;
    broken.mix.valueBytes = 256;
    broken.mix.seed = 42;
    broken.maxPoints = 100;
    broken.skipHardwareReplay = true;
    expectDigest(broken, runCrashSweep, 0x852d07d798ed2731ULL,
                 0x6007850b6c6f46d4ULL, 101);
}

TEST(CrashSweepDigest, McReportsArePinned)
{
    McCrashSweepConfig cfg;
    cfg.tinyCache = true;
    cfg.run.workload = "hashtable";
    cfg.run.numCores = 2;
    cfg.run.seed = 42;
    cfg.run.sharedPct = 25;
    cfg.run.opsPerCore = 10;
    cfg.run.valueBytes = 128;
    cfg.maxPoints = 12;
    cfg.checkpointInterval = 24;
    expectDigest(cfg, runMcCrashSweep, 0x3746779dd01e4999ULL,
                 0xad93b98220b12febULL, 13);

    cfg.style = LoggingStyle::Redo;
    cfg.run.opsPerCore = 6;
    cfg.run.valueBytes = 32;
    cfg.maxPoints = 0;
    cfg.checkpointInterval = 16;
    expectDigest(cfg, runMcCrashSweep, 0x2edd749918812d08ULL,
                 0x9e729ff78110f700ULL, 93);
}

TEST(CrashSweepDigest, ServiceReportsArePinned)
{
    ServiceCrashConfig cfg;
    cfg.numShards = 2;
    cfg.tinyCache = true;
    cfg.checkpointInterval = 192;
    cfg.load.mix = YcsbMix::A;
    cfg.load.skew = KeySkew::Zipfian;
    cfg.load.keySpace = std::size_t{1} << 14;
    cfg.load.preloadRecords = 24;
    cfg.load.numOps = 48;
    cfg.load.valueBytesMin = 48;
    cfg.load.valueBytesMax = 96;
    cfg.load.seed = 5;
    cfg.maxPoints = 10;
    expectDigest(cfg, runServiceCrashSweep, 0xc4a5fe3fcf8090c8ULL,
                 std::nullopt, 11);

    cfg.load.preloadRecords = 8;
    cfg.load.numOps = 12;
    cfg.checkpointInterval = 64;
    cfg.maxPoints = 0;
    expectDigest(cfg, runServiceCrashSweep, 0x1da8060f006e0126ULL,
                 std::nullopt, 97);
}

// Sweeps past the hashtable's first resize (48 keys). Every recovery
// after it finds the resize journal set: at one point of each sweep a
// copy was lost and recovery merges the old table back, at every other
// it keeps the new table. The points' fields equal those of a recovery
// that merges every time; the core JSON digest, whose machine counters
// include recovery's stores, pins the keep.
TEST(CrashSweepDigest, ResizeCrossingReportsArePinned)
{
    CrashSweepConfig cfg;
    cfg.workload = "hashtable";
    cfg.tinyCache = true;
    cfg.mix.numOps = 70;
    cfg.mix.valueBytes = 32;
    cfg.mix.seed = 42;
    cfg.mix.insertPct = 80;
    cfg.mix.updatePct = 20;
    cfg.maxPoints = 0;
    expectDigest(cfg, runCrashSweep, 0x395eab470436841dULL,
                 0x3d724910d337f10cULL, 805);

    ServiceCrashConfig svc;
    svc.numShards = 2;
    svc.tinyCache = true;
    svc.checkpointInterval = 64;
    svc.load.mix = YcsbMix::A;
    svc.load.skew = KeySkew::Zipfian;
    svc.load.keySpace = std::size_t{1} << 14;
    svc.load.preloadRecords = 130;
    svc.load.numOps = 6;
    svc.load.valueBytesMin = 48;
    svc.load.valueBytesMax = 96;
    svc.load.seed = 5;
    svc.maxPoints = 30;
    expectDigest(svc, runServiceCrashSweep, 0x2b804b7ee35882fcULL,
                 std::nullopt, 31);
}

// ---------------------------------------------------------------------
// The engine's own violation lines, driven by fake targets whose
// primitives misbehave on purpose
// ---------------------------------------------------------------------

/** How a fake target's points misbehave. */
struct Misbehaviour
{
    bool leavesRecords = false;  //!< the second recovery replays 2 records
    bool oracleThrows = false;   //!< every oracle phase throws
    bool raggedStats = false;    //!< point 2 dumps one stats value too many
    bool repeatedName = false;   //!< the stat names repeat one name
    bool tailThrows = false;     //!< a walk bound for point 2 throws
};

/** A fake base: the engine stamps its store count. */
struct FakeBase final : SweepBase
{};

/** What the walkers and points of a fake target did. */
struct FakeCounts
{
    std::atomic<std::size_t> walkers{0};  //!< objects that walked
    std::atomic<std::size_t> points{0};   //!< objects forked into
    std::atomic<std::uint64_t> walked{0};  //!< stores the walkers ran
};

/**
 * A fake walker or point: a run of plain stores counted through its own
 * countdown register, so every armed point fires as on a machine, and
 * recovery, the oracle or the stats dump misbehave as its target asks.
 * Its two counters are named out of key order, so the report must sort
 * them.
 */
class FakePoint final : public SweepPoint
{
  public:
    FakePoint(const Misbehaviour &mis, std::uint64_t stores,
              FakeCounts &counts)
        : mis(mis), runStores(stores), counts(counts)
    {}

    void
    restore(const SweepBase *base) override
    {
        if (!walker)
            counts.walkers++;
        walker = true;
        at = base ? base->storesAt : 0;
        recoveries = 0;
    }

    /** A walk bound for point 2 throws at the top of store 2 and
     *  leaves the walker dirty (a recovery already counted), as a
     *  walker that fails part way leaves its machine; the next restore
     *  must clean it. */
    bool
    walk(SweepWalk &walk) override
    {
        walk.enter(countdown, at);
        try {
            for (; at < runStores; ++at) {
                if (mis.tailThrows && at + 1 == 2 && countdown.stores == 1) {
                    ++recoveries;
                    throw std::runtime_error("tail lost its trace");
                }
                if (countdown.stores > 0 && --countdown.stores == 0) {
                    if (!countdown.hook)
                        throw CrashInjected();
                    countdown.hook->atArmedStore();
                }
                ++counts.walked;
            }
        } catch (const CrashInjected &) {
            return true;
        }
        return false;
    }

    void
    forkFrom(SweepPoint &from) override
    {
        if (!forked)
            counts.points++;
        forked = true;
        const auto &walker = static_cast<const FakePoint &>(from);
        at = walker.at;
        recoveries = walker.recoveries;
        countdown = walker.countdown;
    }

    void
    progress(CrashPointOutcome &out) const override
    {
        out.committedOps = at;
    }

    void forEachMachine(const std::function<void(McMachine &)> &) override
    {}

    /** The first recovery replays 5 records; one that leaves records
     *  behind replays 2 more the second time. */
    std::size_t
    recover() override
    {
        return recoveries++ == 0 ? 5 : (mis.leavesRecords ? 2 : 0);
    }

    /** A copy that still carries an armed countdown is reported. */
    void
    check(OracleLines &lines) override
    {
        if (mis.oracleThrows)
            throw std::runtime_error("oracle lost its shadow");
        if (countdown.stores != 0)
            lines.add("the point carries an armed countdown");
    }

    void continueRun(std::size_t) override {}

    void checkContinuation(OracleLines &lines) override { check(lines); }

    void
    statNames(std::vector<std::string> &names) const override
    {
        names.push_back("fake.recoveries");
        names.push_back(mis.repeatedName ? "fake.recoveries"
                                         : "fake.crashPoint");
    }

    void
    stats(std::vector<std::uint64_t> &values) const override
    {
        values.push_back(recoveries);
        values.push_back(crashPoint);
        if (mis.raggedStats && crashPoint == 2)
            values.push_back(0);
    }

  private:
    const Misbehaviour mis;
    const std::uint64_t runStores;
    FakeCounts &counts;
    bool walker = false;  //!< counted among the walkers
    bool forked = false;  //!< counted among the points
    CrashCountdown countdown;
    std::uint64_t at = 0;  //!< stores done
    std::size_t recoveries = 0;
};

/** A fake target of @p stores stores (three by default), one per op:
 *  every store boundary may hold a base. */
class FakeTarget final : public SweepTarget
{
  public:
    explicit FakeTarget(const Misbehaviour &mis, std::uint64_t stores = 3)
        : SweepTarget(sweepIdentity("fake-sweep", SweepOptions{}, "fake", 9),
                      7),
          mis(mis), stores(stores)
    {}

    std::uint64_t
    runMaster(MasterSink &sink) override
    {
        for (std::uint64_t s = 0; s < stores; ++s)
            sink.boundary(s, sink.wantsBase(s) ? std::make_unique<FakeBase>()
                                               : nullptr);
        return stores;
    }

    std::unique_ptr<SweepPoint>
    newPoint() const override
    {
        return std::make_unique<FakePoint>(mis, stores, counts);
    }

    mutable FakeCounts counts;

  private:
    const Misbehaviour mis;
    const std::uint64_t stores;
};

TEST(SweepEngine, SecondRecoveryThatReplaysIsReported)
{
    FakeTarget target({.leavesRecords = true});
    const CrashSweepReport report = runSweep(target, SweepOptions{});
    ASSERT_EQ(report.pointsExplored(), 4u);
    for (const auto &p : report.points) {
        EXPECT_EQ(p.replayedRecords, 5u);
        EXPECT_EQ(p.violations,
                  std::vector<std::string>{
                      reproTuple(target.id, p.crashPoint) +
                      " idempotence: second hardware recovery replayed 2 "
                      "records"});
    }
    EXPECT_EQ(report.violationCount(), 4u);

    // A recovery that leaves nothing behind reports nothing.
    FakeTarget clean({});
    EXPECT_EQ(runSweep(clean, SweepOptions{}).violationCount(), 0u);
}

TEST(SweepEngine, ThrowingOracleIsReported)
{
    FakeTarget target({.oracleThrows = true});
    const CrashSweepReport report = runSweep(target, SweepOptions{});
    ASSERT_EQ(report.pointsExplored(), 4u);
    for (const auto &p : report.points) {
        EXPECT_EQ(p.fired, p.crashPoint != 0);
        EXPECT_EQ(p.violations,
                  std::vector<std::string>{
                      reproTuple(target.id, p.crashPoint) +
                      " exception: oracle lost its shadow"});
        EXPECT_TRUE(p.stats.empty());
    }
    EXPECT_NE(report.toJson().find("\"stats\":{}"), std::string::npos);
}

/** Each sweep thread keeps one walker and one point for every crash
 *  point it runs. A walker that throws on its way to a point leaves
 *  itself mid-run, and the points after it in its chunk still match
 *  their isolated runs, on one thread and on three, with a budget that
 *  covers every store and with maxPoints == 0. */
TEST(SweepEngine, PointAfterAThrowingTailMatchesItsIsolatedRun)
{
    SweepOptions serial;
    SweepOptions budgeted;
    budgeted.workers = 3;
    budgeted.maxPoints = 3;  // every store, through the strata's budget
    SweepOptions exhaustive;
    exhaustive.workers = 3;
    for (const SweepOptions &opts : {serial, budgeted, exhaustive}) {
        FakeTarget target({.tailThrows = true});
        const CrashSweepReport report = runSweep(target, opts);
        EXPECT_LE(target.counts.points.load(), opts.workers);
        EXPECT_LE(target.counts.walkers.load(), opts.workers);
        if (opts.workers == 1) {
            EXPECT_EQ(target.counts.points.load(), 1u);
            EXPECT_EQ(target.counts.walkers.load(), 1u);
        }
        for (const auto &p : report.points) {
            if (p.crashPoint == 2) {
                EXPECT_EQ(p.violations,
                          std::vector<std::string>{
                              reproTuple(target.id, 2) +
                              " exception: tail lost its trace"});
                continue;
            }
            const CrashPointOutcome alone =
                runSweepPoint(target, p.crashPoint);
            EXPECT_TRUE(p.violations.empty()) << p.crashPoint;
            EXPECT_EQ(p.fired, alone.fired);
            EXPECT_EQ(p.replayedRecords, alone.replayedRecords);
            EXPECT_EQ(p.violations, alone.violations);
            EXPECT_EQ(p.stats, alone.stats);
        }
    }
}

// ---------------------------------------------------------------------
// The walk: one walker per thread replays its chunk of points and
// forks each at its own store
// ---------------------------------------------------------------------

/** The stores a walker executes for @p points (one chunk) of a fake run
 *  of @p stores stores whose bases lie every @p interval stores, under
 *  the restore-ahead rule: walk on from the last point while its store
 *  lies past the next point's base, else restore that base. */
std::uint64_t
restoreAheadStores(const std::vector<std::uint64_t> &points,
                   std::uint64_t stores, std::uint64_t interval)
{
    std::uint64_t walked = 0;
    std::optional<std::uint64_t> at;  // the last point, walker still live
    for (std::uint64_t k : points) {
        const std::uint64_t base = (k == 0 ? stores - 1 : k - 1) /
                                   interval * interval;
        const std::uint64_t end = k == 0 ? stores + 1 : k;
        walked += at && base < *at ? end - *at : end - 1 - base;
        at = k;
    }
    return walked;
}

TEST(SweepWalk, RestoreAheadRulePinsTheWalkedStores)
{
    SweepOptions opts;
    opts.maxPoints = 12;
    opts.checkpointInterval = 16;
    FakeTarget target({}, 200);
    const CrashSweepReport report = runSweep(target, opts);
    ASSERT_EQ(report.pointsExplored(), 13u);  // one chunk
    EXPECT_EQ(report.violationCount(), 0u) << report.violationsText();

    std::vector<std::uint64_t> points;
    std::uint64_t tails = 0;  // each point's own tail from its base
    for (const auto &p : report.points) {
        points.push_back(p.crashPoint);
        const std::uint64_t k = p.crashPoint;
        tails += (k == 0 ? 200 : k - 1) - (k == 0 ? 199 : k - 1) / 16 * 16;
    }
    EXPECT_EQ(target.counts.walked.load(),
              restoreAheadStores(points, 200, 16));
    EXPECT_LT(target.counts.walked.load(), tails);
}

/** Past the throw, every later point of the chunk restores its own base
 *  and matches its isolated run. */
TEST(SweepWalk, PointsAfterAThrowingWalkerMatchTheirIsolatedRuns)
{
    SweepOptions opts;
    opts.checkpointInterval = 8;
    FakeTarget target({.tailThrows = true}, 40);
    const CrashSweepReport report = runSweep(target, opts);
    ASSERT_EQ(report.pointsExplored(), 41u);
    for (const auto &p : report.points) {
        const CrashPointOutcome alone = runSweepPoint(target, p.crashPoint);
        EXPECT_EQ(p.violations.empty(), p.crashPoint != 2) << p.crashPoint;
        EXPECT_EQ(p.fired, alone.fired) << p.crashPoint;
        EXPECT_EQ(p.committedOps, alone.committedOps) << p.crashPoint;
        EXPECT_EQ(p.replayedRecords, alone.replayedRecords);
        EXPECT_EQ(p.violations, alone.violations);
        EXPECT_EQ(p.stats, alone.stats);
    }
}

/** A base of MachineTarget: the machine and the workload before op
 *  nextOp. */
struct MachineBase final : SweepBase
{
    MachineBase(PmSystem &sys, const Workload &wl, std::size_t next_op)
        : machine(MachineCheckpoint::capture(sys)), workload(wl.clone()),
          nextOp(next_op)
    {}

    const MachineCheckpoint machine;
    const std::unique_ptr<const Workload> workload;
    const std::size_t nextOp;
};

/** Where MachineTarget's setup leaves a line of DRAM data. */
constexpr Addr dramLine = 0x10000;

/** The tiny-cache machine of MachineTarget. */
SystemConfig
machineConfig()
{
    CrashSweepConfig opts;
    opts.tinyCache = true;
    SystemConfig sc;
    applySweepOptions(sc, opts);
    return sc;
}

/**
 * A core-shaped walker or point built on a real machine: hashtable
 * inserts on a tiny-cache PmSystem whose setup leaves a line in the
 * DRAM image. Its oracle reports a DRAM image that outlived the power
 * failure and a fork whose copy carries an armed countdown, and checks
 * the inserted and continuation keys.
 */
class MachinePoint final : public SweepPoint
{
  public:
    explicit MachinePoint(const std::vector<YcsbOp> &ops) : ops(ops) {}

    void
    restore(const SweepBase *from) override
    {
        const auto *base = static_cast<const MachineBase *>(from);
        if (!base || !sys)
            sys.emplace(machineConfig());
        if (base) {
            base->machine.restore(*sys);
            wl = base->workload->clone();
            nextOp = base->nextOp;
            start = base->storesAt;
        } else {
            setupMachine(*sys, wl);
            nextOp = 0;
            start = 0;
        }
        armedAtFork = 0;
        fresh.clear();
    }

    bool
    walk(SweepWalk &walk) override
    {
        walk.enter(sys->countdown(), start);
        for (; nextOp < ops.size(); ++nextOp) {
            try {
                wl->insert(*sys, ops[nextOp].key, ops[nextOp].value);
            } catch (const CrashInjected &) {
                return true;
            }
        }
        return false;
    }

    void
    forkFrom(SweepPoint &from) override
    {
        auto &walker = static_cast<MachinePoint &>(from);
        if (!sys)
            sys.emplace(machineConfig());
        MachineCheckpoint::capture(*walker.sys).restore(*sys);
        wl = walker.wl->clone();
        nextOp = walker.nextOp;
        armedAtFork = sys->sharedCrashCountdown();
        fresh.clear();
    }

    void
    progress(CrashPointOutcome &out) const override
    {
        out.committedOps = nextOp;
    }

    void
    forEachMachine(const std::function<void(McMachine &)> &fn) override
    {
        fn(*sys);
    }

    std::size_t
    recover() override
    {
        const std::size_t replayed = sys->recoverHardware();
        wl->recover(*sys);
        return replayed;
    }

    void
    check(OracleLines &lines) override
    {
        if (sys->dram().memory().pageCount() != 0)
            lines.add("the DRAM image outlived the power failure");
        if (armedAtFork != 0)
            lines.add("the fork's copy carries an armed countdown");
        Shadow shadow = fresh;
        for (std::size_t i = 0; i < nextOp; ++i)
            shadow[ops[i].key] = ops[i].value;
        verifyStructure({*sys, *wl}, shadow, lines);
    }

    /** Inserts that a trap left in the copy would crash. */
    void
    continueRun(std::size_t n) override
    {
        fresh.clear();
        insertContinuation(*wl, fresh, 3, crashPoint, n, 32,
                           [&](std::size_t) -> PmContext & {
                               return *sys;
                           });
    }

    void checkContinuation(OracleLines &lines) override { check(lines); }

    void statNames(std::vector<std::string> &) const override {}
    void stats(std::vector<std::uint64_t> &) const override {}

    /** Fresh machine state: the hashtable set up, then one DRAM line
     *  written and flushed to the DRAM image. */
    static void
    setupMachine(PmSystem &sys, std::unique_ptr<Workload> &wl)
    {
        wl = makeWorkload("hashtable");
        wl->setup(sys);
        sys.write<std::uint64_t>(dramLine, 42);
        sys.quiesce();
    }

  private:
    const std::vector<YcsbOp> &ops;
    std::optional<PmSystem> sys;
    std::unique_ptr<Workload> wl;
    std::size_t nextOp = 0;
    std::uint64_t start = 0;
    std::uint64_t armedAtFork = 0;
    Shadow fresh;  //!< continueRun()'s keys
};

class MachineTarget final : public SweepTarget
{
  public:
    MachineTarget()
        : SweepTarget(sweepIdentity("machine-sweep", SweepOptions{},
                                    "hashtable", 3),
                      5),
          ops(ycsbLoad({.numOps = 30, .valueBytes = 32}))
    {}

    std::uint64_t
    runMaster(MasterSink &sink) override
    {
        PmSystem sys(machineConfig());
        std::unique_ptr<Workload> wl;
        MachinePoint::setupMachine(sys, wl);
        const std::uint64_t origin = sys.storesExecuted();
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const std::uint64_t stores = sys.storesExecuted() - origin;
            sink.boundary(stores, sink.wantsBase(stores)
                                      ? std::make_unique<MachineBase>(
                                            sys, *wl, i)
                                      : nullptr);
            wl->insert(sys, ops[i].key, ops[i].value);
        }
        return sys.storesExecuted() - origin;
    }

    std::unique_ptr<SweepPoint>
    newPoint() const override
    {
        return std::make_unique<MachinePoint>(ops);
    }

  private:
    const std::vector<YcsbOp> ops;
};

/**
 * The engine powers off every machine of a point, the one whose store
 * fired included (DRAM loses its image, not only the firing core's
 * caches), and a fork's copy carries no armed countdown, so its
 * continuation inserts complete. Both hold for forked points and for
 * the audit's walker crashing in place.
 */
TEST(SweepWalk, PointsPowerOffWholeMachinesAndCarryNoTrap)
{
    for (const bool forks : {true, false}) {
        for (const std::size_t workers : {1u, 3u}) {
            MachineTarget target;
            SweepOptions opts;
            opts.useCheckpoints = forks;
            opts.workers = workers;
            const CrashSweepReport report = runSweep(target, opts);
            EXPECT_GT(report.pointsExplored(), 100u);
            EXPECT_EQ(report.violationCount(), 0u)
                << report.violationsText();
            std::size_t fired = 0;
            for (const auto &p : report.points)
                fired += p.fired ? 1 : 0;
            EXPECT_EQ(fired, report.pointsExplored() - 1);
        }
    }
}

/** The per-step host times are disjoint slices of the points' time,
 *  so on one worker they fit inside the sweep's wall time, and the
 *  deterministic report never carries them. */
TEST(SweepEngine, StepTimesFitTheWallAndStayOutOfTheReport)
{
    FakeTarget target({});
    const CrashSweepReport report = runSweep(target, SweepOptions{});
    double sum = 0.0;
    for (double ms : report.stepMs) {
        EXPECT_GE(ms, 0.0);
        sum += ms;
    }
    EXPECT_LE(sum, report.wallMs);

    CrashSweepReport untimed = report;
    untimed.stepMs.fill(0.0);
    EXPECT_EQ(untimed.toJson(), report.toJson());
    EXPECT_EQ(untimed.summaryText(), report.summaryText());
}

/** Points keep only values against the sweep's one name table; a point
 *  whose dump does not fit the table, or a table that names one stat
 *  twice, becomes an exception line. */
TEST(SweepEngine, StatsThatMissTheNameTableAreReported)
{
    FakeTarget target({.raggedStats = true});
    const CrashSweepReport report = runSweep(target, SweepOptions{});
    ASSERT_EQ(report.pointsExplored(), 4u);
    EXPECT_EQ(report.statNames,
              (std::vector<std::string>{"fake.recoveries",
                                        "fake.crashPoint"}));
    for (const auto &p : report.points) {
        if (p.crashPoint == 2) {
            EXPECT_TRUE(p.stats.empty());
            EXPECT_EQ(p.violations,
                      std::vector<std::string>{
                          reproTuple(target.id, 2) +
                          " exception: panic: point dumped 3 stats values "
                          "for the sweep's 2 names"});
        } else {
            EXPECT_EQ(p.stats,
                      (std::vector<std::uint64_t>{2, p.crashPoint}));
            EXPECT_TRUE(p.violations.empty());
        }
    }
    // Points 1, 3 and 0 are summed by index, then named in key order.
    EXPECT_NE(report.toJson().find(
                  "\"stats\":{\"fake.crashPoint\":4,\"fake.recoveries\":6}"),
              std::string::npos)
        << report.toJson();

    FakeTarget repeated({.repeatedName = true});
    const CrashSweepReport rejected = runSweep(repeated, SweepOptions{});
    EXPECT_TRUE(rejected.statNames.empty());
    for (const auto &p : rejected.points)
        EXPECT_EQ(p.violations,
                  std::vector<std::string>{
                      reproTuple(repeated.id, p.crashPoint) +
                      " exception: panic: stat 'fake.recoveries' appears "
                      "twice in the sweep's name table"});
}

// ---------------------------------------------------------------------
// Ticket pool: workers draw item indices from one atomic ticket
// ---------------------------------------------------------------------

TEST(WorkQueue, EveryItemRunsExactlyOnce)
{
    for (std::size_t workers : {1u, 2u, 3u, 4u, 8u}) {
        constexpr std::size_t n = 500;
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h = 0;
        parallelFor(workers, n,
                    [&](std::size_t, std::size_t i) { hits[i]++; });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1)
                << "item " << i << " with " << workers << " workers";
    }
}

/** A worker index names one thread: it is below the worker count and
 *  never runs two items at once, so per-worker state (the sweep
 *  engine's points) needs no lock. */
TEST(WorkQueue, WorkerIndexNamesOneThread)
{
    for (std::size_t workers : {1u, 3u, 4u}) {
        std::vector<std::atomic<int>> busy(workers);
        for (auto &b : busy)
            b = 0;
        std::atomic<std::size_t> clashes{0};
        std::atomic<std::size_t> outOfRange{0};
        parallelFor(workers, 200, [&](std::size_t w, std::size_t) {
            if (w >= workers) {
                outOfRange++;
                return;
            }
            if (busy[w]++ != 0)
                clashes++;
            std::this_thread::yield();
            busy[w]--;
        });
        EXPECT_EQ(outOfRange.load(), 0u) << workers << " workers";
        EXPECT_EQ(clashes.load(), 0u) << workers << " workers";
    }
}

TEST(WorkQueue, UnevenItemCostsStillComplete)
{
    constexpr std::size_t n = 64;
    std::atomic<std::size_t> done{0};
    parallelFor(4, n, [&](std::size_t, std::size_t i) {
        // Front-loaded cost: the other workers drain the cheap items.
        volatile std::uint64_t x = 0;
        for (std::size_t k = 0; k < (i < 4 ? 200000u : 100u); ++k)
            x = x + k;
        done++;
    });
    EXPECT_EQ(done.load(), n);
}

/** More workers than items: the pool starts one thread per item at
 *  most, the calling thread included, so every worker index is below
 *  the item count; one worker runs everything on the caller. */
TEST(WorkQueue, WorkersBeyondTheItemCountAreNotStarted)
{
    constexpr std::size_t n = 3;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h = 0;
    std::atomic<std::size_t> outOfRange{0};
    parallelFor(8, n, [&](std::size_t w, std::size_t i) {
        if (w >= n)
            outOfRange++;
        hits[i]++;
    });
    EXPECT_EQ(outOfRange.load(), 0u);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "item " << i;

    const std::thread::id caller = std::this_thread::get_id();
    std::size_t elsewhere = 0;
    parallelFor(1, n, [&](std::size_t w, std::size_t) {
        if (w != 0 || std::this_thread::get_id() != caller)
            ++elsewhere;
    });
    EXPECT_EQ(elsewhere, 0u);
}

TEST(WorkQueue, ZeroAndSingleItemEdgeCases)
{
    std::atomic<std::size_t> done{0};
    parallelFor(4, 0, [&](std::size_t, std::size_t) { done++; });
    EXPECT_EQ(done.load(), 0u);
    parallelFor(4, 1, [&](std::size_t, std::size_t) { done++; });
    EXPECT_EQ(done.load(), 1u);
}

// ---------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------

TEST(JsonWriter, ObjectsArraysAndEscapes)
{
    JsonWriter w;
    w.beginObject();
    w.key("name").value("a\"b\\c\nd");
    w.key("n").value(std::uint64_t{42});
    w.key("pi").value(3.5);
    w.key("ok").value(true);
    w.key("list").beginArray().value(1ULL).value(2ULL).endArray();
    w.key("nested").beginObject().key("x").value(false).endObject();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"name\":\"a\\\"b\\\\c\\nd\",\"n\":42,\"pi\":3.500,"
              "\"ok\":true,\"list\":[1,2],\"nested\":{\"x\":false}}");
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
