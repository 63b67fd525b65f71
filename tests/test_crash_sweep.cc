/**
 * @file
 * Tests of the crash-sweep engine and its core target: clean sampled
 * sweeps over every scheme family (the recovery guarantee),
 * bit-identical parallel determinism, oracle discrimination against
 * deliberately broken recovery paths, pinned report digests for every
 * target, the engine's own violation lines under fake targets, and the
 * underlying work-stealing queue and JSON writer.
 */

#include <atomic>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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
// one exhaustive sweep per target (the JSON report for core and mc;
// the point fields plus the summary for service), recorded before the
// three targets shared one engine. Each sweep runs serially and on
// three threads, which takes the pipelined path when exhaustive.
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

/** Every field of every service point, after the summary. */
std::string
serviceFields(const CrashSweepReport &report)
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

template <class Config, class Digest>
void
expectDigest(Config cfg, CrashSweepReport (*sweep)(const Config &),
             Digest digest, std::uint64_t expected, std::size_t points)
{
    for (std::size_t workers : {1u, 3u}) {
        cfg.workers = workers;
        const CrashSweepReport report = sweep(cfg);
        EXPECT_EQ(report.pointsExplored(), points) << workers;
        EXPECT_EQ(fnv1a(digest(report)), expected)
            << "workers=" << workers << "\n"
            << report.summaryText();
    }
}

std::string
jsonOf(const CrashSweepReport &report)
{
    return report.toJson();
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
    expectDigest(cfg, runCrashSweep, jsonOf, 0xcd68298f61b4c468ULL, 31);

    cfg.scheme = SchemeKind::FG;
    cfg.workload = "hashtable";
    cfg.mix.numOps = 20;
    cfg.mix.insertPct = 70;
    cfg.mix.updatePct = 20;
    cfg.mix.removePct = 10;
    cfg.maxPoints = 0;
    expectDigest(cfg, runCrashSweep, jsonOf, 0xbdeebe896e355936ULL, 147);

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
    expectDigest(broken, runCrashSweep, jsonOf, 0x35ad053b48a7c3e2ULL,
                 101);
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
    expectDigest(cfg, runMcCrashSweep, jsonOf, 0x653cfe77d3aebbc6ULL, 13);

    cfg.style = LoggingStyle::Redo;
    cfg.run.opsPerCore = 6;
    cfg.run.valueBytes = 32;
    cfg.maxPoints = 0;
    cfg.checkpointInterval = 16;
    expectDigest(cfg, runMcCrashSweep, jsonOf, 0xd750be011cdd0c21ULL, 93);
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
    expectDigest(cfg, runServiceCrashSweep, serviceFields,
                 0xc4a5fe3fcf8090c8ULL, 11);

    cfg.load.preloadRecords = 8;
    cfg.load.numOps = 12;
    cfg.checkpointInterval = 64;
    cfg.maxPoints = 0;
    expectDigest(cfg, runServiceCrashSweep, serviceFields,
                 0x1da8060f006e0126ULL, 97);
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
};

/** A fake point: every armed point fires, and recovery, the oracle or
 *  the stats dump misbehaves as its target asks. Its two counters are
 *  named out of key order, so the report must sort them. */
class FakePoint final : public SweepPoint
{
  public:
    FakePoint(const Misbehaviour &mis, std::uint64_t crash_point)
        : mis(mis), crashPoint(crash_point)
    {}

    bool
    tail(CrashPointOutcome &out) override
    {
        out.fired = out.crashPoint != 0;
        return true;
    }

    /** The first recovery replays 5 records; one that leaves records
     *  behind replays 2 more the second time. */
    std::size_t
    recover() override
    {
        return recoveries++ == 0 ? 5 : (mis.leavesRecords ? 2 : 0);
    }

    void
    check(OracleLines &) override
    {
        if (mis.oracleThrows)
            throw std::runtime_error("oracle lost its shadow");
    }

    void continueRun(std::size_t, OracleLines &) override {}

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
    const std::uint64_t crashPoint;
    std::size_t recoveries = 0;
};

/** A three-store fake target with one boundary at the run's start. */
class FakeTarget final : public SweepTarget
{
  public:
    explicit FakeTarget(const Misbehaviour &mis)
        : SweepTarget(sweepIdentity("fake-sweep", SweepOptions{}, "fake", 9),
                      7),
          mis(mis)
    {}

    std::uint64_t
    runMaster(MasterSink &sink) override
    {
        sink.boundary(0, nullptr);
        return 3;
    }

    std::unique_ptr<SweepPoint>
    fork(const SweepBase *, std::uint64_t crash_point) const override
    {
        return std::make_unique<FakePoint>(mis, crash_point);
    }

  private:
    const Misbehaviour mis;
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
// Work-stealing queue
// ---------------------------------------------------------------------

TEST(WorkQueue, EveryItemRunsExactlyOnce)
{
    for (std::size_t workers : {1u, 2u, 3u, 4u, 8u}) {
        constexpr std::size_t n = 500;
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h = 0;
        runWorkStealing(workers, n,
                        [&](std::size_t i) { hits[i]++; });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1)
                << "item " << i << " with " << workers << " workers";
    }
}

TEST(WorkQueue, UnevenItemCostsStillComplete)
{
    constexpr std::size_t n = 64;
    std::atomic<std::size_t> done{0};
    runWorkStealing(4, n, [&](std::size_t i) {
        // Front-loaded cost: stealing from the busy worker matters.
        volatile std::uint64_t x = 0;
        for (std::size_t k = 0; k < (i < 4 ? 200000u : 100u); ++k)
            x += k;
        done++;
    });
    EXPECT_EQ(done.load(), n);
}

TEST(WorkQueue, ZeroAndSingleItemEdgeCases)
{
    std::atomic<std::size_t> done{0};
    runWorkStealing(4, 0, [&](std::size_t) { done++; });
    EXPECT_EQ(done.load(), 0u);
    runWorkStealing(4, 1, [&](std::size_t) { done++; });
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
