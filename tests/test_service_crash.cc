/**
 * @file
 * Service-level crash coverage (suite ServiceCrash, which the
 * service-smoke, asan-service, asan-crash-sweep and tsan-pools presets
 * run): sampled power-failure sweeps over a multi-shard service under
 * load, checkpoint-vs-audit report equality, worker independence, and
 * single-point repro.
 */

#include <gtest/gtest.h>

#include <set>

#include "service/service_crash.hh"

namespace slpmt
{
namespace
{

ServiceCrashConfig
smallSweep(SchemeKind scheme = SchemeKind::SLPMT)
{
    ServiceCrashConfig cfg;
    cfg.scheme = scheme;
    cfg.numShards = 2;
    cfg.tinyCache = true;
    cfg.maxPoints = 18;
    cfg.checkpointInterval = 192;
    cfg.load.mix = YcsbMix::A;
    cfg.load.skew = KeySkew::Zipfian;
    cfg.load.keySpace = std::size_t{1} << 14;
    cfg.load.preloadRecords = 24;
    cfg.load.numOps = 48;
    cfg.load.valueBytesMin = 48;
    cfg.load.valueBytesMax = 96;
    cfg.load.seed = 5;
    return cfg;
}

void
expectClean(const ServiceCrashSweepReport &report)
{
    EXPECT_EQ(report.violationCount(), 0u) << report.violationsText();
    EXPECT_GT(report.pointsExplored(), 0u);
    EXPECT_GT(report.traceStores, 0u);
    EXPECT_GT(report.traceOps, 0u);
    // Mid-load points must actually have fired the injected failure
    // (the post-completion point legitimately reports fired = false).
    std::size_t fired = 0;
    for (const auto &point : report.points)
        fired += point.fired ? 1 : 0;
    EXPECT_GT(fired, 0u);
}

TEST(ServiceCrash, SampledSweepRecoversEveryShardUnderSlpmt)
{
    expectClean(runServiceCrashSweep(smallSweep(SchemeKind::SLPMT)));
}

// Hashtable upserts have write sets small enough to commit without
// spilling undo records even under the tiny cache, so the replay
// assertion runs on rbtree: rebalancing txns evict mid-transaction
// and recovery must replay persisted log records.
TEST(ServiceCrash, RbtreeSweepExercisesHardwareReplay)
{
    ServiceCrashConfig cfg = smallSweep(SchemeKind::SLPMT);
    cfg.workload = "rbtree";
    cfg.load.preloadRecords = 48;
    cfg.load.numOps = 96;
    cfg.load.valueBytesMin = 192;
    cfg.load.valueBytesMax = 256;
    // Every store: the replaying points cluster inside the few
    // rebalancing transactions, so sampling could miss them all.
    cfg.maxPoints = 0;
    const ServiceCrashSweepReport report = runServiceCrashSweep(cfg);
    expectClean(report);
    EXPECT_GT(report.replayedRecordsTotal(), 0u);
}

/** The log-free index structures as service backends: sharded YCSB
 *  traffic with mid-request power failures must recover to exactly
 *  the acknowledged state on every shard. */
TEST(ServiceCrash, IndexBackendsSurviveSampledSweeps)
{
    for (const std::string workload : {"skiplist", "blinktree"}) {
        ServiceCrashConfig cfg = smallSweep(SchemeKind::SLPMT);
        cfg.workload = workload;
        cfg.maxPoints = 12;
        const ServiceCrashSweepReport report =
            runServiceCrashSweep(cfg);
        expectClean(report);
        EXPECT_GT(report.pointsExplored(), 2u) << workload;
    }
}

TEST(ServiceCrash, SampledSweepRecoversUnderFineGrained)
{
    expectClean(runServiceCrashSweep(smallSweep(SchemeKind::FG)));
}

TEST(ServiceCrash, FourShardSweepStaysClean)
{
    ServiceCrashConfig cfg = smallSweep();
    cfg.numShards = 4;
    cfg.maxPoints = 12;
    const ServiceCrashSweepReport report = runServiceCrashSweep(cfg);
    expectClean(report);
    // With four shards the sampled points should land on more than
    // one victim shard.
    std::set<std::size_t> victims;
    for (const auto &point : report.points)
        if (point.fired)
            victims.insert(point.crashShard);
    EXPECT_GE(victims.size(), 2u);
}

// Checkpoint-and-fork vs from-scratch audit: restores are bit-exact,
// so the two modes must produce byte-identical reports.
TEST(ServiceCrash, CheckpointAndAuditReportsMatch)
{
    ServiceCrashConfig cfg = smallSweep();
    cfg.maxPoints = 10;

    cfg.useCheckpoints = true;
    const ServiceCrashSweepReport fast = runServiceCrashSweep(cfg);
    cfg.useCheckpoints = false;
    const ServiceCrashSweepReport audit = runServiceCrashSweep(cfg);

    EXPECT_EQ(fast.summaryText(), audit.summaryText());
    EXPECT_EQ(fast.traceStores, audit.traceStores);
    ASSERT_EQ(fast.points.size(), audit.points.size());
    for (std::size_t i = 0; i < fast.points.size(); ++i) {
        EXPECT_EQ(fast.points[i].crashPoint,
                  audit.points[i].crashPoint);
        EXPECT_EQ(fast.points[i].fired, audit.points[i].fired);
        EXPECT_EQ(fast.points[i].crashShard,
                  audit.points[i].crashShard);
        EXPECT_EQ(fast.points[i].committedOps,
                  audit.points[i].committedOps);
        EXPECT_EQ(fast.points[i].replayedRecords,
                  audit.points[i].replayedRecords);
        EXPECT_EQ(fast.points[i].violations,
                  audit.points[i].violations);
    }
}

TEST(ServiceCrash, ReportIsIndependentOfWorkerCount)
{
    ServiceCrashConfig cfg = smallSweep();
    cfg.maxPoints = 10;
    cfg.workers = 1;
    const ServiceCrashSweepReport serial = runServiceCrashSweep(cfg);
    cfg.workers = 4;
    const ServiceCrashSweepReport parallel = runServiceCrashSweep(cfg);
    EXPECT_EQ(serial.summaryText(), parallel.summaryText());
    EXPECT_EQ(serial.violationCount(), parallel.violationCount());
    EXPECT_EQ(serial.replayedRecordsTotal(),
              parallel.replayedRecordsTotal());
}

TEST(ServiceCrash, SinglePointReproMatchesSweepOutcome)
{
    const ServiceCrashConfig cfg = smallSweep();
    const ServiceCrashSweepReport report = runServiceCrashSweep(cfg);
    ASSERT_GT(report.points.size(), 1u);
    // Re-run a fired mid-load point in isolation.
    for (const auto &point : report.points) {
        if (!point.fired)
            continue;
        const ServiceCrashPointOutcome again =
            runServiceCrashPoint(cfg, point.crashPoint);
        EXPECT_EQ(again.fired, point.fired);
        EXPECT_EQ(again.crashShard, point.crashShard);
        EXPECT_EQ(again.committedOps, point.committedOps);
        EXPECT_EQ(again.replayedRecords, point.replayedRecords);
        EXPECT_EQ(again.violations, point.violations);
        break;
    }
}

// A point past the run's last store arms the last request, whose
// crash cannot fire: the repro reports that instead of indexing past
// the end of the run.
TEST(ServiceCrash, PointPastTheLastStoreReportsAnUnfiredCrash)
{
    ServiceCrashConfig cfg = smallSweep();
    cfg.maxPoints = 1;
    const std::uint64_t stores = runServiceCrashSweep(cfg).traceStores;
    const ServiceCrashPointOutcome out =
        runServiceCrashPoint(cfg, stores + 5);
    EXPECT_FALSE(out.fired);
    ASSERT_FALSE(out.violations.empty());
    EXPECT_NE(out.violations.front().find("armed crash did not fire"),
              std::string::npos)
        << out.violations.front();
}

// Redo-style logging takes the same sweep.
TEST(ServiceCrash, RedoStyleSweepStaysClean)
{
    ServiceCrashConfig cfg = smallSweep();
    cfg.style = LoggingStyle::Redo;
    cfg.maxPoints = 10;
    expectClean(runServiceCrashSweep(cfg));
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
