/**
 * @file
 * SoA-layout differential suite.
 *
 * PR 10 replaced the AoS cache (tag/LRU/meta links inside CacheLine,
 * pointer-linked metadata index) with SoA sibling arrays and
 * index-based links. The retained cross-check is the layout audit
 * (SystemConfig::layoutAudit): a forced-On machine recomputes the
 * probe-key and metadata-index arrays from the architectural lines on
 * every index walk and panics on any divergence, while a forced-Off
 * machine never does. This suite asserts the two modes are
 * behaviourally byte-identical — reports, stats, PM images,
 * checkpoint encodings — over every figure cell, seeded random
 * machine traces, and a sampled crash sweep, and that the pipelined
 * exhaustive tail-replay sweeps of every target (core, mc, service)
 * match their from-scratch audit path bit for bit.
 */

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/checkpoint.hh"
#include "multicore/mc_crash.hh"
#include "service/service_crash.hh"
#include "sim/figures.hh"
#include "validate/crash_explorer.hh"

namespace slpmt
{
namespace
{

/** Every observable of one experiment run, flattened for equality. */
std::string
resultFingerprint(const ExperimentResult &r)
{
    std::ostringstream os;
    os << r.workload << '|' << static_cast<int>(r.scheme) << '|'
       << r.cycles << '|' << r.pmWriteBytes << '|' << r.pmDataBytes
       << '|' << r.pmLogBytes << '|' << r.commits << '|'
       << r.logRecords << '|' << r.verified << '|' << r.failure;
    for (const auto &[name, value] : r.stats)
        os << '|' << name << '=' << value;
    return os.str();
}

/** Shrink a figure cell so the whole registry stays tier-1 sized
 *  (the differential compares the two audit modes against each
 *  other, not against golden figure reports, so trimming is safe). */
ExperimentConfig
trimmed(ExperimentConfig cfg)
{
    cfg.ycsb.numOps = std::min<std::size_t>(cfg.ycsb.numOps, 120);
    if (cfg.service.shards > 0) {
        cfg.service.preloadRecords =
            std::min<std::size_t>(cfg.service.preloadRecords, 64);
        cfg.service.keySpace =
            std::min<std::size_t>(cfg.service.keySpace, 1u << 12);
    }
    return cfg;
}

ExperimentResult
runWithAudit(const ExperimentCase &c, LayoutAudit audit)
{
    ExperimentConfig cfg = trimmed(c.cfg);
    cfg.layoutAudit = audit;
    return runExperiment(c.workload, cfg);
}

TEST(LayoutDiff, EveryFigureCellMatchesAcrossAuditModes)
{
    std::size_t cells = 0;
    for (const FigureSpec &fig : figureRegistry()) {
        for (const ExperimentCase &c : fig.cases()) {
            const ExperimentResult off =
                runWithAudit(c, LayoutAudit::Off);
            const ExperimentResult on =
                runWithAudit(c, LayoutAudit::On);
            EXPECT_TRUE(on.verified)
                << fig.name << '/' << c.key << ": " << on.failure;
            EXPECT_EQ(resultFingerprint(off), resultFingerprint(on))
                << fig.name << '/' << c.key;
            ++cells;
        }
    }
    // The registry must actually cover the paper's figure space.
    EXPECT_GE(cells, 40u);
}

/** Drive one machine through a seeded transactional store trace. */
std::vector<std::uint8_t>
traceImage(std::uint64_t seed, LayoutAudit audit)
{
    SystemConfig sc;
    sc.layoutAudit = audit;
    PmSystem sys(sc);

    const Addr base = sys.map().heapBase() + 8192;
    std::mt19937_64 rng(seed);
    for (int txn = 0; txn < 40; ++txn) {
        sys.txBegin();
        for (int s = 0; s < 8; ++s) {
            const std::uint64_t value = rng();
            const Addr addr = base + (rng() % 4096) * 8;
            sys.writeBytes(addr, &value, sizeof(value));
        }
        // A sprinkling of aborts exercises the undo path too.
        if (txn % 9 == 4)
            sys.txAbort();
        else
            sys.txCommit();
    }
    sys.quiesce();
    return MachineCheckpoint::capture(sys).toBytes();
}

TEST(LayoutDiff, RandomTracesProduceIdenticalCheckpointEncodings)
{
    // The portable checkpoint encoding covers every architectural
    // register plus the PM and DRAM page images and the config
    // fingerprint, so blob equality is machine-state byte-identity.
    for (const std::uint64_t seed : {7ull, 1234ull, 987654321ull})
        EXPECT_EQ(traceImage(seed, LayoutAudit::Off),
                  traceImage(seed, LayoutAudit::On))
            << "seed " << seed;
}

CrashSweepConfig
diffSweepConfig()
{
    CrashSweepConfig cfg;
    cfg.scheme = SchemeKind::SLPMT;
    cfg.style = LoggingStyle::Undo;
    cfg.workload = "rbtree";
    cfg.mix.numOps = 40;
    cfg.mix.valueBytes = 256;
    cfg.mix.seed = 42;
    cfg.mix.insertPct = 80;
    cfg.mix.updatePct = 12;
    cfg.mix.removePct = 8;
    cfg.tinyCache = true;
    cfg.workers = 2;
    cfg.checkpointInterval = 16;
    return cfg;
}

TEST(LayoutDiff, SampledSweepReportMatchesAcrossAuditModes)
{
    CrashSweepConfig cfg = diffSweepConfig();
    cfg.maxPoints = 24;

    cfg.layoutAudit = LayoutAudit::Off;
    const CrashSweepReport off = runCrashSweep(cfg);
    cfg.layoutAudit = LayoutAudit::On;
    const CrashSweepReport on = runCrashSweep(cfg);

    EXPECT_EQ(off.violationCount(), 0u) << off.violationsText();
    EXPECT_EQ(off.toJson(), on.toJson());
}

/**
 * maxPoints == 0 with checkpoints and two or more workers takes the
 * pipelined tail-replay path: the master publishes bases while tail
 * threads fork and replay points concurrently. The from-scratch audit
 * sweep of the same target is the reference; the reports, and every
 * point's victim shard, must match.
 */
template <class Config>
void
expectPipelinedMatchesScratch(Config cfg,
                              CrashSweepReport (*sweep)(const Config &),
                              std::size_t workers)
{
    cfg.maxPoints = 0;
    cfg.workers = workers;
    cfg.useCheckpoints = true;
    const CrashSweepReport pipelined = sweep(cfg);
    cfg.useCheckpoints = false;
    const CrashSweepReport scratch = sweep(cfg);

    EXPECT_EQ(pipelined.violationCount(), 0u)
        << pipelined.violationsText();
    EXPECT_GT(pipelined.pointsExplored(), 10u);
    EXPECT_EQ(pipelined.toJson(), scratch.toJson());
    ASSERT_EQ(pipelined.points.size(), scratch.points.size());
    for (std::size_t i = 0; i < pipelined.points.size(); ++i)
        EXPECT_EQ(pipelined.points[i].crashShard,
                  scratch.points[i].crashShard);
}

TEST(LayoutDiff, PipelinedExhaustiveSweepMatchesFromScratch)
{
    CrashSweepConfig cfg = diffSweepConfig();
    cfg.mix.numOps = 24;
    expectPipelinedMatchesScratch(cfg, runCrashSweep, 3);
}

TEST(LayoutDiff, McPipelinedExhaustiveSweepMatchesFromScratch)
{
    McCrashSweepConfig cfg;
    cfg.scheme = SchemeKind::SLPMT;
    cfg.style = LoggingStyle::Undo;
    cfg.run.workload = "hashtable";
    cfg.run.numCores = 2;
    cfg.run.opsPerCore = 12;
    cfg.run.valueBytes = 128;
    cfg.run.seed = 42;
    cfg.run.sharedPct = 25;
    cfg.tinyCache = true;
    cfg.checkpointInterval = 16;
    expectPipelinedMatchesScratch(cfg, runMcCrashSweep, 2);
}

TEST(LayoutDiff, ServicePipelinedExhaustiveSweepMatchesFromScratch)
{
    ServiceCrashConfig cfg;
    cfg.numShards = 2;
    cfg.tinyCache = true;
    cfg.checkpointInterval = 16;
    cfg.load.keySpace = std::size_t{1} << 14;
    cfg.load.preloadRecords = 8;
    cfg.load.numOps = 16;
    cfg.load.valueBytesMin = 48;
    cfg.load.valueBytesMax = 96;
    cfg.load.seed = 5;
    expectPipelinedMatchesScratch(cfg, runServiceCrashSweep, 3);
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
