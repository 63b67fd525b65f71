/**
 * @file
 * The sharded KV service: router determinism and partition
 * correctness, the 1-shard-vs-plain-machine differential anchor,
 * whole-run determinism and verification across shard counts, core
 * counts and schemes, pinned placement after frees, and the
 * ExperimentConfig dispatch bridge.
 */

#include <gtest/gtest.h>

#include <set>

#include "service/service.hh"
#include "sim/experiment.hh"
#include "workloads/factory.hh"

namespace slpmt
{
namespace
{

LoadGenConfig
smallLoad(YcsbMix mix = YcsbMix::A)
{
    LoadGenConfig load;
    load.mix = mix;
    load.skew = KeySkew::Zipfian;
    load.keySpace = std::size_t{1} << 16;
    load.preloadRecords = 120;
    load.numOps = 400;
    load.valueBytesMin = 48;
    load.valueBytesMax = 128;
    load.seed = 7;
    return load;
}

ServiceConfig
smallService(std::size_t shards, YcsbMix mix = YcsbMix::A)
{
    ServiceConfig cfg;
    cfg.numShards = shards;
    cfg.load = smallLoad(mix);
    return cfg;
}

/** Expanded request count: scans count once per swept record. */
std::size_t
expandedOps(const std::vector<SvcOp> &ops)
{
    std::size_t n = 0;
    for (const SvcOp &op : ops)
        n += op.kind == SvcOpKind::Scan ? op.scanLen : 1;
    return n;
}

TEST(ServiceRouter, SameSeedYieldsByteIdenticalShardStreams)
{
    const LoadGenConfig load_cfg = smallLoad();
    const SvcLoad a = svcGenerate(load_cfg);
    const SvcLoad b = svcGenerate(load_cfg);
    const ShardRouter router(4);
    const auto sa = routeOps(router, a.ops, a.keySalt);
    const auto sb = routeOps(router, b.ops, b.keySalt);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t s = 0; s < sa.size(); ++s)
        EXPECT_EQ(sa[s], sb[s]) << "shard " << s;
}

TEST(ServiceRouter, EveryKeyRoutesToExactlyOneShard)
{
    const SvcLoad load = svcGenerate(smallLoad(YcsbMix::E));
    const ShardRouter router(4);
    const auto streams = routeOps(router, load.ops, load.keySalt);

    // Partition is complete: nothing dropped, nothing duplicated.
    std::size_t total = 0;
    for (const auto &stream : streams)
        total += stream.size();
    EXPECT_EQ(total, expandedOps(load.ops));

    // And consistent: every op sits on the shard its key hashes to,
    // under any identically-configured router.
    const ShardRouter twin(4);
    for (std::size_t s = 0; s < streams.size(); ++s) {
        for (const ShardOp &op : streams[s]) {
            EXPECT_EQ(router.shardOf(op.key), s);
            EXPECT_EQ(twin.shardOf(op.key), s);
        }
    }

    // Distinct salts repartition: at least one key moves.
    const ShardRouter salted(4, 0x1234);
    bool moved = false;
    for (const auto &stream : streams)
        for (const ShardOp &op : stream)
            moved |= salted.shardOf(op.key) != router.shardOf(op.key);
    EXPECT_TRUE(moved);
}

TEST(ServiceRouter, ReShardingToSameCountIsANoOp)
{
    const SvcLoad load = svcGenerate(smallLoad());
    const ShardRouter router(3);
    const auto streams = routeOps(router, load.ops, load.keySalt);
    // Re-partition each shard's stream with a fresh identical router:
    // every op must stay put.
    for (std::size_t s = 0; s < streams.size(); ++s) {
        const ShardRouter again(3);
        for (const ShardOp &op : streams[s])
            EXPECT_EQ(again.shardOf(op.key), s)
                << "re-shard moved key " << op.key;
    }
}

TEST(ServiceRouter, RejectsZeroShards)
{
    EXPECT_THROW(ShardRouter(0), PanicError);
}

// The differential anchor: a 1-shard service run is bit-identical to
// executing the same routed stream on a plain McMachine — same PM
// image, same machine statistics.
TEST(ServiceDifferential, OneShardServiceEqualsPlainMachineRun)
{
    const ServiceConfig cfg = smallService(1);
    const KvServiceResult res = runService(cfg);
    ASSERT_TRUE(res.verified) << res.failure;
    ASSERT_EQ(res.shardImageFp.size(), 1u);

    // Replay: one machine, the identical routed stream.
    const SvcLoad load = svcGenerate(cfg.load);
    const ShardRouter router(1, cfg.routerSalt);
    const auto preload = routeOps(router, load.preload, load.keySalt);
    const auto stream = routeOps(router, load.ops, load.keySalt);

    SystemConfig sys_cfg = cfg.sys;
    sys_cfg.numCores = 1;
    McMachine machine(sys_cfg);
    auto wl = makeWorkload(cfg.workload);
    wl->setup(machine.context(0));
    for (const ShardOp &op : preload[0])
        applyShardOp(machine.context(0), *wl, op);
    for (const ShardOp &op : stream[0])
        applyShardOp(machine.context(0), *wl, op);

    EXPECT_EQ(pmImageFingerprint(machine), res.shardImageFp[0]);
    EXPECT_EQ(machine.snapshot(), res.shardSnapshots[0]);
}

TEST(ServiceRun, VerifiesAcrossShardCountsAndConservesOps)
{
    const SvcLoad load = svcGenerate(smallLoad());
    const std::size_t expanded = expandedOps(load.ops);
    for (std::size_t shards : {1, 2, 4}) {
        const KvServiceResult res = runService(smallService(shards));
        EXPECT_TRUE(res.verified)
            << shards << " shards: " << res.failure;
        ASSERT_EQ(res.shardOps.size(), shards);
        std::size_t total = 0;
        Cycles slowest = 0;
        for (std::size_t s = 0; s < shards; ++s) {
            total += res.shardOps[s];
            slowest = std::max(slowest, res.shardCycles[s]);
        }
        EXPECT_EQ(total, expanded) << shards << " shards";
        EXPECT_EQ(res.makespan, slowest) << shards << " shards";
        EXPECT_GT(res.makespan, 0u);
        EXPECT_EQ(res.stats.at("service.shardOps"), expanded);
        EXPECT_EQ(res.stats.at("service.latency.count"), expanded);
    }
}

TEST(ServiceRun, RerunsAreByteIdentical)
{
    const ServiceConfig cfg = smallService(2, YcsbMix::B);
    const KvServiceResult a = runService(cfg);
    const KvServiceResult b = runService(cfg);
    ASSERT_TRUE(a.verified) << a.failure;
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.shardImageFp, b.shardImageFp);
    EXPECT_EQ(a.shardSnapshots, b.shardSnapshots);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(ServiceRun, MulticoreShardsVerifyAndStayDeterministic)
{
    ServiceConfig cfg = smallService(2);
    cfg.coresPerShard = 2;
    const KvServiceResult a = runService(cfg);
    EXPECT_TRUE(a.verified) << a.failure;
    const KvServiceResult b = runService(cfg);
    EXPECT_EQ(a.shardImageFp, b.shardImageFp);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(ServiceRun, VerifiesAcrossSchemesAndMixes)
{
    for (const SchemeKind scheme :
         {SchemeKind::FG, SchemeKind::SLPMT}) {
        for (const YcsbMix mix :
             {YcsbMix::A, YcsbMix::D, YcsbMix::F}) {
            ServiceConfig cfg = smallService(2, mix);
            cfg.load.numOps = 200;
            cfg.sys.scheme = SchemeConfig::forKind(scheme);
            const KvServiceResult res = runService(cfg);
            EXPECT_TRUE(res.verified)
                << schemeName(scheme) << "/" << ycsbMixName(mix)
                << ": " << res.failure;
        }
    }
}

TEST(ServiceRun, LatencyPercentileGaugesAreOrdered)
{
    const KvServiceResult res = runService(smallService(2));
    ASSERT_TRUE(res.verified) << res.failure;
    const std::uint64_t p50 = res.stats.at("service.latency.p50");
    const std::uint64_t p99 = res.stats.at("service.latency.p99");
    const std::uint64_t p999 = res.stats.at("service.latency.p999");
    EXPECT_GT(p50, 0u);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, p999);
    EXPECT_LE(res.stats.at("service.commitLatency.p50"),
              res.stats.at("service.commitLatency.p999"));
    EXPECT_GT(res.stats.at("service.opsPerGcycle"), 0u);
}

/**
 * A small kv-service-shaped run whose updates free and reuse value
 * blobs: hashtable, 2 shards x 2 cores, YCSB-A Zipfian 0.99 with hot-key
 * churn and 64-256 B values. Each update allocates the new blob before
 * freeing the old one, so first fit's placement in the holes decides
 * which lines the later stores touch.
 */
KvServiceResult
placementRun(SchemeKind scheme)
{
    ServiceConfig cfg;
    cfg.workload = "hashtable";
    cfg.numShards = 2;
    cfg.coresPerShard = 2;
    cfg.load.mix = YcsbMix::A;
    cfg.load.skew = KeySkew::Zipfian;
    cfg.load.zipfThetaBp = 9900;
    cfg.load.preloadRecords = 2000;
    cfg.load.numOps = 3000;
    cfg.load.valueBytesMin = 64;
    cfg.load.valueBytesMax = 256;
    cfg.load.churnInterval = 500;
    cfg.load.seed = 5;
    cfg.sys.scheme = SchemeConfig::forKind(scheme);
    return runService(cfg);
}

struct PinnedRun
{
    Cycles makespan;
    std::vector<Cycles> shardCycles;
    std::uint64_t pmBytesWritten;  //!< summed over shards
    std::vector<std::uint64_t> shardImageFp;
};

void
expectPinned(SchemeKind scheme, const PinnedRun &pin)
{
    const KvServiceResult res = placementRun(scheme);
    ASSERT_TRUE(res.verified) << res.failure;
    EXPECT_GT(res.stats.at("shard0.heap.frees"), 0u);
    EXPECT_EQ(res.makespan, pin.makespan);
    EXPECT_EQ(res.shardCycles, pin.shardCycles);
    EXPECT_EQ(res.stats.at("shard0.pm.bytesWritten") +
                  res.stats.at("shard1.pm.bytesWritten"),
              pin.pmBytesWritten);
    EXPECT_EQ(res.shardImageFp, pin.shardImageFp);
}

// Placement after frees, pinned: the golden figures come from
// insert-only runs, so these are the numbers that catch an allocator
// change that picks another hole. Recorded with the linear first-fit
// walk the free-range index replaced.
TEST(ServicePlacement, FgRunAfterFreesMatchesPinnedValues)
{
    expectPinned(SchemeKind::FG,
                 {6781251,
                  {6403769, 6781251},
                  366648 + 447320,
                  {0xaf11392239134ed8ULL, 0xb6c1e989d435ad80ULL}});
}

TEST(ServicePlacement, SlpmtRunAfterFreesMatchesPinnedValues)
{
    expectPinned(SchemeKind::SLPMT,
                 {4791771,
                  {4538532, 4791771},
                  233760 + 282896,
                  {0x14399c8e68191603ULL, 0x7e185fc0f9cee768ULL}});
}

TEST(ServiceExperiment, DispatchesServiceCellsAndMapsMetrics)
{
    ExperimentConfig cfg;
    cfg.scheme = SchemeKind::SLPMT;
    cfg.ycsb.numOps = 300;
    cfg.ycsb.valueBytes = 96;
    cfg.ycsb.seed = 11;
    cfg.service.shards = 2;
    cfg.service.mix = 0;  // YCSB A
    cfg.service.zipfian = true;
    cfg.service.keySpace = std::size_t{1} << 16;
    cfg.service.preloadRecords = 100;
    cfg.service.valueBytesMin = 48;

    const ExperimentResult res = runExperiment("hashtable", cfg);
    EXPECT_TRUE(res.verified) << res.failure;
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.commits, 0u);
    EXPECT_GT(res.pmWriteBytes, 0u);
    EXPECT_TRUE(res.stats.count("service.latency.p50"));
    EXPECT_TRUE(res.stats.count("service.commitLatency.p999"));
    EXPECT_EQ(res.stats.at("service.requests"), cfg.ycsb.numOps);

    // The bridge reports the service makespan as the cell's cycles.
    EXPECT_EQ(res.cycles, res.stats.at("service.makespanCycles"));

    // And reruns of the experiment are byte-identical too.
    const ExperimentResult again = runExperiment("hashtable", cfg);
    EXPECT_EQ(res.cycles, again.cycles);
    EXPECT_EQ(res.stats, again.stats);
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
