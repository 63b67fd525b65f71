/**
 * @file
 * Unit tests for the cache array and the inclusive three-level
 * hierarchy: geometry, LRU, inclusion, SLPMT metadata aggregation /
 * replication across levels (Figure 5), eviction hooks, and crash
 * behaviour.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "cache/hierarchy.hh"
#include "stats/stats.hh"

namespace slpmt
{
namespace
{

TEST(CacheLine, AggregateLogBits)
{
    EXPECT_EQ(aggregateLogBits(0x00), 0x0);
    EXPECT_EQ(aggregateLogBits(0xFF), 0x3);
    EXPECT_EQ(aggregateLogBits(0x0F), 0x1);
    EXPECT_EQ(aggregateLogBits(0xF0), 0x2);
    // Partially set groups aggregate to zero (conjunction).
    EXPECT_EQ(aggregateLogBits(0x07), 0x0);
    EXPECT_EQ(aggregateLogBits(0x7F), 0x1);
}

TEST(CacheLine, ReplicateLogBits)
{
    EXPECT_EQ(replicateLogBits(0x0), 0x00);
    EXPECT_EQ(replicateLogBits(0x3), 0xFF);
    EXPECT_EQ(replicateLogBits(0x1), 0x0F);
    EXPECT_EQ(replicateLogBits(0x2), 0xF0);
}

TEST(CacheLine, AggregateReplicateRoundTripOnFullGroups)
{
    for (std::uint8_t l2 = 0; l2 < 4; ++l2)
        EXPECT_EQ(aggregateLogBits(replicateLogBits(l2)), l2);
}

TEST(Cache, GeometryFromConfig)
{
    Cache l1(CacheConfig{"L1", 32 * 1024, 8, 4});
    EXPECT_EQ(l1.sets(), 64u);
    EXPECT_EQ(l1.ways(), 8u);
    Cache l2(CacheConfig{"L2", 256 * 1024, 4, 12});
    EXPECT_EQ(l2.sets(), 1024u);
    Cache l3(CacheConfig{"L3", 2 * 1024 * 1024, 16, 40});
    EXPECT_EQ(l3.sets(), 2048u);
}

TEST(Cache, LruVictimSelection)
{
    Cache c(CacheConfig{"c", 2 * cacheLineSize, 2, 1});  // 1 set, 2 ways
    CacheLine &a = c.victimFor(0x0);
    c.fillFrame(a, 0x0, MesiState::Exclusive);
    c.touch(a);
    CacheLine &b = c.victimFor(0x40);
    c.fillFrame(b, 0x40, MesiState::Exclusive);
    c.touch(b);
    // Touch A again: B becomes LRU.
    c.touch(*c.find(0x0));
    EXPECT_EQ(&c.victimFor(0x80), c.find(0x40));
}

TEST(Cache, VictimForPrefersFirstInvalidWay)
{
    Cache c(CacheConfig{"c", 4 * cacheLineSize, 4, 1});  // 1 set, 4 ways
    // Fill ways 0 and 1; ways 2 and 3 stay invalid.
    for (Addr a : {Addr{0x0}, Addr{0x40}}) {
        CacheLine &line = c.victimFor(a);
        c.fillFrame(line, a, MesiState::Exclusive);
        c.touch(line);
    }
    // The first invalid way (way 2) wins, not the LRU valid way.
    CacheLine &v1 = c.victimFor(0x80);
    EXPECT_FALSE(v1.valid());
    c.fillFrame(v1, 0x80, MesiState::Exclusive);
    CacheLine &v2 = c.victimFor(0xC0);
    EXPECT_FALSE(v2.valid());
    EXPECT_NE(&v1, &v2);
    EXPECT_EQ(&v2, &v1 + 1);  // ways are scanned lowest-first
}

TEST(Cache, VictimForBreaksLruTiesByLowestWay)
{
    Cache c(CacheConfig{"c", 2 * cacheLineSize, 2, 1});
    // Both ways valid with equal (default-zero) timestamps: the strict
    // less-than comparison keeps the first-scanned, lowest way.
    for (Addr a : {Addr{0x0}, Addr{0x40}}) {
        CacheLine &line = c.victimFor(a);
        c.fillFrame(line, a, MesiState::Exclusive);
    }
    EXPECT_EQ(&c.victimFor(0x80), c.find(0x0));
}

TEST(Cache, ProbeKeysTrackFillAndInvalidate)
{
    Cache c(CacheConfig{"c", 2 * cacheLineSize, 2, 1});
    std::string why;
    EXPECT_TRUE(c.checkProbeKeys(&why)) << why;
    CacheLine &a = c.victimFor(0x40);
    c.fillFrame(a, 0x40, MesiState::Exclusive);
    EXPECT_TRUE(c.checkProbeKeys(&why)) << why;
    EXPECT_EQ(c.find(0x40), &a);
    c.invalidateFrame(a);
    EXPECT_TRUE(c.checkProbeKeys(&why)) << why;
    EXPECT_EQ(c.find(0x40), nullptr);
    // A stale direct mutation is what the audit exists to catch.
    c.fillFrame(a, 0x40, MesiState::Exclusive);
    a.state = MesiState::Invalid;  // bypasses invalidateFrame()
    EXPECT_FALSE(c.checkProbeKeys(&why));
    EXPECT_FALSE(why.empty());
}

TEST(Cache, ConstFindMatchesMutableFind)
{
    Cache c(CacheConfig{"c", 2 * cacheLineSize, 2, 1});
    CacheLine &a = c.victimFor(0x40);
    c.fillFrame(a, 0x40, MesiState::Shared);
    const Cache &cc = c;
    EXPECT_EQ(cc.find(0x40), c.find(0x40));
    EXPECT_EQ(cc.find(0x40), &a);
    EXPECT_EQ(cc.find(0x0), nullptr);
    // Offsets within the line resolve to the same frame.
    EXPECT_EQ(cc.find(0x7F), &a);
}

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
        : pm(PmConfig{}, stats, tracker),
          dram(DramConfig{}, stats),
          l3(HierarchyConfig{}.l3),
          hier(HierarchyConfig{}, map, pm, dram, stats, l3)
    {
    }

    Addr pmAddr(Addr off = 0) const { return map.heapBase() + off; }

    StatsRegistry stats;
    PersistTracker tracker;
    AddressMap map;
    PmDevice pm;
    DramDevice dram;
    Cache l3;
    CacheHierarchy hier;
};

TEST_F(HierarchyTest, FirstAccessMissesEverywhere)
{
    const auto res = hier.access(pmAddr(), false, 0);
    ASSERT_NE(res.line, nullptr);
    EXPECT_EQ(stats.get("cache.l1Misses"), 1u);
    EXPECT_EQ(stats.get("cache.l2Misses"), 1u);
    EXPECT_EQ(stats.get("cache.l3Misses"), 1u);
    EXPECT_EQ(stats.get("pm.reads"), 1u);
    // Latency includes all levels plus the device.
    EXPECT_GE(res.latency, 4u + 12u + 40u + nsToCycles(150));
}

TEST_F(HierarchyTest, SecondAccessHitsL1)
{
    hier.access(pmAddr(), false, 0);
    const auto res = hier.access(pmAddr(), false, 100);
    EXPECT_EQ(res.latency, 4u);
    EXPECT_EQ(stats.get("cache.l1Hits"), 1u);
}

TEST_F(HierarchyTest, InclusionL1ImpliesL2AndL3)
{
    hier.access(pmAddr(), true, 0);
    EXPECT_NE(hier.l1().find(pmAddr()), nullptr);
    EXPECT_NE(hier.l2().find(pmAddr()), nullptr);
    EXPECT_NE(hier.l3().find(pmAddr()), nullptr);
}

TEST_F(HierarchyTest, WriteMarksDirtyAndModified)
{
    const auto res = hier.access(pmAddr(), true, 0);
    EXPECT_TRUE(res.line->dirty);
    EXPECT_EQ(res.line->state, MesiState::Modified);
}

TEST_F(HierarchyTest, MetadataMovesUpOnPromotion)
{
    // Put a line into L2 with metadata by writing it in L1 and
    // evicting; then refetch and check the L1 metadata is replicated.
    auto res = hier.access(pmAddr(), true, 0);
    res.line->persistBit = true;
    res.line->logBits = 0xFF;
    res.line->txnId = 2;
    res.line->txnSeq = 77;
    hier.noteMetaUpdate(*res.line);

    // Force the L1 set to evict the line: L1 has 64 sets * 8 ways;
    // lines mapping to the same set are 64*64 bytes apart.
    const Addr stride = 64 * cacheLineSize;
    for (int i = 1; i <= 8; ++i)
        hier.access(pmAddr(i * stride), false, 0);
    EXPECT_EQ(hier.l1().find(pmAddr()), nullptr);

    const CacheLine *l2_line = hier.l2().find(pmAddr());
    ASSERT_NE(l2_line, nullptr);
    EXPECT_TRUE(l2_line->persistBit);
    EXPECT_EQ(l2_line->logBits, 0x3);  // aggregated
    EXPECT_EQ(l2_line->txnId, 2);

    // Refetch into L1: metadata replicates back and leaves L2.
    auto back = hier.access(pmAddr(), false, 0);
    EXPECT_TRUE(back.line->persistBit);
    EXPECT_EQ(back.line->logBits, 0xFF);
    EXPECT_EQ(back.line->txnId, 2);
    EXPECT_EQ(back.line->txnSeq, 77u);
    EXPECT_EQ(hier.l2().find(pmAddr())->logBits, 0);
    EXPECT_EQ(hier.l2().find(pmAddr())->txnId, noTxnId);
}

TEST_F(HierarchyTest, PartialLogBitsLostOnAggregation)
{
    // Only 3 of 4 words in a group logged: the L2 bit is zero and the
    // refetched L1 map is empty (the duplicate-logging case of
    // Section III-B1).
    auto res = hier.access(pmAddr(), true, 0);
    res.line->logBits = 0x07;
    hier.noteMetaUpdate(*res.line);
    const Addr stride = 64 * cacheLineSize;
    for (int i = 1; i <= 8; ++i)
        hier.access(pmAddr(i * stride), false, 0);
    const auto back = hier.access(pmAddr(), false, 0);
    EXPECT_EQ(back.line->logBits, 0x00);
}

/** Eviction client recording callbacks (bound via the devirtualized
 *  setEvictionClient — no interface class to inherit). */
class RecordingClient
{
  public:
    Cycles
    evictingPrivateLine(CacheLine &line, Cycles)
    {
        evicted.push_back(line.tag);
        return 0;
    }

    std::pair<Cycles, std::uint8_t>
    roundUpLogBits(CacheLine &, std::uint8_t missing, Cycles)
    {
        offered.push_back(missing);
        return {0, missing};  // round everything up
    }

    std::vector<Addr> evicted;
    std::vector<std::uint8_t> offered;
};

TEST_F(HierarchyTest, PrivateEvictionHookFiresForMetadataLines)
{
    RecordingClient client;
    hier.setEvictionClient(&client);

    auto res = hier.access(pmAddr(), true, 0);
    res.line->persistBit = true;
    res.line->txnId = 1;
    hier.noteMetaUpdate(*res.line);

    // Evict from L1 into L2 (no hook yet), then from L2 into L3.
    const Addr l1_stride = 64 * cacheLineSize;
    for (int i = 1; i <= 8; ++i)
        hier.access(pmAddr(i * l1_stride), false, 0);
    EXPECT_TRUE(client.evicted.empty());

    const Addr l2_stride = 1024 * cacheLineSize;
    for (int i = 1; i <= 4; ++i)
        hier.access(pmAddr(i * l2_stride), true, 0);
    ASSERT_EQ(client.evicted.size(), 1u);
    EXPECT_EQ(client.evicted[0], pmAddr());
}

TEST_F(HierarchyTest, SpeculativeRoundingOfferedOnPartialGroups)
{
    RecordingClient client;
    hier.setEvictionClient(&client);
    hier.setSpeculativeRounding(true);

    auto res = hier.access(pmAddr(), true, 0);
    res.line->logBits = 0x07;  // missing word 3 in the low group
    res.line->txnId = 0;
    hier.noteMetaUpdate(*res.line);
    const Addr stride = 64 * cacheLineSize;
    for (int i = 1; i <= 8; ++i)
        hier.access(pmAddr(i * stride), false, 0);
    ASSERT_EQ(client.offered.size(), 1u);
    EXPECT_EQ(client.offered[0], 0x08);
    // Rounded up: the L2 line carries the aggregated low-group bit.
    EXPECT_EQ(hier.l2().find(pmAddr())->logBits, 0x1);
}

TEST_F(HierarchyTest, DataSurvivesFullEvictionChain)
{
    auto res = hier.access(pmAddr(), true, 0);
    res.line->data[5] = 0xAB;
    // Thrash L1+L2+L3 enough to push the line to PM.
    hier.flushAll(0);
    EXPECT_EQ(hier.l1().find(pmAddr()), nullptr);
    std::uint8_t b = 0;
    pm.peek(pmAddr() + 5, &b, 1);
    EXPECT_EQ(b, 0xAB);
}

TEST_F(HierarchyTest, PersistPrivateLineSyncsLowerCopies)
{
    auto res = hier.access(pmAddr(), true, 0);
    res.line->data[0] = 0x42;
    hier.persistPrivateLine(*res.line, PersistKind::LoggedLine, 0);
    EXPECT_FALSE(res.line->dirty);
    std::uint8_t b = 0;
    pm.peek(pmAddr(), &b, 1);
    EXPECT_EQ(b, 0x42);
    // The L3 copy matches and is clean (no double writeback later).
    const CacheLine *l3_line = hier.l3().find(pmAddr());
    ASSERT_NE(l3_line, nullptr);
    EXPECT_FALSE(l3_line->dirty);
    EXPECT_EQ(l3_line->data[0], 0x42);
}

TEST_F(HierarchyTest, CrashDropsAllCaches)
{
    auto res = hier.access(pmAddr(), true, 0);
    res.line->data[0] = 0x42;
    hier.crash();
    EXPECT_EQ(hier.l1().find(pmAddr()), nullptr);
    EXPECT_EQ(hier.l2().find(pmAddr()), nullptr);
    EXPECT_EQ(hier.l3().find(pmAddr()), nullptr);
    std::uint8_t b = 0;
    pm.peek(pmAddr(), &b, 1);
    EXPECT_EQ(b, 0x00);  // the dirty write never reached PM
}

TEST_F(HierarchyTest, ForEachPrivateVisitsEachMetadataLineOnce)
{
    auto a = hier.access(pmAddr(0), true, 0);
    a.line->txnId = 0;
    hier.noteMetaUpdate(*a.line);
    auto b = hier.access(pmAddr(64), true, 0);
    b.line->persistBit = true;
    hier.noteMetaUpdate(*b.line);
    // A cached line without transactional metadata is skipped: no
    // sweep acts on such lines.
    hier.access(pmAddr(128), true, 0);

    std::size_t visits = 0;
    hier.forEachPrivate([&](CacheLine &line) {
        EXPECT_TRUE(line.hasTxnMeta());
        ++visits;
    });
    // Each metadata line visited exactly once even though copies
    // exist in both L1 and L2.
    EXPECT_EQ(visits, 2u);

    std::string why;
    EXPECT_TRUE(hier.verifyMetaIndex(&why)) << why;
}

TEST_F(HierarchyTest, DramAddressesUseDramDevice)
{
    const Addr dram_addr = 0x1000;  // in the DRAM range
    hier.access(dram_addr, true, 0);
    hier.flushAll(0);
    EXPECT_EQ(stats.get("dram.writes"), 1u);
}

TEST_F(HierarchyTest, ReadWriteBytesSpanLines)
{
    std::uint8_t data[100];
    for (std::size_t i = 0; i < sizeof(data); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    hier.writeBytes(pmAddr(30), data, sizeof(data), 0);
    std::uint8_t out[100] = {};
    hier.readBytes(pmAddr(30), out, sizeof(out), 0);
    EXPECT_EQ(std::memcmp(out, data, sizeof(data)), 0);
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
