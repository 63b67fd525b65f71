/**
 * @file
 * Unit tests for the cache array and the inclusive three-level
 * hierarchy: geometry, LRU, inclusion, SLPMT metadata aggregation /
 * replication across levels (Figure 5), eviction hooks, and crash
 * behaviour. The array contract — a frame is defined only while its
 * probe key is valid, and the walks see exactly the valid frames in
 * frame order — is checked against a reference model of a Table
 * III-sized array.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <random>
#include <vector>

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

TEST(CacheLine, DetachedLineKeepsItsDefaults)
{
    // Only a Cache's frames skip construction; a line built on its own
    // is invalid, clean and owned by no transaction.
    CacheLine line;
    EXPECT_FALSE(line.valid());
    EXPECT_FALSE(line.dirty);
    EXPECT_FALSE(line.hasTxnMeta());
    EXPECT_EQ(line.tag, 0u);
    EXPECT_EQ(line.txnSeq, 0u);
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

TEST(Cache, FreshTableIIIArraysHoldNothing)
{
    const HierarchyConfig t3;
    for (const CacheConfig &cfg : {t3.l1, t3.l2, t3.l3}) {
        Cache c(cfg);
        for (Addr a : {Addr{0x0}, Addr{0x40}, Addr{0x1234540}})
            EXPECT_EQ(c.find(a), nullptr) << cfg.name;
        EXPECT_EQ(c.countIf([](const CacheLine &) { return true; }), 0u);
        std::size_t visits = 0;
        c.forEachValid([&](CacheLine &) { ++visits; });
        EXPECT_EQ(visits, 0u);
        EXPECT_EQ(c.metaLineCount(), 0u);
        std::string why;
        EXPECT_TRUE(c.checkProbeKeys(&why)) << why;
        EXPECT_TRUE(c.checkMetaIndex(&why)) << why;

        // The first victim is way 0 of its set, handed out blank.
        CacheLine &v = c.victimFor(0x1234540);
        EXPECT_EQ(c.frameIndex(v) % cfg.ways, 0u);
        EXPECT_FALSE(v.valid());
        EXPECT_FALSE(v.dirty);
        EXPECT_FALSE(v.hasTxnMeta());

        // Its state holds the clock and no frame.
        const Cache::State s = c.state();
        EXPECT_EQ(s.useClock, 0u);
        EXPECT_TRUE(s.frames.empty());
    }
}

/** A valid frame as the reference model sees it. */
struct ModelLine
{
    Addr tag;
    bool persistBit;
    std::uint8_t logBits;
    std::uint8_t txnId;
    std::uint64_t lastUse;
};

/**
 * Drive a Table III L2-sized array (1,024 sets of 4 ways) through a
 * seeded mix of fills, invalidations, metadata changes and
 * invalidateAll(), with a reference model beside it: every victim is
 * the model's (lowest invalid way, else LRU, lowest way on a tie), and
 * every walk, the captured state and a restore see exactly the model's
 * valid frames in frame order.
 */
TEST(Cache, SeededMixMatchesReferenceModel)
{
    const CacheConfig cfg{"L2", 256 * 1024, 4, 12};
    Cache c(cfg);
    std::map<std::size_t, ModelLine> model;  //!< frame id -> line
    std::uint64_t clock = 0;
    std::mt19937_64 rng(26);

    // 48 sets spread over the array, 8 candidate lines each, so sets
    // fill, evict and empty while most sets stay empty.
    auto pick = [&] {
        const Addr set = (rng() % 48) * 21;
        const Addr way = rng() % 8;
        return (set + way * 1024) * cacheLineSize;
    };
    auto randomValid = [&] {
        return std::next(model.begin(),
                         static_cast<std::ptrdiff_t>(rng() % model.size()));
    };
    auto expectedVictim = [&](Addr addr) {
        const std::size_t first =
            static_cast<std::size_t>(addr / cacheLineSize % c.sets()) *
            cfg.ways;
        std::size_t victim = first;
        for (std::size_t f = first; f < first + cfg.ways; ++f) {
            if (!model.count(f))
                return f;
            if (model.at(f).lastUse < model.at(victim).lastUse)
                victim = f;
        }
        return victim;
    };

    // Every walk over @p cache must see exactly the model.
    auto expectModel = [&](Cache &cache, const char *what) {
        std::vector<std::size_t> walked;
        cache.forEachValid([&](CacheLine &line) {
            walked.push_back(cache.frameIndex(line));
        });
        std::vector<std::size_t> expect;
        std::size_t with_meta = 0;
        for (const auto &[f, m] : model) {
            expect.push_back(f);
            const CacheLine &line = cache.lineAt(f);
            EXPECT_EQ(line.tag, m.tag) << what;
            EXPECT_EQ(line.persistBit, m.persistBit) << what;
            EXPECT_EQ(line.logBits, m.logBits) << what;
            EXPECT_EQ(line.txnId, m.txnId) << what;
            EXPECT_EQ(cache.lastUse(line), m.lastUse) << what;
            with_meta += line.hasTxnMeta() ? 1 : 0;
        }
        EXPECT_EQ(walked, expect) << what;
        EXPECT_EQ(cache.countIf([](const CacheLine &) { return true; }),
                  model.size())
            << what;
        EXPECT_EQ(cache.countIf(
                      [](const CacheLine &l) { return l.hasTxnMeta(); }),
                  with_meta)
            << what;
        EXPECT_EQ(cache.metaLineCount(), with_meta) << what;
        std::string why;
        EXPECT_TRUE(cache.checkProbeKeys(&why)) << what << ": " << why;
        EXPECT_TRUE(cache.checkMetaIndex(&why)) << what << ": " << why;
    };

    for (int step = 0; step < 6000; ++step) {
        const std::uint64_t op = rng() % 100;
        if (op < 55 || model.empty()) {
            const Addr addr = pick();
            if (CacheLine *hit = c.find(addr)) {
                c.touch(*hit);
                model.at(c.frameIndex(*hit)).lastUse = ++clock;
                continue;
            }
            CacheLine &frame = c.victimFor(addr);
            const std::size_t f = c.frameIndex(frame);
            ASSERT_EQ(f, expectedVictim(addr)) << "step " << step;
            ASSERT_EQ(frame.valid(), model.count(f) == 1);
            if (frame.valid()) {
                c.invalidateFrame(frame);
                c.syncMetaIndex(frame);
                model.erase(f);
            } else {
                EXPECT_FALSE(frame.dirty);
                EXPECT_FALSE(frame.hasTxnMeta());
            }
            c.fillFrame(frame, addr, MesiState::Exclusive);
            frame.dirty = false;
            frame.clearTxnMeta();
            frame.data.fill(static_cast<std::uint8_t>(step));
            c.touch(frame);
            model[f] = ModelLine{addr, false, 0, noTxnId, ++clock};
        } else if (op < 70) {
            const auto it = randomValid();
            CacheLine &line = c.lineAt(it->first);
            c.invalidateFrame(line);
            c.syncMetaIndex(line);
            model.erase(it);
        } else if (op < 99) {
            const auto it = randomValid();
            CacheLine &line = c.lineAt(it->first);
            line.persistBit = rng() % 3 == 0;
            line.logBits =
                rng() % 3 == 0 ? static_cast<std::uint8_t>(rng() % 4) : 0;
            line.txnId = rng() % 3 == 0
                             ? static_cast<std::uint8_t>(rng() % 4)
                             : noTxnId;
            c.syncMetaIndex(line);
            it->second.persistBit = line.persistBit;
            it->second.logBits = line.logBits;
            it->second.txnId = line.txnId;
        } else {
            c.invalidateAll();
            model.clear();
        }
        if (step % 1000 == 999)
            expectModel(c, "mid-mix");
    }
    ASSERT_FALSE(model.empty());
    expectModel(c, "after the mix");

    // The state holds exactly the model's frames, in frame order.
    const Cache::State saved = c.state();
    EXPECT_EQ(saved.useClock, clock);
    ASSERT_EQ(saved.frames.size(), model.size());
    auto frame = saved.frames.begin();
    for (const auto &[f, m] : model) {
        const CacheLine &line = frame->line;
        EXPECT_EQ(frame->frame, f);
        EXPECT_EQ(line.tag, m.tag);
        EXPECT_EQ(line.state, MesiState::Exclusive);
        EXPECT_FALSE(line.dirty);
        EXPECT_EQ(line.persistBit, m.persistBit);
        EXPECT_EQ(line.logBits, m.logBits);
        EXPECT_EQ(line.txnId, m.txnId);
        EXPECT_EQ(line.txnSeq, 0u);
        EXPECT_EQ(frame->lastUse, m.lastUse);
        EXPECT_EQ(line.data, c.lineAt(f).data);
        ++frame;
    }

    // A restore into a fresh array and into this used one rebuilds
    // the same frames.
    Cache fresh(cfg);
    fresh.restore(saved);
    expectModel(fresh, "restored into a fresh array");
    c.restore(saved);
    expectModel(c, "restored into the used array");

    // Emptied, the used array refills every set exactly as a fresh
    // array does: fills with touches (LRU order), and fills without
    // (timestamp ties).
    c.invalidateAll();
    Cache blank(cfg);
    for (Addr set = 0; set < 48 * 21; set += 21) {
        const bool touched = set % 2 == 0;
        for (Addr way = 0; way < 2 * cfg.ways + 1; ++way) {
            const Addr addr = (set + way * 1024) * cacheLineSize;
            CacheLine &used_v = c.victimFor(addr);
            CacheLine &fresh_v = blank.victimFor(addr);
            ASSERT_EQ(c.frameIndex(used_v), blank.frameIndex(fresh_v))
                << "set " << set << " fill " << way;
            EXPECT_EQ(used_v.valid(), fresh_v.valid());
            for (auto [cache, v] : {std::pair{&c, &used_v},
                                    std::pair{&blank, &fresh_v}}) {
                if (v->valid())
                    cache->invalidateFrame(*v);
                cache->fillFrame(*v, addr, MesiState::Shared);
                v->dirty = false;
                v->clearTxnMeta();
                if (touched)
                    cache->touch(*v);
            }
        }
    }
    std::string why;
    EXPECT_TRUE(c.checkProbeKeys(&why)) << why;
    EXPECT_TRUE(c.checkMetaIndex(&why)) << why;
}

TEST(Cache, OccupancyAuditCatchesCorruptCount)
{
    Cache c(CacheConfig{"c", 8 * cacheLineSize, 2, 1});  // 4 sets
    CacheLine &a = c.victimFor(0x40);
    c.fillFrame(a, 0x40, MesiState::Exclusive);
    std::string why;
    ASSERT_TRUE(c.checkProbeKeys(&why)) << why;

    // One valid key in set 1: any other count is a divergence.
    c.setOccupancyForTest(1, 2);
    EXPECT_FALSE(c.checkProbeKeys(&why));
    EXPECT_NE(why.find("occupancy"), std::string::npos) << why;
    c.setOccupancyForTest(1, 0);
    EXPECT_FALSE(c.checkProbeKeys(&why));
    // An empty set that claims a line is caught too.
    c.setOccupancyForTest(1, 1);
    c.setOccupancyForTest(2, 1);
    EXPECT_FALSE(c.checkProbeKeys(&why));
    EXPECT_NE(why.find("set 2"), std::string::npos) << why;
    c.setOccupancyForTest(2, 0);
    EXPECT_TRUE(c.checkProbeKeys(&why)) << why;
}

TEST(EmptyCache, FindsNothing)
{
    Cache c(CacheConfig{"c", 8 * cacheLineSize, 2, 1});  // 4 sets
    EXPECT_EQ(c.find(0x40), nullptr);
    EXPECT_EQ(c.findFrame(0x80), Cache::npos);

    CacheLine &a = c.victimFor(0x40);
    c.fillFrame(a, 0x40, MesiState::Exclusive);
    EXPECT_EQ(c.find(0x40), &a);
    EXPECT_EQ(c.find(0x80), nullptr);
    c.invalidateFrame(a);
    EXPECT_EQ(c.find(0x40), nullptr);

    CacheLine &b = c.victimFor(0xc0);
    c.fillFrame(b, 0xc0, MesiState::Modified);
    c.invalidateAll();
    EXPECT_EQ(c.find(0xc0), nullptr);
    std::string why;
    EXPECT_TRUE(c.checkProbeKeys(&why)) << why;
}

TEST(EmptyCache, AuditCatchesWrongTotal)
{
    Cache c(CacheConfig{"c", 8 * cacheLineSize, 2, 1});
    CacheLine &a = c.victimFor(0x40);
    c.fillFrame(a, 0x40, MesiState::Exclusive);
    std::string why;
    ASSERT_TRUE(c.checkProbeKeys(&why)) << why;

    // A total of 0 would make every lookup miss the valid line.
    c.setValidLinesForTest(0);
    EXPECT_FALSE(c.checkProbeKeys(&why));
    EXPECT_NE(why.find("valid lines"), std::string::npos) << why;
    EXPECT_EQ(c.find(0x40), nullptr);
    c.setValidLinesForTest(2);
    EXPECT_FALSE(c.checkProbeKeys(&why));
    c.setValidLinesForTest(1);
    EXPECT_TRUE(c.checkProbeKeys(&why)) << why;
    EXPECT_EQ(c.find(0x40), &a);
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

TEST_F(HierarchyTest, FormerMruLineMissesAfterCrash)
{
    hier.access(pmAddr(), true, 0);
    hier.access(pmAddr(), false, 0);  // a hit: the L1 MRU hint
    ASSERT_EQ(stats.get("cache.l1Hits"), 1u);
    hier.crash();
    hier.access(pmAddr(), false, 0);
    EXPECT_EQ(stats.get("cache.l1Hits"), 1u);
    EXPECT_EQ(stats.get("cache.l1Misses"), 2u);
    EXPECT_EQ(stats.get("cache.l3Misses"), 2u);
}

TEST_F(HierarchyTest, FormerMruLineMissesAfterRestore)
{
    // Capture the empty levels, make a line the MRU hint, restore:
    // the restore leaves the hinted frame's fields as they were, and
    // only its probe key says it is gone.
    const std::array<Cache *, 3> levels = {&hier.l1(), &hier.l2(),
                                           &hier.l3()};
    std::vector<Cache::State> saved;
    for (Cache *c : levels)
        saved.push_back(c->state());
    hier.access(pmAddr(), true, 0);
    hier.access(pmAddr(), false, 0);
    ASSERT_EQ(stats.get("cache.l1Hits"), 1u);
    for (std::size_t i = 0; i < levels.size(); ++i)
        levels[i]->restore(saved[i]);
    hier.access(pmAddr(), false, 0);
    EXPECT_EQ(stats.get("cache.l1Hits"), 1u);
    EXPECT_EQ(stats.get("cache.l1Misses"), 2u);
    EXPECT_EQ(stats.get("cache.l3Misses"), 2u);
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
