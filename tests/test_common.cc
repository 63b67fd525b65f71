/**
 * @file
 * Unit tests for the common utilities: types/address helpers, the
 * deterministic RNG, the stats registry, and the sparse paged memory.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hh"
#include "stats/stats.hh"
#include "common/types.hh"
#include "mem/paged_memory.hh"

namespace slpmt
{
namespace
{

TEST(Types, AddressHelpers)
{
    EXPECT_EQ(lineBase(0x1000), 0x1000u);
    EXPECT_EQ(lineBase(0x103F), 0x1000u);
    EXPECT_EQ(lineBase(0x1040), 0x1040u);
    EXPECT_EQ(lineOffset(0x103F), 63u);
    EXPECT_EQ(wordBase(0x100F), 0x1008u);
    EXPECT_EQ(wordIndex(0x1000), 0u);
    EXPECT_EQ(wordIndex(0x1038), 7u);
    EXPECT_EQ(wordIndex(0x103F), 7u);
}

TEST(Types, CycleConversion)
{
    // 2 GHz clock: 1 ns = 2 cycles.
    EXPECT_EQ(nsToCycles(1), 2u);
    EXPECT_EQ(nsToCycles(500), 1000u);
    EXPECT_EQ(nsToCycles(0), 0u);
}

TEST(Types, RoundUpToLines)
{
    EXPECT_EQ(roundUpToLines(0), 0u);
    EXPECT_EQ(roundUpToLines(1), 64u);
    EXPECT_EQ(roundUpToLines(64), 64u);
    EXPECT_EQ(roundUpToLines(65), 128u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, Mix64IsStateless)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
}

TEST(Stats, CountersAccumulate)
{
    StatsRegistry stats;
    auto c = stats.counter("a.b");
    c += 5;
    c++;
    EXPECT_EQ(stats.get("a.b"), 6u);
    EXPECT_EQ(c.get(), 6u);
}

TEST(Stats, UnknownCounterReadsZero)
{
    StatsRegistry stats;
    EXPECT_EQ(stats.get("never.created"), 0u);
}

TEST(Stats, SnapshotDelta)
{
    StatsRegistry stats;
    auto c = stats.counter("x");
    c += 10;
    const auto before = stats.snapshot();
    c += 7;
    const auto after = stats.snapshot();
    const auto delta = StatsRegistry::delta(before, after);
    EXPECT_EQ(delta.at("x"), 7u);
}

TEST(Stats, ResetZeroesValues)
{
    StatsRegistry stats;
    auto c = stats.counter("x");
    c += 3;
    stats.reset();
    EXPECT_EQ(stats.get("x"), 0u);
    c += 2;  // handles stay valid across reset
    EXPECT_EQ(stats.get("x"), 2u);
}

TEST(PagedMemory, UntouchedReadsZero)
{
    PagedMemory mem;
    std::uint64_t v = 0xdead;
    mem.read(0x123456, &v, sizeof(v));
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(mem.pageCount(), 0u);
}

TEST(PagedMemory, WriteReadRoundTrip)
{
    PagedMemory mem;
    const std::uint64_t v = 0x1122334455667788ULL;
    mem.write(0x8000, &v, sizeof(v));
    std::uint64_t r = 0;
    mem.read(0x8000, &r, sizeof(r));
    EXPECT_EQ(r, v);
}

TEST(PagedMemory, CrossPageAccess)
{
    PagedMemory mem;
    std::vector<std::uint8_t> data(PagedMemory::pageSize + 100);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    const Addr addr = PagedMemory::pageSize - 50;
    mem.write(addr, data.data(), data.size());
    std::vector<std::uint8_t> readback(data.size());
    mem.read(addr, readback.data(), readback.size());
    EXPECT_EQ(readback, data);
    EXPECT_GE(mem.pageCount(), 2u);
}

TEST(PagedMemory, ClearDropsEverything)
{
    PagedMemory mem;
    const std::uint64_t v = 42;
    mem.write(0, &v, sizeof(v));
    mem.clear();
    std::uint64_t r = 1;
    mem.read(0, &r, sizeof(r));
    EXPECT_EQ(r, 0u);
}

// The recent-page table: a cached page must never let a write skip a
// copy-on-write clone, outlive a restore, or shadow an absent page.

/** Bytes of a snapshot's copy of the word at @p addr. */
std::uint64_t
snapWord(const PagedMemory::Snapshot &snap, Addr addr)
{
    std::uint64_t v = 0;
    std::memcpy(&v,
                snap.at(addr / PagedMemory::pageSize)->data() +
                    addr % PagedMemory::pageSize,
                sizeof(v));
    return v;
}

TEST(RecentPageTable, WritesAfterSnapshotCloneInterleavedPages)
{
    // Undo-log and heap pages interleaved: one of each, whose entries
    // stay cached across the snapshot, then more pages than the table
    // has slots, so entries evict each other.
    for (Addr pages : {1, 100}) {
        PagedMemory mem;
        std::vector<Addr> words;
        for (Addr i = 0; i < pages; ++i) {
            words.push_back(0x4000'0000 + i * PagedMemory::pageSize);
            words.push_back(0x4100'0000 + i * PagedMemory::pageSize + 8);
        }
        auto put = [&](Addr a, std::uint64_t v) {
            mem.write(a, &v, sizeof(v));
        };
        auto get = [&](Addr a) {
            std::uint64_t v = 0;
            mem.read(a, &v, sizeof(v));
            return v;
        };
        for (std::size_t round = 0; round < 3; ++round) {
            for (std::size_t i = 0; i < words.size(); ++i)
                put(words[i], round * 1000 + i);
            const PagedMemory::Snapshot snap = mem.snapshot();
            // Log words are read first (the read caches the now shared
            // page), heap words written straight away.
            for (std::size_t i = 0; i < words.size(); ++i) {
                if (i % 2 == 0) {
                    ASSERT_EQ(get(words[i]), round * 1000 + i);
                }
                put(words[i], 7);
                put(words[i], 9);
            }
            for (std::size_t i = 0; i < words.size(); ++i) {
                EXPECT_EQ(snapWord(snap, words[i]), round * 1000 + i) << i;
                EXPECT_EQ(get(words[i]), 9u) << i;
            }
        }
    }
}

TEST(RecentPageTable, RestoreDropsCachedPages)
{
    PagedMemory mem;
    const Addr a = 0x4100'0040;
    auto put = [&](std::uint64_t v) { mem.write(a, &v, sizeof(v)); };
    auto get = [&] {
        std::uint64_t v = 0;
        mem.read(a, &v, sizeof(v));
        return v;
    };
    put(1);
    const PagedMemory::Snapshot snap = mem.snapshot();
    put(2);  // the clone is cached as unshared
    ASSERT_EQ(get(), 2u);

    mem.restore(snap);  // releases the clone
    EXPECT_EQ(get(), 1u);
    put(3);  // must clone again: the snapshot still shares the page
    EXPECT_EQ(get(), 3u);
    EXPECT_EQ(snapWord(snap, a), 1u);

    mem.clear();
    EXPECT_EQ(get(), 0u);
}

TEST(RecentPageTable, AbsentPageIsNotCached)
{
    PagedMemory mem;
    const Addr a = 0x4000'0100;
    std::uint64_t v = 5;
    mem.read(a, &v, sizeof(v));
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(mem.bytesAt(a), nullptr);
    v = 6;
    mem.write(a, &v, sizeof(v));
    std::uint64_t r = 0;
    mem.read(a, &r, sizeof(r));
    EXPECT_EQ(r, 6u);
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
