/**
 * @file
 * Unit tests for the persistent-heap allocator: first-fit behaviour,
 * free-range coalescing, liveness queries, the post-crash GC rebuild
 * that reclaims transactions' leaked allocations, and a differential
 * of the indexed first fit against a reference linear walk.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/serde.hh"
#include "common/rng.hh"
#include "stats/stats.hh"
#include "core/heap.hh"

namespace slpmt
{
namespace
{

class HeapTest : public ::testing::Test
{
  protected:
    HeapTest() : heap(0x1000, 64 * 1024, stats) {}

    StatsRegistry stats;
    PersistentHeap heap;
};

TEST_F(HeapTest, AllocationsAreDisjointAndAligned)
{
    std::vector<std::pair<Addr, Bytes>> allocs;
    for (Bytes size : {8u, 24u, 40u, 100u, 7u, 1u}) {
        const Addr a = heap.alloc(size);
        EXPECT_EQ(a % wordSize, 0u);
        for (const auto &[b, s] : allocs) {
            const bool disjoint = a + size <= b || b + s <= a;
            EXPECT_TRUE(disjoint);
        }
        allocs.emplace_back(a, size);
    }
}

TEST_F(HeapTest, FirstFitReusesFreedHole)
{
    const Addr a = heap.alloc(64);
    heap.alloc(64);  // keep a barrier after the hole
    heap.free(a);
    EXPECT_EQ(heap.alloc(64), a);
}

TEST_F(HeapTest, FreeCoalescesNeighbours)
{
    const Addr a = heap.alloc(64);
    const Addr b = heap.alloc(64);
    const Addr c = heap.alloc(64);
    heap.alloc(64);  // barrier
    heap.free(a);
    heap.free(c);
    heap.free(b);  // middle: coalesces with both
    EXPECT_EQ(heap.alloc(192), a);
}

TEST_F(HeapTest, IsLiveAndAllocationBase)
{
    const Addr a = heap.alloc(40);
    EXPECT_TRUE(heap.isLive(a));
    EXPECT_TRUE(heap.isLive(a + 39));
    EXPECT_FALSE(heap.isLive(a + 40));
    EXPECT_EQ(heap.allocationBase(a + 10), a);
}

TEST_F(HeapTest, DoubleFreePanics)
{
    const Addr a = heap.alloc(8);
    heap.free(a);
    EXPECT_THROW(heap.free(a), PanicError);
}

TEST_F(HeapTest, ExhaustionIsFatal)
{
    heap.alloc(60 * 1024);
    EXPECT_THROW(heap.alloc(8 * 1024), FatalError);
}

TEST_F(HeapTest, GcReclaimsUnreachable)
{
    const Addr keep1 = heap.alloc(40, 1);
    const Addr leak1 = heap.alloc(40, 2);
    const Addr keep2 = heap.alloc(40, 2);
    const Addr leak2 = heap.alloc(40, 3);
    (void)leak1;
    (void)leak2;
    const std::size_t reclaimed = heap.rebuild({keep1, keep2});
    EXPECT_EQ(reclaimed, 2u);
    EXPECT_EQ(heap.liveCount(), 2u);
    EXPECT_TRUE(heap.isLive(keep1));
    EXPECT_FALSE(heap.isLive(leak1));
    // Reclaimed space is allocatable again.
    heap.alloc(40);
}

TEST_F(HeapTest, AllocationsSinceFiltersByTxn)
{
    heap.alloc(8, 5);
    const Addr b = heap.alloc(8, 9);
    const auto since = heap.allocationsSince(5);
    ASSERT_EQ(since.size(), 1u);
    EXPECT_EQ(since[0], b);
}

TEST_F(HeapTest, LiveBytesTracksRoundedSizes)
{
    heap.alloc(7);   // rounds to 8
    heap.alloc(40);
    EXPECT_EQ(heap.liveBytes(), 48u);
}

TEST_F(HeapTest, ResetReturnsToBlankSlate)
{
    heap.alloc(1024);
    heap.reset();
    EXPECT_EQ(heap.liveCount(), 0u);
    EXPECT_EQ(heap.alloc(1024), 0x1000u);
}

TEST_F(HeapTest, FreshHeapHoldsNoIndex)
{
    EXPECT_EQ(heap.indexBytes(), 0u);
    const Addr a = heap.alloc(64);
    heap.alloc(64);
    EXPECT_EQ(heap.indexBytes(), 0u);  // carved from the highest range
    heap.free(a);                      // a hole below it gets indexed
    EXPECT_GT(heap.indexBytes(), 0u);
    heap.reset();
    EXPECT_EQ(heap.indexBytes(), 0u);
}

/** Reference first fit: the linear walk over every free range that the
 *  heap's index replaced. Tracks free ranges only. */
struct LinearFirstFit
{
    LinearFirstFit(Addr base, Bytes size) : free{{base, size}} {}

    /** The address alloc() must return; 0 when it must be fatal. */
    Addr
    alloc(Bytes need)
    {
        for (auto it = free.begin(); it != free.end(); ++it) {
            if (it->second < need)
                continue;
            const Addr addr = it->first;
            const Bytes rest = it->second - need;
            free.erase(it);
            if (rest > 0)
                free[addr + need] = rest;
            return addr;
        }
        return 0;
    }

    void
    release(Addr addr, Bytes size)
    {
        auto next = free.lower_bound(addr);
        if (next != free.begin() &&
            std::prev(next)->first + std::prev(next)->second == addr) {
            addr = std::prev(next)->first;
            size += std::prev(next)->second;
            free.erase(std::prev(next));
        }
        next = free.lower_bound(addr + size);
        if (next != free.end() && next->first == addr + size) {
            size += next->second;
            free.erase(next);
        }
        free[addr] = size;
    }

    std::map<Addr, Bytes> free;
};

/**
 * Step-by-step differential against LinearFirstFit: seeded alloc, free,
 * rebuild, reset and save/restore sequences must get the same address
 * (or the same FatalError) for every request, and a restored heap must
 * save the bytes it was restored from. Small requests with a rare 8 KB
 * one leave thousands of holes, some spanning index blocks; requests
 * for exactly a short highest range reach the end of the heap, so
 * frees land above the highest range.
 */
void
runFirstFitDifferential(Bytes heap_size, std::uint64_t seed, int steps)
{
    SCOPED_TRACE("heap " + std::to_string(heap_size) + " seed " +
                 std::to_string(seed));
    constexpr Addr base = 0x41001000;
    StatsRegistry stats;
    auto heap = std::make_unique<PersistentHeap>(base, heap_size, stats);
    LinearFirstFit ref(base, heap_size);
    std::map<Addr, Bytes> live;  // base -> rounded size
    std::vector<Addr> bases;     // the same keys, for uniform picks

    struct Saved
    {
        std::vector<std::uint8_t> blob;
        LinearFirstFit ref;
        std::map<Addr, Bytes> live;
    };
    std::optional<Saved> saved;
    const auto resync = [&] {
        bases.clear();
        for (const auto &[addr, size] : live)
            bases.push_back(addr);
    };

    Rng rng(seed);
    for (int step = 0; step < steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        // Alternate growing and shrinking phases, so that frees punch
        // thousands of holes into a large live set.
        const std::uint64_t allocs = step / 10000 % 2 == 0 ? 95000 : 10000;
        const std::uint64_t op = rng.below(100000);
        if (step % 25000 == 24999) {
            heap->reset();
            ref = LinearFirstFit(base, heap_size);
            live.clear();
            bases.clear();
        } else if (op < allocs || bases.empty()) {
            Bytes size = rng.below(100) == 0 ? 8192 : 1 + rng.below(300);
            // Now and then use up a short highest range exactly, so the
            // next one down becomes the highest and later frees land
            // above it.
            if (rng.below(20) == 0 && !ref.free.empty() &&
                ref.free.rbegin()->second <= 8192)
                size = ref.free.rbegin()->second;
            const Bytes need = (size + wordSize - 1) / wordSize * wordSize;
            const Addr want = ref.alloc(need);
            if (want == 0) {
                ASSERT_THROW(heap->alloc(size, step), FatalError);
                continue;
            }
            ASSERT_EQ(heap->alloc(size, step), want);
            live[want] = need;
            bases.push_back(want);
        } else if (op < 99750) {
            const std::size_t i = rng.below(bases.size());
            const Addr addr = bases[i];
            heap->free(addr);
            ref.release(addr, live.at(addr));
            live.erase(addr);
            bases[i] = bases.back();
            bases.pop_back();
        } else if (op < 99760) {
            std::vector<Addr> keep;
            std::size_t reclaimed = 0;
            for (auto it = live.begin(); it != live.end();) {
                if (rng.below(4) != 0) {
                    keep.push_back(it->first);
                    ++it;
                } else {
                    ref.release(it->first, it->second);
                    it = live.erase(it);
                    ++reclaimed;
                }
            }
            ASSERT_EQ(heap->rebuild(keep), reclaimed);
            resync();
        } else {
            // Round-trip the state through the same heap or a fresh
            // one; now and then roll back to the last saved state.
            if (op >= 99780 || !saved) {
                BlobWriter w;
                heap->saveState(w);
                saved = Saved{w.data(), ref, live};
            }
            if (rng.below(2) == 0)
                heap = std::make_unique<PersistentHeap>(base, heap_size,
                                                        stats);
            BlobReader r(saved->blob);
            heap->restoreState(r);
            BlobWriter w;
            heap->saveState(w);
            ASSERT_EQ(w.data(), saved->blob);
            ref = saved->ref;
            live = saved->live;
            resync();
        }
    }
    EXPECT_EQ(heap->liveCount(), live.size());
}

TEST_F(HeapTest, StressRandomAllocFree)
{
    runFirstFitDifferential(64u << 10, 11, 10000);
    runFirstFitDifferential(4u << 20, 12, 30000);
    runFirstFitDifferential(64u << 20, 13, 30000);
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
