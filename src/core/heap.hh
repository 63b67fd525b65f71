/**
 * @file
 * First-fit persistent-heap allocator.
 *
 * The allocator hands out ranges of the PM heap region. Its metadata
 * (free list, allocation table) is deliberately volatile: the paper's
 * recovery model reclaims regions leaked by a crash-interrupted
 * transaction with a garbage collector / persistent inspector
 * (Section IV-B, Pattern 1), so after a crash the structure-specific
 * recovery walks its roots, reports the set of reachable allocations,
 * and rebuild() reconstitutes the allocator state — leaking nothing.
 *
 * The address an allocation gets decides which cache lines its stores
 * touch, so placement is part of every simulated result: alloc() is
 * exact first fit (the lowest-address free range that is long enough)
 * and must stay so. A max-length segment tree over fixed-size address
 * blocks finds that range in O(log n) instead of walking the free
 * list; it is derived state, rebuilt on restore and never serialized.
 */

#ifndef SLPMT_CORE_HEAP_HH
#define SLPMT_CORE_HEAP_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <unordered_map>
#include <vector>

#include "checkpoint/serde.hh"
#include "common/logging.hh"
#include "stats/stats.hh"
#include "common/types.hh"

namespace slpmt
{

/** One live allocation. */
struct AllocInfo
{
    Bytes size = 0;
    std::uint64_t txnSeq = 0;  //!< transaction that allocated it
};

/** Volatile-metadata first-fit allocator over the PM heap range. */
class PersistentHeap
{
  public:
    PersistentHeap(Addr base, Bytes size, StatsRegistry &stats)
        : heapBase(base),
          heapSize(size),
          statAllocs(stats.counter("heap.allocs")),
          statFrees(stats.counter("heap.frees")),
          statGcReclaims(stats.counter("heap.gcReclaimedAllocs"))
    {
        freeRanges[base] = size;
    }

    /** Allocate @p size bytes, 8-byte aligned, at the lowest address
     *  that fits. */
    Addr
    alloc(Bytes size, std::uint64_t txn_seq = 0)
    {
        const Bytes need = roundUp(size);
        const auto it = firstFit(need);
        const Addr addr = it->first;
        const Bytes remaining = it->second - need;
        const bool top = std::next(it) == freeRanges.end();
        freeRanges.erase(it);
        if (remaining > 0)
            freeRanges[addr + need] = remaining;
        // The tree leaves out the highest range: carving from it changes
        // no leaf, and using it up makes the next range down the
        // highest, which then leaves the tree.
        if (!top) {
            reindex(addr);
            if (remaining > 0 && blockOf(addr + need) != blockOf(addr))
                reindex(addr + need);
        } else if (remaining == 0 && !freeRanges.empty()) {
            reindex(std::prev(freeRanges.end())->first);
        }
        live[addr] = {need, txn_seq};
        statAllocs++;
        return addr;
    }

    /** Release an allocation. */
    void
    free(Addr addr)
    {
        auto it = live.find(addr);
        panicIfNot(it != live.end(), "free of unknown allocation");
        releaseRange(addr, it->second.size);
        live.erase(it);
        statFrees++;
    }

    /** Is @p addr inside a live allocation? */
    bool
    isLive(Addr addr) const
    {
        auto it = live.upper_bound(addr);
        if (it == live.begin())
            return false;
        --it;
        return addr < it->first + it->second.size;
    }

    /** Base address of the live allocation containing @p addr. */
    Addr
    allocationBase(Addr addr) const
    {
        auto it = live.upper_bound(addr);
        panicIfNot(it != live.begin(), "address outside any allocation");
        --it;
        panicIfNot(addr < it->first + it->second.size,
                   "address outside any allocation");
        return it->first;
    }

    std::size_t liveCount() const { return live.size(); }

    Bytes
    liveBytes() const
    {
        Bytes total = 0;
        for (const auto &[addr, info] : live)
            total += info.size;
        return total;
    }

    /** Allocations created by transactions with seq > @p since. */
    std::vector<Addr>
    allocationsSince(std::uint64_t since) const
    {
        std::vector<Addr> out;
        for (const auto &[addr, info] : live) {
            if (info.txnSeq > since)
                out.push_back(addr);
        }
        return out;
    }

    /**
     * Post-crash garbage collection: keep exactly the allocations in
     * @p reachable (by base address), reclaim everything else.
     *
     * @return number of leaked allocations reclaimed
     */
    std::size_t
    rebuild(const std::vector<Addr> &reachable)
    {
        std::unordered_map<Addr, bool> keep;
        for (Addr a : reachable)
            keep[a] = true;
        std::size_t reclaimed = 0;
        for (auto it = live.begin(); it != live.end();) {
            if (keep.count(it->first)) {
                ++it;
            } else {
                releaseRange(it->first, it->second.size);
                it = live.erase(it);
                ++reclaimed;
            }
        }
        statGcReclaims += reclaimed;
        return reclaimed;
    }

    /** Crash loses nothing here — the *caller* decides what survives.
     *  The allocation table models durable structure walks, so it is
     *  retained; tests exercising true metadata loss use reset(). */
    void
    reset()
    {
        live.clear();
        freeRanges.clear();
        freeRanges[heapBase] = heapSize;
        rebuildIndex();
    }

    Addr base() const { return heapBase; }
    Bytes size() const { return heapSize; }

    /** Host memory held by the free-range index (0 until a free range
     *  other than the highest one exists). */
    std::size_t indexBytes() const { return fitTree.size() * sizeof(Bytes); }

    /** @name Checkpointing (ordered maps: deterministic iteration) */
    /** @{ */
    void
    saveState(BlobWriter &w) const
    {
        w.u<std::uint64_t>(freeRanges.size());
        for (const auto &[addr, len] : freeRanges) {
            w.u<Addr>(addr);
            w.u<Bytes>(len);
        }
        w.u<std::uint64_t>(live.size());
        for (const auto &[addr, info] : live) {
            w.u<Addr>(addr);
            w.u<Bytes>(info.size);
            w.u<std::uint64_t>(info.txnSeq);
        }
    }

    void
    restoreState(BlobReader &r)
    {
        freeRanges.clear();
        live.clear();
        const std::size_t nfree = r.count(2 * sizeof(Addr));
        for (std::size_t i = 0; i < nfree; ++i) {
            const Addr addr = r.u<Addr>();
            freeRanges[addr] = r.u<Bytes>();
        }
        const std::size_t nlive = r.count(3 * sizeof(Addr));
        for (std::size_t i = 0; i < nlive; ++i) {
            const Addr addr = r.u<Addr>();
            AllocInfo info;
            info.size = r.u<Bytes>();
            info.txnSeq = r.u<std::uint64_t>();
            live[addr] = info;
        }
        rebuildIndex();
    }
    /** @} */

  private:
    using FreeMap = std::map<Addr, Bytes>;

    /** Index granularity: one segment-tree leaf per 4 KB of heap. */
    static constexpr Bytes blockBytes = 4096;

    static Bytes
    roundUp(Bytes size)
    {
        return (size + wordSize - 1) / wordSize * wordSize;
    }

    std::size_t
    blockOf(Addr addr) const
    {
        return (addr - heapBase) / blockBytes;
    }

    /**
     * Lowest-address free range of at least @p need bytes. The tree
     * names the first block holding a long-enough indexed range; a scan
     * of that block's ranges picks it. If no indexed range fits, only
     * the highest range, which the tree leaves out, can.
     */
    FreeMap::iterator
    firstFit(Bytes need)
    {
        // Every range is non-empty, so a zero-byte request wants the
        // lowest range; leaves of blocks without ranges hold 0.
        const Bytes want = std::max<Bytes>(need, 1);
        if (!fitTree.empty() && fitTree[1] >= want) {
            const std::size_t leaves = fitTree.size() / 2;
            std::size_t node = 1;
            while (node < leaves) {
                node *= 2;
                if (fitTree[node] < want)
                    ++node;
            }
            const Addr lo = heapBase + (node - leaves) * blockBytes;
            for (auto it = freeRanges.lower_bound(lo); it != freeRanges.end()
                 && it->first < lo + blockBytes; ++it) {
                if (it->second >= need)
                    return it;
            }
            panic("free-range index out of date");
        }
        if (!freeRanges.empty()) {
            const auto top = std::prev(freeRanges.end());
            if (top->second >= need)
                return top;
        }
        fatal("persistent heap exhausted");
    }

    /** Recompute the leaf of the block holding @p addr from the free
     *  ranges that start in it, leaving out the highest range. Needs at
     *  least one free range. */
    void
    reindex(Addr addr)
    {
        const std::size_t block = blockOf(addr);
        const Addr lo = heapBase + block * blockBytes;
        const auto top = std::prev(freeRanges.end());
        Bytes longest = 0;
        for (auto it = freeRanges.lower_bound(lo); it != freeRanges.end() &&
             it != top && it->first < lo + blockBytes; ++it)
            longest = std::max(longest, it->second);

        std::size_t leaves = fitTree.size() / 2;
        if (block >= leaves) {
            if (longest == 0)
                return;
            growIndex(block);
            leaves = fitTree.size() / 2;
        }
        std::size_t node = leaves + block;
        fitTree[node] = longest;
        for (node /= 2; node > 0; node /= 2) {
            const Bytes m = std::max(fitTree[2 * node], fitTree[2 * node + 1]);
            if (fitTree[node] == m)
                break;
            fitTree[node] = m;
        }
    }

    /** Double the tree until it has a leaf for @p block. */
    void
    growIndex(std::size_t block)
    {
        const std::size_t old = fitTree.size() / 2;
        std::size_t leaves = std::max<std::size_t>(old, 1);
        while (leaves <= block)
            leaves *= 2;
        std::vector<Bytes> grown(2 * leaves, 0);
        std::copy(fitTree.begin() + old, fitTree.end(),
                  grown.begin() + leaves);
        fitTree.swap(grown);
        fixInnerNodes();
    }

    /** Build the tree from scratch for the current free ranges. */
    void
    rebuildIndex()
    {
        std::vector<Bytes>().swap(fitTree);
        if (freeRanges.size() < 2)
            return;
        const auto top = std::prev(freeRanges.end());
        growIndex(blockOf(std::prev(top)->first));
        const std::size_t leaves = fitTree.size() / 2;
        for (auto it = freeRanges.begin(); it != top; ++it) {
            Bytes &leaf = fitTree[leaves + blockOf(it->first)];
            leaf = std::max(leaf, it->second);
        }
        fixInnerNodes();
    }

    void
    fixInnerNodes()
    {
        for (std::size_t node = fitTree.size() / 2 - 1; node > 0; --node)
            fitTree[node] = std::max(fitTree[2 * node], fitTree[2 * node + 1]);
    }

    void
    releaseRange(Addr addr, Bytes size)
    {
        const bool had_top = !freeRanges.empty();
        const Addr old_top = had_top ? std::prev(freeRanges.end())->first : 0;
        // Coalesce with neighbours.
        auto next = freeRanges.lower_bound(addr);
        if (next != freeRanges.begin()) {
            auto prev = std::prev(next);
            if (prev->first + prev->second == addr) {
                addr = prev->first;
                size += prev->second;
                freeRanges.erase(prev);
            }
        }
        const Addr next_base = addr + size;
        next = freeRanges.lower_bound(next_base);
        const bool merge_next =
            next != freeRanges.end() && next->first == next_base;
        if (merge_next) {
            size += next->second;
            freeRanges.erase(next);
        }
        freeRanges[addr] = size;

        reindex(addr);
        if (merge_next && blockOf(next_base) != blockOf(addr))
            reindex(next_base);
        // A new highest range pushes the old one into the tree.
        if (had_top && std::prev(freeRanges.end())->first != old_top)
            reindex(old_top);
    }

    Addr heapBase;
    Bytes heapSize;
    FreeMap freeRanges;                 //!< base -> length
    std::map<Addr, AllocInfo> live;     //!< base -> info
    /**
     * Max-length segment tree, 1-based: leaf b (at fitTree.size()/2 + b)
     * holds the longest free range starting in heap block b, inner
     * nodes the max of their children. The highest free range is left
     * out, so the tree covers only blocks below it: empty on a fresh
     * heap, and sized by the used part of the heap, not its range.
     */
    std::vector<Bytes> fitTree;

    StatsRegistry::Counter statAllocs;
    StatsRegistry::Counter statFrees;
    StatsRegistry::Counter statGcReclaims;
};

} // namespace slpmt

#endif // SLPMT_CORE_HEAP_HH
