/**
 * @file
 * Sparse byte-addressable backing storage with copy-on-write
 * snapshots.
 *
 * Devices model multi-hundred-megabyte address ranges of which a
 * workload touches only a fraction; pages are allocated on first touch
 * so the host-side footprint tracks the simulated working set.
 *
 * Accesses show heavy page locality (a 64-byte cache-line transfer is
 * 64× smaller than a page, and workloads stride within regions), but
 * they interleave a few streams: undo-log appends, line persists and
 * recovery's peeks land on different pages. A small direct-mapped
 * table of recent pages (page number, page pointer and a "known
 * unshared" bit per slot) short-circuits the hash-map probe for each
 * of them. Page payloads live behind shared_ptr, so a cached pointer
 * stays valid across map rehashes. An absent page is never cached, so
 * a later write materialising it cannot be shadowed; snapshot() drops
 * every unshared bit, and clear() and restore() drop the table.
 *
 * snapshot() captures the current page table by reference: pages are
 * shared between the live store and any number of snapshots, and a
 * write to a shared page clones it first (copy-on-write). K
 * checkpoints of a T-page heap therefore cost K page *tables* plus
 * only the pages that actually diverge — not K full heap copies.
 * Snapshots are immutable; shared_ptr's atomic refcounts make it safe
 * for parallel workers to restore from the same snapshot concurrently.
 */

#ifndef SLPMT_MEM_PAGED_MEMORY_HH
#define SLPMT_MEM_PAGED_MEMORY_HH

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace slpmt
{

/** Sparse, page-granular byte store covering a 64-bit address space. */
class PagedMemory
{
  public:
    static constexpr std::size_t pageSize = 4096;

    using Page = std::array<std::uint8_t, pageSize>;

    /** An immutable capture of the page table (see snapshot()). */
    using Snapshot =
        std::unordered_map<Addr, std::shared_ptr<const Page>>;

    PagedMemory() = default;
    /** Not copyable: a copied unshared bit would let the copy write a
     *  page it shares with the original without cloning it. */
    PagedMemory(const PagedMemory &) = delete;
    PagedMemory &operator=(const PagedMemory &) = delete;

    /** Read @p len bytes at @p addr into @p out. Untouched bytes are 0. */
    void
    read(Addr addr, void *out, std::size_t len) const
    {
        auto *dst = static_cast<std::uint8_t *>(out);
        while (len > 0) {
            const std::size_t chunk =
                std::min(len, pageSize - addr % pageSize);
            if (const std::uint8_t *src = bytesAt(addr))
                std::memcpy(dst, src, chunk);
            else
                std::memset(dst, 0, chunk);
            addr += chunk;
            dst += chunk;
            len -= chunk;
        }
    }

    /**
     * The stored bytes from @p addr to the end of its page, or nullptr
     * when the page was never written (it reads as zeros). The
     * pointer stays valid until the next write(), clear() or
     * restore().
     */
    const std::uint8_t *
    bytesAt(Addr addr) const
    {
        const Page *p = lookup(addr / pageSize);
        return p ? p->data() + addr % pageSize : nullptr;
    }

    /** Write @p len bytes from @p src at @p addr. */
    void
    write(Addr addr, const void *src, std::size_t len)
    {
        auto *from = static_cast<const std::uint8_t *>(src);
        while (len > 0) {
            const Addr page = addr / pageSize;
            const std::size_t off = addr % pageSize;
            const std::size_t chunk = std::min(len, pageSize - off);
            Recent &r = recentSlot(page);
            if (!r.unshared || r.page != page) {
                auto &slot = pages[page];
                if (!slot) {
                    slot = std::make_shared<Page>();
                    slot->fill(0);
                } else if (slot.use_count() > 1) {
                    // Shared with a snapshot: clone before mutating.
                    slot = std::make_shared<Page>(*slot);
                }
                r = {page, slot.get(), true};
            }
            Page *p = r.data;
            std::memcpy(p->data() + off, from, chunk);
            addr += chunk;
            from += chunk;
            len -= chunk;
        }
    }

    /** Drop every page (simulates losing the medium's contents). */
    void
    clear()
    {
        pages.clear();
        dropCache();
    }

    /**
     * Capture the page table by reference. O(pages), copies no
     * payloads; subsequent writes clone shared pages on demand.
     */
    Snapshot
    snapshot() const
    {
        Snapshot snap;
        snap.reserve(pages.size());
        for (const auto &kv : pages)
            snap.emplace(kv.first, kv.second);
        // Every page is now shared: the next write to any of them must
        // take the clone path.
        for (Recent &r : recent)
            r.unshared = false;
        return snap;
    }

    /**
     * Replace the contents with @p snap (pages shared, CoW), whatever
     * the store held before: the store of a used machine as well as a
     * fresh one. Every snapshot page replaces the page it finds, and
     * the clear drops the pages the snapshot lacks.
     */
    void
    restore(const Snapshot &snap)
    {
        pages.clear();
        pages.reserve(snap.size());
        for (const auto &kv : snap)
            pages.insert_or_assign(kv.first,
                                   std::const_pointer_cast<Page>(kv.second));
        dropCache();
    }

    /**
     * Visit every materialised page in ascending page-number order
     * (deterministic image comparison). @p fn receives
     * (pageNumber, pageData).
     */
    template <typename Fn>
    void
    forEachPageSorted(Fn &&fn) const
    {
        std::vector<Addr> nums;
        nums.reserve(pages.size());
        for (const auto &kv : pages)
            nums.push_back(kv.first);
        std::sort(nums.begin(), nums.end());
        for (Addr num : nums)
            fn(num, *pages.at(num));
    }

    /** Number of pages materialised so far. */
    std::size_t pageCount() const { return pages.size(); }

  private:
    /** One slot of the recent-page table. */
    struct Recent
    {
        Addr page = 0;
        Page *data = nullptr;   //!< nullptr: the slot is empty
        bool unshared = false;  //!< no snapshot shares the page
    };

    static constexpr unsigned recentBits = 6;
    static constexpr std::size_t recentSlots = std::size_t{1} << recentBits;

    /** The slot of page @p page (Fibonacci hashing: the log area and
     *  the heap both start on 256 KB boundaries, so their first pages
     *  would share a slot under a plain modulo). */
    Recent &
    recentSlot(Addr page) const
    {
        return recent[(page * 0x9e3779b97f4a7c15ULL) >> (64 - recentBits)];
    }

    /** Find a present page, preferring the recent-page table. Only a
     *  present page is cached. A page only this store holds is
     *  recorded as unshared, so a write to it skips the map too. */
    const Page *
    lookup(Addr page) const
    {
        Recent &r = recentSlot(page);
        if (r.data && r.page == page)
            return r.data;
        auto it = pages.find(page);
        if (it == pages.end())
            return nullptr;
        r = {page, it->second.get(), it->second.use_count() == 1};
        return r.data;
    }

    void dropCache() { recent.fill(Recent{}); }

    std::unordered_map<Addr, std::shared_ptr<Page>> pages;
    mutable std::array<Recent, recentSlots> recent{};
};

} // namespace slpmt

#endif // SLPMT_MEM_PAGED_MEMORY_HH
