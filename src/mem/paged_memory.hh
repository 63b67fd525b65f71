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
 * 64× smaller than a page, and workloads stride within regions), so a
 * single-entry cache of the last page looked up short-circuits the
 * hash-map probe on the common repeat hit. Page payloads live behind
 * shared_ptr, so the cached pointer stays valid across map rehashes;
 * it is dropped whenever the page set changes.
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
            Page *p = nullptr;
            if (lastWritablePage && lastPageNum == page) {
                p = lastWritablePage;
            } else {
                auto &slot = pages[page];
                if (!slot) {
                    slot = std::make_shared<Page>();
                    slot->fill(0);
                } else if (slot.use_count() > 1) {
                    // Shared with a snapshot: clone before mutating.
                    slot = std::make_shared<Page>(*slot);
                }
                p = slot.get();
                lastPageNum = page;
                lastPage = p;
                lastWritablePage = p;
            }
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
        // take the clone path, so the writable-page cache is stale.
        lastWritablePage = nullptr;
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
    /** Find a present page, preferring the single-entry cache. The
     *  cache only ever holds present pages — a miss is not cached, so
     *  a later write materialising the page cannot be shadowed. */
    const Page *
    lookup(Addr page) const
    {
        if (lastPage && lastPageNum == page)
            return lastPage;
        auto it = pages.find(page);
        if (it == pages.end())
            return nullptr;
        lastPageNum = page;
        lastPage = it->second.get();
        lastWritablePage = nullptr;
        return lastPage;
    }

    void
    dropCache()
    {
        lastPage = nullptr;
        lastWritablePage = nullptr;
    }

    std::unordered_map<Addr, std::shared_ptr<Page>> pages;
    mutable Addr lastPageNum = 0;
    mutable Page *lastPage = nullptr;
    /** Like lastPage, but only set when the page is known unshared —
     *  a snapshot() invalidates it so writes re-check use_count. */
    mutable Page *lastWritablePage = nullptr;
};

} // namespace slpmt

#endif // SLPMT_MEM_PAGED_MEMORY_HH
