/**
 * @file
 * Array-backed max heap (Table II: "max heap using an array to store
 * all the nodes").
 *
 * Annotation design:
 *  - Value blobs: log-free eager (fresh allocations, Pattern 1).
 *  - The write placing an element into slot arr[count]: log-free —
 *    slots beyond the committed count are dead, so a crash leaves
 *    nothing to undo (a "deep semantics" justification only the
 *    manual annotation carries).
 *  - Sift-up shifts into live slots and the count update: normal
 *    logged eager stores — partial persistence of a shift chain would
 *    lose elements, so they must be undo-protected.
 *  - Array growth copies into the fresh doubled array: log-free
 *    (fresh region; the old array stays intact, and allocated, until
 *    the header swing commits — grow() frees it with the insert's
 *    transaction).
 *
 * The heap therefore profits mainly from log-free stores, not lazy
 * persistency — matching the paper's per-benchmark spread.
 */

#ifndef SLPMT_WORKLOADS_MAXHEAP_HH
#define SLPMT_WORKLOADS_MAXHEAP_HH

#include "workloads/workload.hh"

namespace slpmt
{

/** The durable array max heap. */
class MaxHeapWorkload : public Workload
{
  public:
    static constexpr std::size_t headerRootSlot = 3;
    static constexpr std::uint64_t initialCapacity = 64;

    std::string name() const override { return "heap"; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<MaxHeapWorkload>(*this);
    }
    void setup(PmContext &sys) override;
    void insert(PmContext &sys, std::uint64_t key,
                const std::vector<std::uint8_t> &value) override;
    bool lookup(PmContext &sys, std::uint64_t key,
                std::vector<std::uint8_t> *out) override;
    bool update(PmContext &sys, std::uint64_t key,
                const std::vector<std::uint8_t> &value) override;
    std::size_t count(PmContext &sys) override;
    void recover(PmContext &sys) override;
    bool checkConsistency(PmContext &sys, std::string *why) override;

    /** Remove-by-key via swap-with-last and bidirectional sift. */
    bool remove(PmContext &sys, std::uint64_t key) override;

    /** Read the maximum key (the heap's core query). */
    bool peekMax(PmContext &sys, std::uint64_t *key_out);

  private:
    /** Entry: {key, valPtr, valLen} — three words. */
    static constexpr Bytes entryBytes = 24;

    struct HdrOff
    {
        static constexpr Bytes count = 0;
        static constexpr Bytes capacity = 8;
        static constexpr Bytes arrPtr = 16;
        static constexpr Bytes size = 24;
    };

    struct Entry
    {
        std::uint64_t key;
        Addr valPtr;
        std::uint64_t valLen;
    };

    Entry readEntry(PmContext &sys, Addr arr, std::uint64_t idx);
    void writeEntry(PmContext &sys, Addr arr, std::uint64_t idx,
                    const Entry &e, SiteId site);

    /** Double the array inside @p tx, which frees the old one. */
    void grow(PmContext &sys, DurableTx &tx);

    SiteId siteValueInit = 0;
    SiteId siteNewSlot = 0;    //!< arr[count] (dead-beyond-count)
    SiteId siteShift = 0;      //!< sift-up writes into live slots
    SiteId siteCount = 0;      //!< header count (commit pivot)
    SiteId siteGrowCopy = 0;   //!< copies into the fresh array
    SiteId siteHeader = 0;     //!< capacity/arrPtr swing
    SiteId siteDeadPoison = 0; //!< Pattern 1b: dead slot

    Addr headerAddr = 0;
};

} // namespace slpmt

#endif // SLPMT_WORKLOADS_MAXHEAP_HH
