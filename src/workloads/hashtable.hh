/**
 * @file
 * Chained hash table that resizes at an average chain length of three
 * (Table II), with the paper's flagship lazy-persistency pattern: the
 * node copies made while rehashing are written with lazy, log-free
 * storeT and left in the cache past the commit (Section VI-D1).
 *
 * Durability design:
 *  - Regular inserts allocate a node and a value blob inside the
 *    transaction; both are initialised with log-free eager storeT
 *    (Pattern 1: a crash leaks them; recovery GC reclaims). The
 *    bucket-head pointer is a normal logged store — the commit pivot.
 *  - The element count is lazy+logged: recovery recomputes it by
 *    walking the table (a "deep semantics" annotation the compiler
 *    pass cannot find).
 *  - Rehashing copies every node into a fresh node (the originals are
 *    never modified) with lazy+log-free storeT, and swings the header
 *    to the new bucket array with logged stores. A durable journal
 *    records old/new table locations. Every node carries a checksum
 *    over its payload so recovery can tell which copies reached PM.
 *
 * Why recovery is sound: while any copy is still volatile, the old
 *  table is intact — the resize transaction *read* every old node, so
 *  they are in its working set, and the hardware persists all its
 *  lazy lines before any of those addresses can be overwritten
 *  (Section III-C). A lost copy therefore shows in the durable image:
 *  a new-table chain stops at a node that fails its checksum (or at
 *  an implausible address), or a key of the intact old table is
 *  missing from the new one. Only then, or when the header does not
 *  name the journal's new table, does recovery merge the
 *  checksum-valid part of the new table (which always includes every
 *  post-resize insert, because those are eager) with the old table's
 *  contents into a fresh table. Otherwise the new table is whole: the
 *  merge would yield exactly its entries and values, so recovery
 *  keeps it in place and clears the journal inside its recount
 *  transaction. A key removed after the resize still sits in the old
 *  table and still triggers the merge, which brings it back.
 */

#ifndef SLPMT_WORKLOADS_HASHTABLE_HH
#define SLPMT_WORKLOADS_HASHTABLE_HH

#include "workloads/workload.hh"

namespace slpmt
{

/** The durable chained hash table. */
class HashTableWorkload : public Workload
{
  public:
    /** Root-directory slots used by the table. */
    static constexpr std::size_t headerRootSlot = 0;
    static constexpr std::size_t journalRootSlot = 1;

    /** Resize when count exceeds loadFactor * buckets. */
    static constexpr std::uint64_t loadFactor = 3;
    static constexpr std::uint64_t initialBuckets = 16;

    std::string name() const override { return "hashtable"; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<HashTableWorkload>(*this);
    }
    void setup(PmContext &sys) override;
    void insert(PmContext &sys, std::uint64_t key,
                const std::vector<std::uint8_t> &value) override;
    bool lookup(PmContext &sys, std::uint64_t key,
                std::vector<std::uint8_t> *out) override;
    bool update(PmContext &sys, std::uint64_t key,
                const std::vector<std::uint8_t> &value) override;
    bool remove(PmContext &sys, std::uint64_t key) override;
    std::size_t count(PmContext &sys) override;
    void recover(PmContext &sys) override;
    bool checkConsistency(PmContext &sys, std::string *why) override;

    /** Number of resizes performed so far (test introspection). */
    std::uint64_t resizes() const { return resizeCount; }

    /** @name The durable format recovery checks (tests forge nodes) */
    /** @{ */
    static std::uint64_t
    nodeChecksum(std::uint64_t key, Addr next, Addr val_ptr,
                 std::uint64_t val_len)
    {
        return mix64(key ^ mix64(next) ^ mix64(val_ptr) ^ val_len ^
                     0x5a5a5a5a5a5a5a5aULL);
    }

    static std::uint64_t
    bucketOf(std::uint64_t key, std::uint64_t num_buckets)
    {
        return mix64(key) % num_buckets;
    }
    /** @} */

  private:
    /** Node field offsets (all fields are 8-byte words). */
    struct NodeOff
    {
        static constexpr Bytes key = 0;
        static constexpr Bytes next = 8;
        static constexpr Bytes valPtr = 16;
        static constexpr Bytes valLen = 24;
        static constexpr Bytes chk = 32;
        static constexpr Bytes size = 40;
    };

    /** Header field offsets. */
    struct HdrOff
    {
        static constexpr Bytes numBuckets = 0;
        static constexpr Bytes count = 8;
        static constexpr Bytes bucketsPtr = 16;
        static constexpr Bytes size = 24;
    };

    /** Journal field offsets. */
    struct JnlOff
    {
        static constexpr Bytes valid = 0;
        static constexpr Bytes oldBuckets = 8;
        static constexpr Bytes oldNum = 16;
        static constexpr Bytes newBuckets = 24;
        static constexpr Bytes newNum = 32;
        static constexpr Bytes size = 40;
    };

    /**
     * Rehash into @p new_num buckets inside @p tx, which frees the old
     * nodes and array with its commit. An earlier free could hand an
     * old node's storage to a lazy copy whose line still carries the
     * persist bit of an earlier eager store, and the commit would
     * overwrite old-table data the journal recovery reads. A later
     * transaction's reuse is safe: the working-set signature forces
     * the lazy copies to PM first (Section III-C).
     */
    void resize(PmContext &sys, DurableTx &tx, std::uint64_t new_num);

    /** Write one fresh node (log-free sites). */
    Addr writeFreshNode(PmContext &sys, std::uint64_t key, Addr next,
                        Addr val_ptr, std::uint64_t val_len,
                        bool as_copy);

    /** A node's durable image, its fields in NodeOff order. */
    struct DurableNode
    {
        std::uint64_t key;
        Addr next;
        Addr valPtr;
        std::uint64_t valLen;
        std::uint64_t chk;
    };
    static_assert(sizeof(DurableNode) == NodeOff::size);

    /** Read a node's durable image with one peek. */
    static DurableNode peekNode(PmContext &sys, Addr node);

    /** A durable-image chain walk entry. */
    struct Survivor
    {
        std::uint64_t key;
        Addr valPtr;
        std::uint64_t valLen;
    };

    /**
     * Walk one durable table image, calling @p visit with each
     * checksum-valid node; a chain stops at its first bad node, and the
     * walk stops after @p bound nodes, the most the table can hold (a
     * cyclic chain).
     * @return whether the table is whole: every chain ends at a null
     * pointer, every node sits in its own bucket and the walk stayed
     * within its bound.
     */
    template <typename Fn>
    bool walkDurable(PmContext &sys, Addr buckets, std::uint64_t num,
                     std::size_t bound, Fn &&visit) const;

    /**
     * Recovery's merge of a resize whose copies were lost: rebuild a
     * fresh table from @p new_set union @p old_set, the new side
     * winning, allocated in key order.
     */
    void mergeJournal(PmContext &sys, const std::vector<Survivor> &new_set,
                      const std::vector<Survivor> &old_set);

    /** Reachable allocation bases for the heap GC. */
    std::vector<Addr> collectReachable(PmContext &sys);

    /** Store sites, registered in setup(). */
    SiteId siteNodeInit = 0;    //!< fresh node fields (log-free)
    SiteId siteValueInit = 0;   //!< fresh value blob (log-free)
    SiteId siteBucketHead = 0;  //!< bucket head pointer (plain store)
    SiteId siteCount = 0;       //!< header count (lazy, deep semantics)
    SiteId siteCopyInit = 0;    //!< rehash node copies (log-free+lazy)
    SiteId siteNewBuckets = 0;  //!< fresh bucket array (log-free+lazy)
    SiteId siteHeaderSwing = 0; //!< header bucketsPtr/numBuckets
    SiteId siteJournal = 0;     //!< resize journal (plain store)
    SiteId siteDeadPoison = 0;  //!< poisoning freed nodes
                                //!< (Pattern 1b: dead region)

    Addr headerAddr = 0;   //!< cached from the root slot
    Addr journalAddr = 0;
    std::uint64_t resizeCount = 0;
};

} // namespace slpmt

#endif // SLPMT_WORKLOADS_HASHTABLE_HH
