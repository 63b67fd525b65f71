/**
 * @file
 * blinktree: a RECIPE-style durable B-link tree.
 *
 * Leaves keep their entries in *unsorted* slots guarded by a validity
 * bitmap plus a high key and a right-sibling link (Lehman/Yao). A slot
 * is logically live iff its bitmap bit is set AND its key is below the
 * leaf's high key — so every mutation reduces to one final single-word
 * publication store: entry insert/remove flip a bitmap bit, updates
 * swing a value pointer, and a leaf split *cuts the high key* after
 * building the fresh right sibling and linking it. The intermediate
 * states a crash can expose (bitmap residue above the high key, a
 * sibling linked but missing from its parent) are benign
 * inconsistencies that the next writer or recovery repairs — the
 * RECIPE "writers fix inconsistency" discipline.
 *
 * Under SLPMT the sibling build is Pattern-1 log-free (fresh
 * allocation), slot pre-publication writes and every single-word
 * publication are manually annotated log-free (deep-semantics
 * justifications — bitmap guard, final-store-before-commit — that the
 * compiler pass refuses), and the element count is Pattern-2 lazy.
 * Internal nodes stay classically logged: they are the rare path, and
 * the contrast against the log-free leaf fast path is the point.
 */

#ifndef SLPMT_WORKLOADS_BLINKTREE_HH
#define SLPMT_WORKLOADS_BLINKTREE_HH

#include "workloads/workload.hh"

namespace slpmt
{

/** The durable log-free B-link tree. */
class BlinkTreeWorkload : public Workload
{
  public:
    static constexpr std::size_t headerRootSlot = 9;

    /** Slots per leaf (bitmap bits) and keys per internal node. */
    static constexpr std::uint64_t leafSlots = 7;
    static constexpr std::uint64_t maxKeys = 7;
    static constexpr std::uint64_t fullMask = (1ULL << leafSlots) - 1;

    std::string name() const override { return "blinktree"; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<BlinkTreeWorkload>(*this);
    }
    void setup(PmContext &sys) override;
    void insert(PmContext &sys, std::uint64_t key,
                const std::vector<std::uint8_t> &value) override;
    bool update(PmContext &sys, std::uint64_t key,
                const std::vector<std::uint8_t> &value) override;
    bool lookup(PmContext &sys, std::uint64_t key,
                std::vector<std::uint8_t> *out) override;
    bool remove(PmContext &sys, std::uint64_t key) override;
    std::size_t count(PmContext &sys) override;
    void recover(PmContext &sys) override;
    bool checkConsistency(PmContext &sys, std::string *why) override;

    /** Writers-fix-inconsistency events (writers and recover()). */
    struct RepairStats
    {
        std::uint64_t parentFixes = 0;    //!< siblings attached late
        std::uint64_t residueSweeps = 0;  //!< stale bitmap bits swept
        std::uint64_t countFixes = 0;     //!< element count recomputed

        std::uint64_t
        total() const
        {
            return parentFixes + residueSweeps + countFixes;
        }
    };
    const RepairStats &repairs() const { return repairStats; }

  private:
    static constexpr std::uint64_t tagLeaf = 0;
    static constexpr std::uint64_t tagInternal = 1;

    /** Exclusive upper bound of the rightmost node at each level. */
    static constexpr std::uint64_t highInf = ~std::uint64_t{0};

    /**
     * Node layout (words): tag, meta (leaf: bitmap; internal:
     * numKeys), highKey, next, keys[7], then leaf: valPtrs[7] /
     * internal: children[8]. A uniform 19-word (152-byte) allocation
     * covers both. Internal nodes are never half-split (their edits
     * are single logged transactions), so they keep highKey = inf and
     * next = 0.
     */
    struct NodeOff
    {
        static constexpr Bytes tag = 0;
        static constexpr Bytes meta = 8;
        static constexpr Bytes highKey = 16;
        static constexpr Bytes next = 24;
        static constexpr Bytes keys = 32;                 // 7 words
        static constexpr Bytes valPtrs = keys + 7 * 8;    // 7 words
        static constexpr Bytes children = keys + 7 * 8;   // 8 words
        static constexpr Bytes size = children + 8 * 8;
    };

    struct HdrOff
    {
        static constexpr Bytes root = 0;
        static constexpr Bytes count = 8;
        static constexpr Bytes size = 16;
    };

    Addr keyAddr(Addr n, std::uint64_t i) const
    {
        return n + NodeOff::keys + i * 8;
    }
    Addr valPtrAddr(Addr n, std::uint64_t i) const
    {
        return n + NodeOff::valPtrs + i * 8;
    }
    Addr childAddr(Addr n, std::uint64_t i) const
    {
        return n + NodeOff::children + i * 8;
    }

    /** Root-to-leaf walk for @p key (no sibling chasing). */
    struct Descent
    {
        std::vector<Addr> path;          //!< internal nodes, root first
        std::vector<std::uint64_t> idx;  //!< child index taken at each
        Addr leaf = 0;
    };
    Descent descend(PmContext &sys, std::uint64_t key);

    /** Bitmap bits that are logically live / stale residue. */
    std::uint64_t liveMask(PmContext &sys, Addr leaf);
    std::uint64_t residueMask(PmContext &sys, Addr leaf);

    /** Live slot index holding @p key, or leafSlots when absent. */
    std::uint64_t findSlot(PmContext &sys, Addr leaf, std::uint64_t key);

    Addr allocNode(PmContext &sys, std::uint64_t tag);

    /**
     * Insert separator @p sep with right child @p child into the
     * parent stack of @p d (cascading internal splits, new root if
     * needed). Runs inside the caller's open transaction: internal
     * edits are classically logged, so the whole fix is atomic.
     */
    void insertIntoParents(PmContext &sys, const Descent &d,
                           std::uint64_t sep, Addr child);

    /** Sorted separator/child insert into a non-full internal node. */
    void insertEntry(PmContext &sys, Addr node, std::uint64_t sep,
                     Addr child);

    /** Split the full leaf of @p d (three transactions: build+cut,
     *  residue sweep, parent attach). */
    void splitLeaf(PmContext &sys, const Descent &d);

    /** Sweep stale bitmap residue off @p leaf (one transaction). */
    void sweepResidue(PmContext &sys, Addr leaf, std::uint64_t mask);

    bool checkNode(PmContext &sys, Addr node, std::uint64_t lo,
                   std::uint64_t hi, std::size_t depth,
                   std::size_t *leaf_depth, std::size_t *n,
                   Addr *prev_leaf, std::string *why);

    void collectNodes(PmContext &sys, Addr node,
                      std::vector<Addr> *internals,
                      std::vector<Addr> *leaves);

    SiteId siteFreshNode = 0;  //!< sibling/root build (Pattern 1a)
    SiteId siteValueInit = 0;  //!< blob init (Pattern 1a)
    SiteId siteSlot = 0;       //!< slot write under bitmap guard (deep)
    SiteId sitePublish = 0;    //!< bitmap set (deep, final store)
    SiteId siteUnpublish = 0;  //!< bitmap clear (deep, final store)
    SiteId siteValSwing = 0;   //!< value-pointer swing (deep, final)
    SiteId siteHighKey = 0;    //!< split cut (deep, final store)
    SiteId siteResidue = 0;    //!< residue sweep (deep, final store)
    SiteId siteLink = 0;       //!< sibling link (logged)
    SiteId siteEntry = 0;      //!< internal entry shifts (logged)
    SiteId siteMeta = 0;       //!< internal numKeys / root (logged)
    SiteId siteCount = 0;      //!< element count (Pattern 2, lazy)

    Addr headerAddr = 0;
    RepairStats repairStats;
};

} // namespace slpmt

#endif // SLPMT_WORKLOADS_BLINKTREE_HH
