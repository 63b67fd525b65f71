/**
 * @file
 * skiplist: a PHAST-style log-free durable skip list.
 *
 * Unlike the logging-reliant workloads, this structure is crash
 * consistent *by algorithm design* (Li et al., TPDS 2022): every
 * mutation prepares fresh state off to the side and then becomes
 * visible through one final single-word publication store. Under
 * SLPMT the publication store is annotated log-free (it is the last
 * store of its transaction, immediately followed by the commit, so it
 * is durable exactly when the transaction is — a deep-semantics
 * justification the compiler pass refuses and only the manual
 * annotation can supply), the fresh node and value-blob
 * initialisations are Pattern-1 log-free stores into fresh
 * allocations, and the tower links above level 0 plus the element
 * count are Pattern-2 lazy stores that recovery rebuilds from the
 * durable level-0 chain. The result: an insert, update or remove
 * commits with *zero* undo/redo records under SLPMT — software
 * log-freedom expressed through hardware selective logging.
 */

#ifndef SLPMT_WORKLOADS_SKIPLIST_HH
#define SLPMT_WORKLOADS_SKIPLIST_HH

#include "workloads/workload.hh"

namespace slpmt
{

/** The durable log-free skip list. */
class SkipListWorkload : public Workload
{
  public:
    static constexpr std::size_t headerRootSlot = 8;

    /** Tower levels (level 0 is the durable ground-truth chain). */
    static constexpr std::uint64_t maxHeight = 8;

    std::string name() const override { return "skiplist"; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<SkipListWorkload>(*this);
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

    /** Deterministic tower height for @p key (p = 1/4 per level). */
    static std::uint64_t towerHeight(std::uint64_t key);

    /** Fix-ups performed by recover() on lazy/advisory state. */
    struct RepairStats
    {
        std::uint64_t upperLinks = 0;  //!< stale tower links rewired
        std::uint64_t countFixes = 0;  //!< element count recomputed
        std::uint64_t deadMarks = 0;   //!< advisory marks cleared

        std::uint64_t
        total() const
        {
            return upperLinks + countFixes + deadMarks;
        }
    };
    const RepairStats &repairs() const { return repairStats; }

  private:
    /**
     * Node layout (words): key, height, valPtr, deadMark, then the
     * tower next[maxHeight]. deadMark is purely advisory (set by
     * removals as a Pattern-1b dead-region store): nothing reads it
     * on the live path, so it is harmless if it becomes durable
     * while the removing transaction aborts.
     */
    struct NodeOff
    {
        static constexpr Bytes key = 0;
        static constexpr Bytes height = 8;
        static constexpr Bytes valPtr = 16;
        static constexpr Bytes deadMark = 24;
        static constexpr Bytes next = 32;  // maxHeight words
        static constexpr Bytes size = next + maxHeight * 8;
    };

    struct HdrOff
    {
        static constexpr Bytes head = 0;
        static constexpr Bytes count = 8;
        static constexpr Bytes size = 16;
    };

    Addr
    nextAddr(Addr node, std::uint64_t level) const
    {
        return node + NodeOff::next + level * 8;
    }

    /** Timed search: fill the predecessor/successor frontier. */
    void search(PmContext &sys, std::uint64_t key, Addr *preds,
                Addr *succs);

    SiteId siteFreshNode = 0;  //!< node init (Pattern 1a, fresh)
    SiteId siteValueInit = 0;  //!< blob init (Pattern 1a, fresh)
    SiteId siteUpperLink = 0;  //!< tower links > 0 (Pattern 2, lazy)
    SiteId sitePublish = 0;    //!< level-0 publication (deep, manual)
    SiteId siteUnlink = 0;     //!< level-0 unlink (deep, manual)
    SiteId siteDeadMark = 0;   //!< dying node mark (Pattern 1b)
    SiteId siteCount = 0;      //!< element count (Pattern 2, lazy)

    Addr headerAddr = 0;
    RepairStats repairStats;
};

} // namespace slpmt

#endif // SLPMT_WORKLOADS_SKIPLIST_HH
