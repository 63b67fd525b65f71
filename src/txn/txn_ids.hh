/**
 * @file
 * Circular allocator for core-local transaction IDs (Section III-C2).
 *
 * Each L1/L2 line carries a 2-bit transaction ID, so four IDs exist
 * per core. The transaction register keeps first/last free pointers
 * into a fixed circle of IDs: allocation always advances around the
 * circle (it never reuses a just-released ID out of order), and when
 * the next slot is still held by an earlier transaction the hardware
 * reclaims it, persisting that transaction's lazy data first.
 * Organising the IDs as a circle bounds how long any committed
 * transaction's data can stay volatile — running numIds empty
 * transactions flushes every lazily persistent line (Section III-C4).
 */

#ifndef SLPMT_TXN_TXN_IDS_HH
#define SLPMT_TXN_TXN_IDS_HH

#include <cstdint>
#include <deque>

#include "common/logging.hh"

namespace slpmt
{

/** Circular transaction-ID allocator. */
class TxnIdAllocator
{
  public:
    static constexpr std::uint8_t defaultNumIds = 4;

    explicit TxnIdAllocator(std::uint8_t num_ids = defaultNumIds)
        : numIds(num_ids)
    {
        panicIfNot(num_ids > 0 && num_ids < noTxnIdSentinel,
                   "invalid transaction ID count");
        reset();
    }

    /** Is the next slot of the circle free to allocate? */
    bool hasFree() const { return !isLive(nextAlloc); }

    /**
     * Allocate the next ID around the circle. The caller must have
     * reclaimed the blocking ID first if hasFree() is false.
     */
    std::uint8_t
    allocate()
    {
        panicIfNot(hasFree(), "transaction ID allocation with none free");
        const std::uint8_t id = nextAlloc;
        nextAlloc = static_cast<std::uint8_t>((nextAlloc + 1) % numIds);
        liveIds.push_back(id);
        return id;
    }

    /** The ID occupying the next circle slot (the reclaim victim). */
    std::uint8_t
    blockingId() const
    {
        panicIfNot(!hasFree(), "no blocking transaction ID");
        return nextAlloc;
    }

    /** The earliest still-allocated ID. */
    std::uint8_t
    oldestLive() const
    {
        panicIfNot(!liveIds.empty(), "no live transaction ID");
        return liveIds.front();
    }

    bool anyLive() const { return !liveIds.empty(); }
    std::size_t liveCount() const { return liveIds.size(); }

    /** Live IDs oldest-first (lazy persists walk this order). */
    const std::deque<std::uint8_t> &live() const { return liveIds; }

    /** Release an ID (its lazy data is fully persisted). */
    void
    release(std::uint8_t id)
    {
        for (auto it = liveIds.begin(); it != liveIds.end(); ++it) {
            if (*it == id) {
                liveIds.erase(it);
                return;
            }
        }
        panic("releasing transaction ID that is not live");
    }

    /** Forget everything (crash). */
    void
    reset()
    {
        liveIds.clear();
        nextAlloc = 0;
    }

    std::uint8_t idCount() const { return numIds; }

    /** A copy is the allocator's whole state (checkpoints hold one). */
    bool operator==(const TxnIdAllocator &) const = default;

  private:
    static constexpr std::uint8_t noTxnIdSentinel = 0xFF;

    bool
    isLive(std::uint8_t id) const
    {
        for (std::uint8_t live_id : liveIds) {
            if (live_id == id)
                return true;
        }
        return false;
    }

    std::uint8_t numIds;
    std::uint8_t nextAlloc = 0;        //!< the circle pointer
    std::deque<std::uint8_t> liveIds;  //!< allocation order, oldest first
};

} // namespace slpmt

#endif // SLPMT_TXN_TXN_IDS_HH
