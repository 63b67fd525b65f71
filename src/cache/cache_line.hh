/**
 * @file
 * Cache-line state including the SLPMT metadata of Figure 5.
 *
 * Every L1 and L2 line carries, in addition to MESI state:
 *  - a persist bit: the line must be persisted at transaction commit;
 *  - a log bitmap: which parts of the line already have an undo log
 *    record (8 bits at word granularity in L1, 2 bits at 32-byte
 *    granularity in L2, none in L3);
 *  - a 2-bit transaction ID naming the core-local transaction that
 *    last updated the line, used by lazy persistency.
 *
 * The struct holds only the per-line architectural state. Everything
 * the replacement and lookup loops scan — the probe keys (tag-or-
 * sentinel), the LRU timestamps, and the metadata line index links —
 * lives in structure-of-arrays form inside Cache, indexed by frame id,
 * so the hot loops stride over small contiguous arrays instead of
 * pulling a whole CacheLine per way. Clients keep holding CacheLine
 * pointers and detached CacheLine copies; those stay valid because the
 * frames themselves never move. CacheLine must stay an implicit-
 * lifetime type (trivially copyable and destructible), since the
 * frames begin their lifetime in raw storage.
 */

#ifndef SLPMT_CACHE_CACHE_LINE_HH
#define SLPMT_CACHE_CACHE_LINE_HH

#include <array>
#include <cstdint>

#include "common/types.hh"

namespace slpmt
{

/** MESI coherence states (single-writer, multiple-reader). */
enum class MesiState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Sentinel meaning "no transaction owns this line". */
inline constexpr std::uint8_t noTxnId = 0xFF;

/** One cache line with SLPMT metadata. */
struct CacheLine
{
    Addr tag = 0;                 //!< line-aligned base address
    MesiState state = MesiState::Invalid;
    bool dirty = false;           //!< newer than the next level down

    bool persistBit = false;      //!< persist at commit (Table I)
    std::uint8_t logBits = 0;     //!< per-word (L1) / per-32B (L2) map
    std::uint8_t txnId = noTxnId; //!< owning core-local transaction

    std::uint64_t txnSeq = 0;     //!< global sequence of owning txn

    /**
     * No default member initializer: every fill overwrites the whole
     * line, and a Cache's frames live in raw storage that no
     * constructor touches (cache.hh) — a frame's fields, these bytes
     * included, are defined only while its probe key marks it valid.
     */
    std::array<std::uint8_t, cacheLineSize> data;

    bool valid() const { return state != MesiState::Invalid; }

    bool operator==(const CacheLine &) const = default;

    /**
     * The line carries transactional metadata and must be visited by
     * boundary sweeps. Matches the private-eviction hook predicate in
     * CacheHierarchy::evictFromL2 — the two must stay in sync with the
     * index maintenance rule.
     */
    bool
    hasTxnMeta() const
    {
        return persistBit || logBits != 0 || txnId != noTxnId;
    }

    /** Clear all transactional metadata (line content untouched). */
    void
    clearTxnMeta()
    {
        persistBit = false;
        logBits = 0;
        txnId = noTxnId;
        txnSeq = 0;
    }

    /**
     * Reset to an invalid line. When the line is a frame of a Cache
     * array (not a detached copy), the owning cache's probe key must
     * be dropped too — prefer Cache::invalidateFrame(), which does
     * both.
     */
    void
    invalidate()
    {
        state = MesiState::Invalid;
        dirty = false;
        clearTxnMeta();
    }
};

/**
 * Aggregate an 8-bit L1 word-granularity log map into the 2-bit L2
 * 32-byte-granularity map: each L2 bit is the conjunction of the four
 * L1 bits it covers (Section III-B1).
 */
constexpr std::uint8_t
aggregateLogBits(std::uint8_t l1_bits)
{
    const std::uint8_t lo = l1_bits & 0x0F;
    const std::uint8_t hi = (l1_bits >> 4) & 0x0F;
    return static_cast<std::uint8_t>((lo == 0x0F ? 1 : 0) |
                                     (hi == 0x0F ? 2 : 0));
}

/**
 * Replicate a 2-bit L2 log map back into the 8-bit L1 map when a line
 * is fetched from L2 into L1 (the reverse of aggregateLogBits()).
 */
constexpr std::uint8_t
replicateLogBits(std::uint8_t l2_bits)
{
    return static_cast<std::uint8_t>(((l2_bits & 1) ? 0x0F : 0) |
                                     ((l2_bits & 2) ? 0xF0 : 0));
}

} // namespace slpmt

#endif // SLPMT_CACHE_CACHE_LINE_HH
