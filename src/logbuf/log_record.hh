/**
 * @file
 * Undo/redo log records as stored in the tiered log buffer.
 *
 * A record covers 1, 2, 4, or 8 contiguous naturally-aligned words and
 * consists of the base address plus the logged data, i.e. 16, 24, 40,
 * or 72 bytes on the wire (Figure 6).
 */

#ifndef SLPMT_LOGBUF_LOG_RECORD_HH
#define SLPMT_LOGBUF_LOG_RECORD_HH

#include <array>
#include <cstdint>

#include "common/types.hh"

namespace slpmt
{

/** One log record; tier = log2(words). */
struct LogRecord
{
    Addr base = 0;              //!< span-aligned base address
    std::uint8_t words = 1;     //!< 1, 2, 4, or 8
    std::uint8_t txnId = 0;     //!< owning core-local transaction ID
    std::uint64_t txnSeq = 0;   //!< owning global transaction sequence
    std::array<std::uint8_t, cacheLineSize> data{};

    /** Bytes of payload covered. */
    Bytes spanBytes() const { return words * wordSize; }

    /** Bytes the record occupies when persisted (address + data). */
    Bytes wireBytes() const { return wordSize + spanBytes(); }

    /** Base address of the cache line this record belongs to. */
    Addr line() const { return lineBase(base); }

    /** True if the record covers any byte of @p line_addr's line. */
    bool
    touchesLine(Addr line_addr) const
    {
        return line() == lineBase(line_addr);
    }

    bool operator==(const LogRecord &) const = default;
};

} // namespace slpmt

#endif // SLPMT_LOGBUF_LOG_RECORD_HH
