/**
 * @file
 * OracleView: the machine as an oracle or verifier reads it.
 *
 * A checker that reads a structure through a core (McCore) drives
 * simulated loads: they fill caches, update LRU order, advance the
 * core's clock, bump counters, probe the other cores and fire the
 * lazy-persistency drains of Section III-C3 (a transaction ID
 * observed, an eviction). The checker would then both pay for a
 * simulation and change the durable state it is judging.
 *
 * The view reads each line's newest copy through
 * McMachine::observeLine() instead, and touches nothing. It is a
 * PmContext so the workloads' own lookup(), count() and
 * checkConsistency() run on it unchanged, but it refuses every
 * mutation: a store, transaction control or quiesce panics, and so
 * does building a view while any core is inside a transaction (a
 * timed load there may restore redo-evicted data, which the view does
 * not model). Because nothing can change under it, the view memoises
 * the lines it observed in a small direct-mapped table, exactly: a
 * memoised line's bytes are the ones observeLine() would return again.
 */

#ifndef SLPMT_MULTICORE_ORACLE_VIEW_HH
#define SLPMT_MULTICORE_ORACLE_VIEW_HH

#include <algorithm>
#include <array>
#include <cstring>

#include "multicore/machine.hh"

namespace slpmt
{

/** A read-only, side-effect-free PmContext over a whole machine. */
class OracleView final : public PmContext
{
  public:
    /** Panics if any core of @p machine is inside a transaction. */
    explicit OracleView(McMachine &machine);

    /** @name Refused: the view never changes the machine */
    /** @{ */
    void txBegin() override { refuse("txBegin"); }
    void txCommit() override { refuse("txCommit"); }
    void txAbort() override { refuse("txAbort"); }
    void writeBytes(Addr, const void *, std::size_t) override
    {
        refuse("a store");
    }
    void writeBytesT(Addr, const void *, std::size_t, StoreFlags) override
    {
        refuse("a store");
    }
    void writeBytesSite(Addr, const void *, std::size_t, SiteId) override
    {
        refuse("a store");
    }
    void quiesce() override { refuse("quiesce"); }
    /** @} */

    bool inTransaction() const override { return false; }

    void
    readBytes(Addr addr, void *out, std::size_t len) override
    {
        auto *dst = static_cast<std::uint8_t *>(out);
        while (len > 0) {
            const Addr line = lineBase(addr);
            const std::size_t off = addr - line;
            const std::size_t chunk = std::min(len, cacheLineSize - off);
            Memo &memo = memos[(line / cacheLineSize) % memos.size()];
            if (memo.line != line) {
                memo.bytes = machine.observeLine(line);
                memo.line = line;
            }
            // Word and whole-line copies, the structures' common reads,
            // take a fixed-size copy.
            if (!memo.bytes)
                std::memset(dst, 0, chunk);
            else if (chunk == sizeof(std::uint64_t))
                std::memcpy(dst, memo.bytes + off, sizeof(std::uint64_t));
            else if (chunk == cacheLineSize)
                std::memcpy(dst, memo.bytes, cacheLineSize);
            else
                std::memcpy(dst, memo.bytes + off, chunk);
            addr += chunk;
            dst += chunk;
            len -= chunk;
        }
    }

    /** The durable image, as McCore::peekBytes reads it. */
    void
    peekBytes(Addr addr, void *out, std::size_t len) const override
    {
        machine.pm().peek(addr, out, len);
    }

    PersistentHeap &heap() override { return machine.heap(); }
    StoreSiteRegistry &sites() override { return machine.sites(); }
    const AddressMap &map() const override { return machine.map(); }

    /** Core 0's clock, which the view never advances. */
    Cycles cycles() const override { return machine.core(0).cycles(); }

    /** Checker work is not simulated work. */
    void compute(Cycles) override {}

  private:
    [[noreturn]] static void refuse(const char *what);

    McMachine &machine;

    /** One observed line and its bytes (nullptr: zeros). Line bases
     *  are 64-byte aligned, so the all-ones start never hits. */
    struct Memo
    {
        Addr line = ~Addr{0};
        const std::uint8_t *bytes = nullptr;
    };

    /** Observed lines, direct-mapped by line number. */
    std::array<Memo, 256> memos{};
};

} // namespace slpmt

#endif // SLPMT_MULTICORE_ORACLE_VIEW_HH
