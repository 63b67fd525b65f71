/**
 * @file
 * Working-set signatures for lazy-persistency conflict tracking.
 *
 * Section III-C3: every transaction with an assigned ID gets a
 * signature recording the line addresses of its read- and write-set.
 * The hardware checks signatures on store-triggered coherence events;
 * a hit forces the lazy data of the signature's transaction out to
 * persistent memory. All signatures share the same hash functions.
 * Section III-D sizes each signature at 2048 bits (256 bytes), four
 * signatures in total.
 *
 * Because the hash functions are shared, the slot set of an address is
 * a property of the address alone: probeFor() computes it once and the
 * result can be tested against every signature. The store-triggered
 * check probes up to four signatures per store, so hoisting the mixing
 * out of the loop quarters the hash work on that hot path. The hoisted
 * and the per-call paths evaluate the identical expression
 * (mix64Salted), so the filter bit pattern is unchanged — pinned by a
 * unit test against hard-coded slot values.
 */

#ifndef SLPMT_TXN_SIGNATURE_HH
#define SLPMT_TXN_SIGNATURE_HH

#include <array>
#include <cstdint>

#include "checkpoint/serde.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace slpmt
{

/** A Bloom-filter address-set signature. */
template <std::size_t NumBits = 2048, std::size_t NumHashes = 4>
class AddressSignature
{
    static_assert(NumBits % 64 == 0, "signature width");

  public:
    static constexpr std::size_t bits = NumBits;
    static constexpr std::size_t hashes = NumHashes;

    /**
     * The precomputed slot set of one address. Valid against any
     * signature of the same geometry (they share hash functions);
     * compute once per coherence event, test many.
     */
    struct Probe
    {
        std::array<std::uint32_t, NumHashes> slots;
    };

    /** Hash an address into its slot set (line base taken once). */
    static Probe
    probeFor(Addr addr)
    {
        const Addr base = lineBase(addr);
        Probe probe;
        for (std::size_t i = 0; i < NumHashes; ++i)
            probe.slots[i] = slot(base, i);
        return probe;
    }

    /** Record a line address in the set. */
    void insert(Addr addr) { insert(probeFor(addr)); }

    void
    insert(const Probe &probe)
    {
        for (const std::uint32_t s : probe.slots)
            filter[s / 64] |= std::uint64_t{1} << (s % 64);
        count++;
    }

    /** May-contain test; false negatives are impossible. */
    bool mightContain(Addr addr) const { return mightContain(probeFor(addr)); }

    bool
    mightContain(const Probe &probe) const
    {
        for (const std::uint32_t s : probe.slots) {
            if (((filter[s / 64] >> (s % 64)) & 1) == 0)
                return false;
        }
        return true;
    }

    void
    clear()
    {
        filter.fill(0);
        count = 0;
    }

    bool empty() const { return count == 0; }
    std::uint64_t insertions() const { return count; }

    /** @name Checkpointing (the filter's 64-bit words, slot s at bit
     *  s % 64 of word s / 64) */
    /** @{ */
    void
    saveState(BlobWriter &w) const
    {
        for (const std::uint64_t word : filter)
            w.u<std::uint64_t>(word);
        w.u<std::uint64_t>(count);
    }

    void
    restoreState(BlobReader &r)
    {
        for (std::uint64_t &word : filter)
            word = r.u<std::uint64_t>();
        count = r.u<std::uint64_t>();
    }
    /** @} */

  private:
    static std::uint32_t
    slot(Addr base, std::size_t i)
    {
        // All signatures share these hash functions (Section III-C3).
        static constexpr std::array<std::uint64_t, 8> salts = {
            0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL,
            0x165667b19e3779f9ULL, 0x27d4eb2f165667c5ULL,
            0x85ebca6b27d4eb4fULL, 0xc2b2ae35d27d4ebbULL,
            0x2545f4914f6cdd1dULL, 0x94d049bb133111ebULL,
        };
        return static_cast<std::uint32_t>(
            mix64Salted(base, salts[i % salts.size()]) % NumBits);
    }

    std::array<std::uint64_t, NumBits / 64> filter{};
    std::uint64_t count = 0;
};

using Signature = AddressSignature<>;

} // namespace slpmt

#endif // SLPMT_TXN_SIGNATURE_HH
