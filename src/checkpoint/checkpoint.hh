/**
 * @file
 * Whole-machine checkpoint/restore (the gem5-style fast-forward
 * methodology applied to crash sweeps).
 *
 * A MachineCheckpoint captures every architectural register of a
 * simulated machine — all cache levels with line data and per-word
 * log bits / txn-ID / lazy metadata (the metadata line index is
 * rebuilt on restore), log buffer tiers, the transaction engine's
 * write sets, signatures and ID allocator, the WPQ and media timing
 * state, the undo-log tail, the persistent heap tables, the stats
 * registry, and the store-site registry — plus page-level
 * copy-on-write snapshots of the PM and DRAM images. Snapshots share
 * unmodified pages with the live machine and with each other, so K
 * checkpoints of a trace cost K page tables plus only the pages that
 * diverge between them (a shared-prefix chain), not K full heaps.
 *
 * The contract is bit-exactness: restoring a checkpoint into any
 * machine of the identical configuration, freshly constructed or used
 * (run on, crashed, left mid-transaction), and continuing the run
 * produces byte-identical PM images, stats snapshots, and reports to
 * a run that never checkpointed; each sweep thread restores every
 * point it runs into its one machine. The in-memory form is what the
 * crash sweeps fork from; toBytes() / fromBytes() add a versioned,
 * fingerprinted, CRC-protected portable encoding used by the
 * round-trip and rejection tests.
 *
 * A checkpoint is immutable after capture; shared_ptr page refcounts
 * are atomic, so any number of sweep workers may restore from the
 * same checkpoint concurrently.
 */

#ifndef SLPMT_CHECKPOINT_CHECKPOINT_HH
#define SLPMT_CHECKPOINT_CHECKPOINT_HH

#include <cstdint>
#include <vector>

#include "checkpoint/serde.hh"
#include "mem/paged_memory.hh"

namespace slpmt
{

class McMachine;

/** One captured machine state (any core count; a PmSystem is the
 *  one-core McMachine). */
class MachineCheckpoint
{
  public:
    /** Bumped on any change to the serialized layout. */
    static constexpr std::uint32_t formatVersion = 3;

    /** Capture the complete state of a machine. */
    static MachineCheckpoint capture(McMachine &machine);

    /**
     * Restore into @p machine, which must be constructed with the
     * same SystemConfig the checkpoint was captured from (the
     * construction re-wires every sink/client pointer; restore only
     * rewrites state) and may have run since: restore overwrites all
     * of its state and keeps nothing of its past. Throws
     * CheckpointError on a configuration-fingerprint mismatch. The
     * checkpoint remains valid and reusable.
     */
    void restore(McMachine &machine) const;

    /** Portable encoding: header + state blob + pages + CRC trailer. */
    std::vector<std::uint8_t> toBytes() const;

    /**
     * Decode a portable checkpoint. Throws CheckpointError on a bad
     * magic, an unsupported format version, a CRC mismatch, or any
     * truncation.
     */
    static MachineCheckpoint
    fromBytes(const std::vector<std::uint8_t> &bytes);

    /** The capture-time configuration fingerprint. */
    std::uint64_t configFingerprint() const { return fingerprint; }

    /** Host-side cost estimate: distinct pages referenced. */
    std::size_t
    pagesHeld() const
    {
        return pmPages.size() + dramPages.size();
    }

  private:
    MachineCheckpoint() = default;

    std::uint64_t fingerprint = 0;    //!< machine configuration hash
    std::vector<std::uint8_t> blob;   //!< non-page architectural state
    PagedMemory::Snapshot pmPages;    //!< durable image (CoW)
    PagedMemory::Snapshot dramPages;  //!< volatile image (CoW)
};

/** Configuration fingerprint (exposed for tests). */
std::uint64_t checkpointFingerprint(const McMachine &machine);

} // namespace slpmt

#endif // SLPMT_CHECKPOINT_CHECKPOINT_HH
