/**
 * @file
 * Whole-machine checkpoint/restore (the gem5-style fast-forward
 * methodology applied to crash sweeps).
 *
 * A MachineCheckpoint holds the state of every component of a
 * simulated machine as a typed value: all cache levels with line data
 * and per-word log bits / txn-ID / lazy metadata, the log buffer
 * tiers, the transaction engines' registers (write sets, signatures,
 * ID allocators), the WPQ and media timing state, the undo-log tails,
 * the persistent heap tables, the stats registries and the store-site
 * registry, plus page-level copy-on-write snapshots of the PM and
 * DRAM images. Snapshots share unmodified pages with the live machine
 * and with each other, so K checkpoints of a trace cost K page tables
 * plus only the pages that diverge between them (a shared-prefix
 * chain), not K full heaps. Restore copies the values back and
 * re-derives what is derived: the cache probe keys, occupancy and
 * metadata index, and the heap's fit tree.
 *
 * The contract is bit-exactness: restoring a checkpoint into any
 * machine of the identical configuration, freshly constructed or used
 * (run on, crashed, left mid-transaction), and continuing the run
 * produces byte-identical PM images, stats snapshots, and reports to
 * a run that never checkpointed; each sweep thread restores every
 * point it runs into its one machine. A checkpoint lives in memory
 * only: there is no portable encoding and no format version.
 *
 * A checkpoint is immutable after capture; shared_ptr page refcounts
 * are atomic, so any number of sweep workers may restore from the
 * same checkpoint concurrently.
 */

#ifndef SLPMT_CHECKPOINT_CHECKPOINT_HH
#define SLPMT_CHECKPOINT_CHECKPOINT_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "multicore/machine.hh"

namespace slpmt
{

/** Thrown when a checkpoint is restored into a machine of another
 *  configuration. */
class CheckpointError : public std::runtime_error
{
  public:
    explicit CheckpointError(const std::string &what)
        : std::runtime_error("checkpoint: " + what)
    {
    }
};

/** One captured machine state (any core count; a PmSystem is the
 *  one-core McMachine). */
class MachineCheckpoint
{
  public:
    /** Capture the complete state of a machine. */
    static MachineCheckpoint capture(McMachine &machine);

    /**
     * Restore into @p machine, which must be constructed with a
     * SystemConfig equal to the one the checkpoint was captured from
     * (the construction wires every sink/client pointer; restore only
     * rewrites state) and may have run since: restore overwrites all
     * of its state and keeps nothing of its past. Throws
     * CheckpointError on a configuration mismatch. The checkpoint
     * remains valid and reusable.
     */
    void restore(McMachine &machine) const;

    /** Host-side cost estimate: distinct pages referenced. */
    std::size_t
    pagesHeld() const
    {
        return pmPages.pages.size() + dramPages.pages.size();
    }

    /** The same configuration and state values, and PM and DRAM
     *  images of the same content (whether or not pages are shared). */
    bool operator==(const MachineCheckpoint &) const = default;

  private:
    MachineCheckpoint() = default;

    /** A page-table snapshot compared by page content. */
    struct Image
    {
        PagedMemory::Snapshot pages;

        bool operator==(const Image &other) const;
    };

    struct CoreState
    {
        StatsRegistry::State stats;
        Cache::State l1;
        Cache::State l2;
        TxnEngine::State engine;

        bool operator==(const CoreState &) const = default;
    };

    SystemConfig config;
    std::uint64_t seqCounter = 0;      //!< the machine's shared registers
    std::uint64_t crashCountdown = 0;
    StatsRegistry::State sharedStats;
    StoreSiteRegistry sites;
    PersistentHeap::State heap;
    PmDevice::State pm;
    DramDevice::State dram = 0;
    Cache::State l3;
    std::vector<CoreState> cores;
    Image pmPages;    //!< durable image (CoW)
    Image dramPages;  //!< volatile image (CoW)
};

} // namespace slpmt

#endif // SLPMT_CHECKPOINT_CHECKPOINT_HH
