/**
 * @file
 * Common interface of the durable data-structure workloads (Table II).
 *
 * Every workload is a persistent key-value container built on the
 * PmContext API — the surface each core of the machine implements
 * (the one-core PmSystem forwards it to its core). Insertions run as
 * one durable transaction each, with storeT annotations issued
 * through registered store sites so the same code runs under the
 * manual, compiler, or null annotation policy. Each workload also implements its crash recovery — the
 * structure-specific fix-up of log-free and lazily persistent data
 * that Section IV assigns to the program/runtime — and a deep
 * consistency checker used by the property tests.
 *
 * Two workload families implement the interface: the logging-reliant
 * structures (hashtable, rbtree, heap, avl, kv-btree, kv-ctree,
 * kv-rtree), whose durability comes from the schemes' undo/redo
 * machinery, and the log-free-by-design index structures (skiplist,
 * blinktree), which are crash consistent through single-atomic-store
 * publication and writers-fix-inconsistency repair, and use the
 * selective-logging annotations to *eliminate* records rather than to
 * defer them. `factory.hh` groups them (kernelWorkloads, kvWorkloads,
 * indexWorkloads).
 */

#ifndef SLPMT_WORKLOADS_WORKLOAD_HH
#define SLPMT_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pm_context.hh"
#include "core/tx.hh"

namespace slpmt
{

/**
 * Instruction-work constants charged by the workloads on top of the
 * simulated memory-access latencies. Calibrated once against the
 * paper's absolute speedup band (a transactional PM insert executes
 * a few thousand instructions: allocator, key hashing/comparison,
 * transaction runtime); the *relative* results across schemes are
 * driven by the memory system, not by these constants.
 */
namespace opcost
{

/** Per-insert fixed work: allocation, argument marshalling, runtime. */
inline constexpr Cycles insertBase = 900;

/** Per node visited during a descent/probe. */
inline constexpr Cycles perLevel = 25;

/** Per 64 bytes of value payload staged and copied. */
inline constexpr Cycles perValueLine = 40;

/** Per element moved during a bulk reorganisation (rehash, grow). */
inline constexpr Cycles perMove = 60;

/** Work for one value payload of @p bytes. */
constexpr Cycles
valueWork(std::size_t bytes)
{
    return (static_cast<Cycles>(bytes) / 64 + 1) * perValueLine;
}

} // namespace opcost

/** A durable key-value container under test. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Workload name as used in the paper's figures. */
    virtual std::string name() const = 0;

    /**
     * Copy of this workload's host-side state (roots, site IDs,
     * cursors — the durable structure itself lives in the simulated
     * machine). Checkpointed crash sweeps pair a machine restore with
     * a workload clone taken at the same instant.
     */
    virtual std::unique_ptr<Workload> clone() const = 0;

    /**
     * Create the empty durable structure (registers store sites,
     * allocates roots). Leaves the system quiesced.
     */
    virtual void setup(PmContext &sys) = 0;

    /** Insert one key/value pair in one durable transaction. */
    virtual void insert(PmContext &sys, std::uint64_t key,
                        const std::vector<std::uint8_t> &value) = 0;

    /**
     * Replace an existing key's value out of place in one durable
     * transaction, through the value protocol below: a fresh value,
     * a swing of the node's value words, and a free of the old value
     * that commits with the transaction (a reuse before the commit
     * could durably overwrite data the rollback still points at).
     *
     * @return false when the key is absent (no transaction runs)
     */
    virtual bool update(PmContext &sys, std::uint64_t key,
                        const std::vector<std::uint8_t> &value) = 0;

    /** Look a key up; fills @p out when found. */
    virtual bool lookup(PmContext &sys, std::uint64_t key,
                        std::vector<std::uint8_t> *out) = 0;

    /**
     * Remove a key in one durable transaction. Removal is where the
     * paper's Pattern-1b applies: stores into the region the
     * transaction frees (poisoning the dead node) need neither
     * logging nor persistence, so they are issued as lazy log-free
     * storeT. Implemented by the structures with simple unlink paths
     * (hashtable, kv-ctree, heap, skiplist, blinktree); the default
     * reports "unsupported".
     *
     * @return false when the key is absent or removal is unsupported
     */
    virtual bool
    remove(PmContext &sys, std::uint64_t key)
    {
        (void)sys;
        (void)key;
        return false;
    }

    /** Number of keys currently stored (walks the structure). */
    virtual std::size_t count(PmContext &sys) = 0;

    /**
     * Post-crash structure recovery. Called after the hardware undo
     * replay; rebuilds log-free/lazy data from durable state, then
     * garbage-collects leaked allocations.
     */
    virtual void recover(PmContext &sys) = 0;

    /**
     * Deep invariant check (structure-specific: hash placement, BST
     * order, balance, checksums, ...).
     *
     * @param why set to a diagnostic when the check fails
     */
    virtual bool checkConsistency(PmContext &sys, std::string *why) = 0;
};

/**
 * @name The value protocol
 * A value lives out of place, in a fresh heap block its node points
 * at, in one of two formats: a pointer word and a length word in the
 * node, or one pointer word to a length-prefixed blob ([len:8][bytes];
 * skiplist and blinktree), which a single store publishes. A fresh
 * block is written through a log-free fresh-allocation site (Pattern
 * 1: a crash leaks it and recovery's heap rebuild reclaims it).
 */
/** @{ */

/** A fresh block holding @p value, written through @p site. */
inline Addr
writeFreshValue(PmContext &sys, const std::vector<std::uint8_t> &value,
                SiteId site)
{
    const Addr block = sys.heap().alloc(value.size());
    sys.writeBytesSite(block, value.data(), value.size(), site);
    return block;
}

/** A fresh length-prefixed blob holding @p value. */
inline Addr
writeFreshBlob(PmContext &sys, const std::vector<std::uint8_t> &value,
               SiteId site)
{
    const Addr blob = sys.heap().alloc(8 + value.size());
    sys.writeSite<std::uint64_t>(blob, value.size(), site);
    if (!value.empty())
        sys.writeBytesSite(blob + 8, value.data(), value.size(), site);
    return blob;
}

/** Read the value whose pointer and length words are at @p ptr and
 *  @p len into @p out, unless @p out is null. */
inline void
readValue(PmContext &sys, Addr ptr, Addr len,
          std::vector<std::uint8_t> *out)
{
    if (!out)
        return;
    const Addr block = sys.read<Addr>(ptr);
    out->resize(sys.read<std::uint64_t>(len));
    sys.readBytes(block, out->data(), out->size());
}

/** readValue for the blob whose pointer word is at @p ptr. */
inline void
readBlob(PmContext &sys, Addr ptr, std::vector<std::uint8_t> *out)
{
    if (!out)
        return;
    const Addr blob = sys.read<Addr>(ptr);
    out->resize(sys.read<std::uint64_t>(blob));
    if (!out->empty())
        sys.readBytes(blob + 8, out->data(), out->size());
}

/** Replace the value whose words are at @p ptr and @p len in one
 *  transaction: write it fresh through @p value_site, swing both words
 *  through @p swing_site, and free the old block with the commit. */
inline void
replaceValue(PmContext &sys, Addr ptr, Addr len,
             const std::vector<std::uint8_t> &value, SiteId value_site,
             SiteId swing_site)
{
    DurableTx tx(sys);
    sys.compute(opcost::insertBase + opcost::valueWork(value.size()));
    const Addr fresh = writeFreshValue(sys, value, value_site);
    tx.free(sys.read<Addr>(ptr));
    sys.writeSite<Addr>(ptr, fresh, swing_site);
    sys.writeSite<std::uint64_t>(len, value.size(), swing_site);
    tx.commit();
}

/** replaceValue for a blob: the swing is the one pointer word, the
 *  transaction's final store. */
inline void
replaceBlob(PmContext &sys, Addr ptr,
            const std::vector<std::uint8_t> &value, SiteId value_site,
            SiteId swing_site)
{
    DurableTx tx(sys);
    sys.compute(opcost::insertBase + opcost::valueWork(value.size()));
    const Addr fresh = writeFreshBlob(sys, value, value_site);
    tx.free(sys.read<Addr>(ptr));
    sys.writeSite<Addr>(ptr, fresh, swing_site);
    tx.commit();
}
/** @} */

/** Null-terminated diagnostic helper. */
inline bool
failCheck(std::string *why, const std::string &msg)
{
    if (why)
        *why = msg;
    return false;
}

} // namespace slpmt

#endif // SLPMT_WORKLOADS_WORKLOAD_HH
