/**
 * @file
 * PmContext: the machine interface programs (workloads) run against.
 *
 * The machine (McMachine, src/multicore/) gives every simulated core
 * its own transaction engine and private cache levels while sharing
 * the L3, the PM device and the persistent heap — so "the machine a
 * program sees" is one core, not the whole machine. PmContext
 * captures exactly the surface the workloads and the annotation-driven
 * store path use: transaction control, the typed/byte data path, the
 * shared heap and site registry, compute-time charging, and the
 * untimed durable peek used by recovery code. McCore implements it by
 * routing accesses through the coherence directory before its private
 * engine; the one-core PmSystem facade forwards it to core 0.
 */

#ifndef SLPMT_CORE_PM_CONTEXT_HH
#define SLPMT_CORE_PM_CONTEXT_HH

#include <cstring>
#include <type_traits>

#include "core/annotation.hh"
#include "core/heap.hh"
#include "mem/address_map.hh"
#include "txn/engine.hh"

namespace slpmt
{

/** Number of 8-byte durable root slots in the root directory. */
inline constexpr std::size_t numRootSlots = 64;

/** The machine surface one hardware context exposes to a program. */
class PmContext
{
  public:
    virtual ~PmContext() = default;

    /** @name Transaction control */
    /** @{ */
    virtual void txBegin() = 0;
    virtual void txCommit() = 0;
    virtual void txAbort() = 0;
    virtual bool inTransaction() const = 0;
    /** @} */

    /** @name Byte data path */
    /** @{ */
    virtual void readBytes(Addr addr, void *out, std::size_t len) = 0;
    virtual void writeBytes(Addr addr, const void *src,
                            std::size_t len) = 0;
    virtual void writeBytesT(Addr addr, const void *src, std::size_t len,
                             StoreFlags flags) = 0;
    virtual void writeBytesSite(Addr addr, const void *src,
                                std::size_t len, SiteId site) = 0;

    /** Untimed durable-image read (recovery code). */
    virtual void peekBytes(Addr addr, void *out,
                           std::size_t len) const = 0;
    /** @} */

    /** @name Shared machine components */
    /** @{ */
    virtual PersistentHeap &heap() = 0;
    virtual StoreSiteRegistry &sites() = 0;
    virtual const AddressMap &map() const = 0;
    /** @} */

    /** @name Time */
    /** @{ */
    virtual Cycles cycles() const = 0;

    /** Charge pure compute time (workload instruction work). */
    virtual void compute(Cycles c) = 0;

    /** Write back every dirty line and persist lazy data: reach a
     *  fully durable quiescent state between experiment phases. */
    virtual void quiesce() = 0;
    /** @} */

    /** @name Typed data path (helpers over the byte path) */
    /** @{ */
    template <typename T>
    T
    read(Addr addr)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        readBytes(addr, &value, sizeof(T));
        return value;
    }

    /** Ordinary logged, eagerly persistent store. */
    template <typename T>
    void
    write(Addr addr, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        writeBytes(addr, &value, sizeof(T));
    }

    /** storeT with explicit operands. */
    template <typename T>
    void
    writeT(Addr addr, const T &value, StoreFlags flags)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        writeBytesT(addr, &value, sizeof(T), flags);
    }

    /** Store through a registered site: the active annotation policy
     *  decides the storeT operands. */
    template <typename T>
    void
    writeSite(Addr addr, const T &value, SiteId site)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        writeBytesSite(addr, &value, sizeof(T), site);
    }

    template <typename T>
    T
    peek(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        peekBytes(addr, &value, sizeof(T));
        return value;
    }
    /** @} */

    /** @name Durable roots */
    /** @{ */
    Addr
    rootSlotAddr(std::size_t slot) const
    {
        panicIfNot(slot < numRootSlots, "root slot out of range");
        return map().heapBase() + slot * wordSize;
    }

    Addr readRoot(std::size_t slot) { return read<Addr>(rootSlotAddr(slot)); }

    /** Roots are pivotal: always logged and eagerly persistent. */
    void writeRoot(std::size_t slot, Addr value)
    {
        write<Addr>(rootSlotAddr(slot), value);
    }
    /** @} */
};

} // namespace slpmt

#endif // SLPMT_CORE_PM_CONTEXT_HH
