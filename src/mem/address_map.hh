/**
 * @file
 * Physical address map of the simulated machine.
 *
 * One DRAM range and one persistent-memory range. The transaction
 * engine consults the map to decide whether a store participates in
 * durability at all, and the persistent heap allocates exclusively
 * from the PM range.
 */

#ifndef SLPMT_MEM_ADDRESS_MAP_HH
#define SLPMT_MEM_ADDRESS_MAP_HH

#include "common/logging.hh"
#include "common/types.hh"

namespace slpmt
{

/** Static partition of the physical address space. */
struct AddressMap
{
    Addr dramBase = 0x0000'0000;
    Bytes dramSize = 256ULL << 20;
    Addr pmBase = 0x4000'0000;
    Bytes pmSize = 1024ULL << 20;

    /** Start of the PM region reserved for the hardware undo-log area. */
    Addr
    logAreaBase() const
    {
        return pmBase;
    }

    /** Size of the hardware log area (generous: logs are truncated
     *  at every commit, so 16 MB bounds any single transaction). */
    Bytes logAreaSize() const { return 16ULL << 20; }

    /** Start of the PM region handed to the persistent heap. */
    Addr heapBase() const { return pmBase + logAreaSize(); }
    Bytes heapSize() const { return pmSize - logAreaSize(); }

    bool
    isPm(Addr addr) const
    {
        return addr >= pmBase && addr < pmBase + pmSize;
    }

    bool
    isDram(Addr addr) const
    {
        return addr >= dramBase && addr < dramBase + dramSize;
    }

    void
    checkMapped(Addr addr) const
    {
        if (!isPm(addr) && !isDram(addr))
            panic("access to unmapped address");
    }

    bool operator==(const AddressMap &) const = default;
};

} // namespace slpmt

#endif // SLPMT_MEM_ADDRESS_MAP_HH
