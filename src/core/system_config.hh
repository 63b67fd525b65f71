/**
 * @file
 * SystemConfig: everything configurable about the simulated machine.
 *
 * One configuration shapes every machine: the one-core PmSystem
 * facade and the 1-16 core McMachine it is built on (src/multicore/).
 */

#ifndef SLPMT_CORE_SYSTEM_CONFIG_HH
#define SLPMT_CORE_SYSTEM_CONFIG_HH

#include <cstddef>
#include <cstdint>

#include "cache/hierarchy.hh"
#include "mem/address_map.hh"
#include "mem/dram_device.hh"
#include "mem/pm_device.hh"
#include "txn/engine.hh"

namespace slpmt
{

/** Everything configurable about the simulated machine. */
struct SystemConfig
{
    SchemeConfig scheme = SchemeConfig::forKind(SchemeKind::SLPMT);
    LoggingStyle style = LoggingStyle::Undo;
    AddressMap map;
    PmConfig pm;
    DramConfig dram;
    HierarchyConfig hierarchy;

    /** Number of logical cores: McMachine accepts 1-16; PmSystem is
     *  the one-core machine and rejects anything else. */
    std::size_t numCores = 1;
};

} // namespace slpmt

#endif // SLPMT_CORE_SYSTEM_CONFIG_HH
