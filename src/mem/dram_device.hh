/**
 * @file
 * Volatile DRAM device backing the non-persistent address range.
 *
 * Table III specifies DDR4-2400 with tRCD/tCL/tRP of 14 ns; we model a
 * flat access latency derived from those parameters plus a row-buffer
 * hit fast path, which is the level of fidelity the experiments need
 * (all results are driven by the PM side).
 */

#ifndef SLPMT_MEM_DRAM_DEVICE_HH
#define SLPMT_MEM_DRAM_DEVICE_HH

#include <cstdint>

#include "stats/stats.hh"
#include "common/types.hh"
#include "mem/paged_memory.hh"

namespace slpmt
{

/** DRAM timing parameters (defaults approximate DDR4-2400). */
struct DramConfig
{
    std::uint64_t rowHitNs = 14;    //!< tCL only
    std::uint64_t rowMissNs = 42;   //!< tRP + tRCD + tCL
    Addr rowBytes = 8192;           //!< row-buffer span

    bool operator==(const DramConfig &) const = default;
};

/** Flat-latency DRAM with a single open-row predictor. */
class DramDevice
{
  public:
    DramDevice(const DramConfig &cfg, StatsRegistry &stats)
        : config(cfg),
          statReads(stats.counter("dram.reads")),
          statWrites(stats.counter("dram.writes")),
          statRowHits(stats.counter("dram.rowHits"))
    {
    }

    /** Read one line; returns the access latency in cycles. */
    Cycles
    readLine(Addr addr, std::uint8_t *out)
    {
        image.read(lineBase(addr), out, cacheLineSize);
        statReads++;
        return access(addr);
    }

    /** Write one line back; returns the access latency in cycles. */
    Cycles
    writeLine(Addr addr, const std::uint8_t *data)
    {
        image.write(lineBase(addr), data, cacheLineSize);
        statWrites++;
        return access(addr);
    }

    /** DRAM loses its contents on power failure. */
    void crash() { image.clear(); openRow = invalidRow; }

    /** The volatile image store (checkpoint page snapshots). */
    PagedMemory &memory() { return image; }
    const PagedMemory &memory() const { return image; }

    /** The open row: everything a checkpoint holds of the device
     *  (the image is snapshotted separately). */
    using State = Addr;
    State state() const { return openRow; }
    void restore(State open_row) { openRow = open_row; }

  private:
    static constexpr Addr invalidRow = ~static_cast<Addr>(0);

    Cycles
    access(Addr addr)
    {
        const Addr row = addr / config.rowBytes;
        const bool hit = row == openRow;
        openRow = row;
        if (hit) {
            statRowHits++;
            return nsToCycles(config.rowHitNs);
        }
        return nsToCycles(config.rowMissNs);
    }

    DramConfig config;
    PagedMemory image;
    Addr openRow = invalidRow;

    StatsRegistry::Counter statReads;
    StatsRegistry::Counter statWrites;
    StatsRegistry::Counter statRowHits;
};

} // namespace slpmt

#endif // SLPMT_MEM_DRAM_DEVICE_HH
