/**
 * @file
 * Byte-addressable persistent memory device with an ADR-style write
 * pending queue (WPQ).
 *
 * Matches the PM row of Table III: a 512-byte WPQ (eight cache-line
 * slots), 4 ns WPQ-entry latency, 150 ns read latency, and a 500 ns
 * media write latency that Figure 12 sweeps up to 2300 ns.
 *
 * Because the WPQ sits inside the persistence domain (Intel ADR drains
 * it on power failure), a write is architecturally durable the moment
 * it enters the queue. The device therefore applies data to the
 * durable image at enqueue time; the queue itself is purely a timing
 * model — when all eight slots hold writes still draining to the
 * media, the next persist stalls the issuing core.
 */

#ifndef SLPMT_MEM_PM_DEVICE_HH
#define SLPMT_MEM_PM_DEVICE_HH

#include <algorithm>
#include <cstdint>
#include <deque>

#include "stats/stats.hh"
#include "common/types.hh"
#include "mem/paged_memory.hh"
#include "mem/persist_tracker.hh"

namespace slpmt
{

/** Tunable device parameters (defaults from Table III). */
struct PmConfig
{
    Bytes wpqBytes = 512;             //!< write pending queue capacity
    std::uint64_t wpqLatencyNs = 4;   //!< time to enter the WPQ
    std::uint64_t readLatencyNs = 150;
    std::uint64_t writeLatencyNs = 500; //!< media write latency

    /**
     * Internal media parallelism: the drain pipeline initiates a new
     * line write every writeLatencyNs / mediaBanks (PM devices overlap
     * writes across banks; a single line still takes the full write
     * latency).
     */
    std::uint64_t mediaBanks = 4;

    /**
     * Sequential-write advantage: a line contiguous with the
     * previously drained one initiates this many times faster (PM
     * media buffer/row locality — "persistent memory offers fast
     * sequential write but slow random write", Section V-A). Table
     * III models a flat write latency, so the default is 1; the
     * Section V-A ablation sweeps it.
     */
    std::uint64_t sequentialFactor = 1;

    bool operator==(const PmConfig &) const = default;
};

/** Outcome of one persist operation, for the issuing core's timing. */
struct PersistResult
{
    Cycles issueCycles;  //!< cycles the core spent issuing (incl. stall)
    Cycles stallCycles;  //!< portion of issueCycles spent on a full WPQ
};

/**
 * The persistent memory device.
 *
 * All writes that must survive a crash flow through persistLine() or
 * persistBytes(); reads that miss the entire cache hierarchy use
 * readLine(). Write traffic is accounted per category so experiments
 * can report the paper's "PM write traffic" metric and its data/log
 * breakdown.
 */
class PmDevice
{
  public:
    PmDevice(const PmConfig &cfg, StatsRegistry &stats,
             PersistTracker &tracker)
        : config(cfg),
          tracker(tracker),
          statBytesWritten(stats.counter("pm.bytesWritten")),
          statDataBytes(stats.counter("pm.dataBytesWritten")),
          statLogBytes(stats.counter("pm.logBytesWritten")),
          statLineWrites(stats.counter("pm.lineWrites")),
          statWpqStalls(stats.counter("pm.wpqStalls")),
          statWpqStallCycles(stats.counter("pm.wpqStallCycles")),
          statWpqCoalesced(stats.counter("pm.wpqCoalesced")),
          statReads(stats.counter("pm.reads")),
          statWpqOccupancy(
              stats.histogram("pm.wpqOccupancy", {1, 2, 4, 6, 8}))
    {
    }

    /** Number of cache-line slots in the WPQ. */
    std::size_t
    wpqSlots() const
    {
        return static_cast<std::size_t>(config.wpqBytes / cacheLineSize);
    }

    /**
     * Persist one full cache line.
     *
     * @param addr line-aligned address
     * @param data 64 bytes of line content
     * @param now current core time, in cycles
     * @param kind category for the persist-order ledger
     * @param txn_seq owning transaction sequence number
     * @param sync when false, the persist is issued by background
     *        hardware (forced lazy flushes, evictions): it occupies
     *        the WPQ but never stalls the core on a full queue
     */
    PersistResult
    persistLine(Addr addr, const std::uint8_t *data, Cycles now,
                PersistKind kind, std::uint64_t txn_seq,
                bool sync = true)
    {
        image.write(lineBase(addr), data, cacheLineSize);
        statDataBytes += cacheLineSize;
        tracker.record(kind, lineBase(addr), txn_seq);
        return enqueue(now, lineBase(addr), 1, cacheLineSize, sync);
    }

    /**
     * Persist a byte run (log records, markers). Traffic is counted in
     * actual bytes (or @p traffic_override when the caller excludes
     * framing bytes); WPQ occupancy is counted in the cache lines the
     * run spans, matching how the controller moves data.
     */
    PersistResult
    persistBytes(Addr addr, const void *data, std::size_t len, Cycles now,
                 PersistKind kind, std::uint64_t txn_seq,
                 Bytes traffic_override = 0)
    {
        image.write(addr, data, len);
        statLogBytes += traffic_override ? traffic_override : len;
        tracker.record(kind, addr, txn_seq);
        const Addr first = lineBase(addr);
        const Addr last = lineBase(addr + (len ? len - 1 : 0));
        const std::size_t lines =
            static_cast<std::size_t>((last - first) / cacheLineSize) + 1;
        return enqueue(now, first, lines,
                       traffic_override ? traffic_override : len,
                       /*sync=*/true);
    }

    /** Read one cache line from the durable image. */
    Cycles
    readLine(Addr addr, std::uint8_t *out)
    {
        image.read(lineBase(addr), out, cacheLineSize);
        statReads++;
        return nsToCycles(config.readLatencyNs);
    }

    /** Direct durable-image read for recovery code (no timing). */
    void
    peek(Addr addr, void *out, std::size_t len) const
    {
        image.read(addr, out, len);
    }

    /** Direct durable-image write for initialisation (no timing). */
    void
    poke(Addr addr, const void *data, std::size_t len)
    {
        image.write(addr, data, len);
    }

    /**
     * Power failure. ADR drains the WPQ, so the durable image (which
     * already reflects every enqueued write) is exactly what survives;
     * only the in-flight timing state is discarded.
     */
    void
    crash()
    {
        wpq.pending.clear();
        wpq.lastInitiation = 0;
    }

    /** Earliest time at which every queued write has hit the media. */
    Cycles
    drainTime() const
    {
        return wpq.pending.empty() ? 0 : wpq.pending.back().completion;
    }

    const PmConfig &cfg() const { return config; }

    /** Update the media write latency (Figure 12 sweep). */
    void setWriteLatencyNs(std::uint64_t ns) { config.writeLatencyNs = ns; }

    /** The durable image store (checkpoint page snapshots). */
    PagedMemory &memory() { return image; }
    const PagedMemory &memory() const { return image; }

    /** One pending (not yet drained) WPQ entry. */
    struct WpqEntry
    {
        Cycles completion;
        Addr line;

        bool operator==(const WpqEntry &) const = default;
    };

    /** The WPQ and media timing registers: everything a checkpoint
     *  holds of the device (the image is snapshotted separately). */
    struct State
    {
        std::deque<WpqEntry> pending;    //!< writes still draining
        Cycles lastInitiation = 0;       //!< media pipeline state
        Addr lastDrainLine = ~static_cast<Addr>(0);  //!< locality state

        bool operator==(const State &) const = default;
    };

    const State &state() const { return wpq; }
    void restore(const State &s) { wpq = s; }

  private:
    /**
     * Timing for a write of @p lines consecutive cache lines starting
     * at @p first_line entering the WPQ at time @p now. Writes to a
     * line that is still pending in the queue coalesce into the
     * existing entry (no extra slot, no extra drain time) — this is
     * what makes the log buffer's packed drains so much cheaper than
     * scattered per-record persists.
     */
    PersistResult
    enqueue(Cycles now, Addr first_line, std::size_t lines,
            Bytes traffic_bytes, bool sync)
    {
        statBytesWritten += traffic_bytes;
        statLineWrites += lines;
        statWpqOccupancy.record(wpq.pending.size());

        const Cycles write_lat = nsToCycles(config.writeLatencyNs);
        // The media initiates a new line write every interval (bank
        // parallelism); a single write still takes the full latency.
        const Cycles interval =
            std::max<Cycles>(1, write_lat / std::max<std::uint64_t>(
                                                1, config.mediaBanks));
        const Cycles wpq_lat = nsToCycles(config.wpqLatencyNs);

        Cycles t = now;
        Cycles stall = 0;
        for (std::size_t i = 0; i < lines; ++i) {
            const Addr line = lineBase(first_line) + i * cacheLineSize;
            // Retire entries the media has already drained.
            while (!wpq.pending.empty() &&
                   wpq.pending.front().completion <= t)
                wpq.pending.pop_front();
            // Same-line coalescing within the queue.
            bool coalesced = false;
            for (const auto &entry : wpq.pending) {
                if (entry.line == line) {
                    coalesced = true;
                    break;
                }
            }
            if (coalesced) {
                statWpqCoalesced++;
                t += wpq_lat;
                continue;
            }
            // A full queue stalls a synchronous issuer until the head
            // drains; background issuers let the queue grow (the
            // backlog delays later synchronous persists instead).
            if (sync && wpq.pending.size() >= wpqSlots()) {
                stall += wpq.pending.front().completion - t;
                t = wpq.pending.front().completion;
                wpq.pending.pop_front();
            }
            const bool sequential =
                line == wpq.lastDrainLine + cacheLineSize;
            const Cycles spacing =
                sequential ? std::max<Cycles>(
                                 1, interval / std::max<std::uint64_t>(
                                                   1,
                                                   config.sequentialFactor))
                           : interval;
            const Cycles start =
                std::max(t, wpq.lastInitiation + spacing);
            wpq.lastInitiation = start;
            wpq.lastDrainLine = line;
            wpq.pending.push_back({start + write_lat, line});
            t += wpq_lat;
        }
        if (stall) {
            statWpqStalls++;
            statWpqStallCycles += stall;
        }
        return {t - now, stall};
    }

    PmConfig config;
    PagedMemory image;               //!< durable contents (incl. WPQ)
    State wpq;
    PersistTracker &tracker;

    StatsRegistry::Counter statBytesWritten;
    StatsRegistry::Counter statDataBytes;
    StatsRegistry::Counter statLogBytes;
    StatsRegistry::Counter statLineWrites;
    StatsRegistry::Counter statWpqStalls;
    StatsRegistry::Counter statWpqStallCycles;
    StatsRegistry::Counter statWpqCoalesced;
    StatsRegistry::Counter statReads;
    StatsRegistry::Histogram statWpqOccupancy; //!< depth seen at enqueue
};

} // namespace slpmt

#endif // SLPMT_MEM_PM_DEVICE_HH
