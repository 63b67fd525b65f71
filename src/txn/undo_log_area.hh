/**
 * @file
 * The persistent undo-log area.
 *
 * A reserved region at the bottom of PM holds, at any moment, the
 * undo records of the single in-flight durable transaction. Records
 * are appended sequentially; committing (or finishing an abort/
 * recovery replay) truncates the log with a single 8-byte terminator
 * write, so recovery sees an empty log for committed transactions.
 *
 * On-wire entry format (first word packs metadata into the alignment
 * bits of the word-aligned base address):
 *
 *   [8 B: base | log2(words) << 1 | valid]  [words * 8 B data]
 *
 * which makes the wire sizes exactly the 16/24/40/72 bytes of
 * Figure 6. Each append also rewrites the 8-byte terminator slot that
 * follows the entry; those framing bytes are excluded from the
 * write-traffic accounting so the traffic metric matches the paper's
 * record sizes.
 */

#ifndef SLPMT_TXN_UNDO_LOG_AREA_HH
#define SLPMT_TXN_UNDO_LOG_AREA_HH

#include <vector>

#include "stats/stats.hh"
#include "logbuf/log_record.hh"
#include "mem/pm_device.hh"

namespace slpmt
{

/** Durable append-only undo log with O(1) truncation. */
class UndoLogArea
{
  public:
    UndoLogArea(PmDevice &pm, Addr base, Bytes size, StatsRegistry &stats)
        : pm(pm),
          areaBase(base),
          areaSize(size),
          statAppends(stats.counter("undolog.appends")),
          statTruncates(stats.counter("undolog.truncates")),
          statUndoApplied(stats.counter("undolog.recordsApplied")),
          statWireBytes(stats.counter("undolog.wireBytes")),
          statTruncateBytes(stats.counter("undolog.truncateBytes"))
    {
        initialize();
    }

    /** Reset the area to the empty state (no timing; initial setup). */
    void
    initialize()
    {
        const std::uint64_t zero = 0;
        pm.poke(areaBase, &zero, sizeof(zero));
        tail = areaBase;
    }

    /**
     * Durably append one record; returns issue cycles.
     *
     * @param extra_bytes additional on-wire framing per record (the
     *        software-constructed EDE records carry a type/size
     *        header that the hardware record formats do not)
     */
    Cycles append(const LogRecord &rec, Cycles now, std::uint64_t txn_seq,
                  Bytes extra_bytes = 0);

    /** Durably truncate the log (transaction committed / rolled back). */
    Cycles truncate(Cycles now, std::uint64_t txn_seq);

    /**
     * Read back every valid record, in append order, from the durable
     * image. Used by crash recovery; charges no simulated time.
     */
    std::vector<LogRecord> scanValid() const;

    /**
     * Apply every valid record to the durable image in reverse append
     * order (the undo replay of Section V-B), then truncate.
     *
     * @return number of records applied
     */
    std::size_t applyUndo();

    /** Drop every valid entry without applying it (redo rollback). */
    void
    discard()
    {
        const std::uint64_t zero = 0;
        pm.poke(areaBase, &zero, sizeof(zero));
        tail = areaBase;
    }

    /** The in-flight log is empty (nothing to undo). */
    bool empty() const { return scanValid().empty(); }

    Addr base() const { return areaBase; }
    Bytes size() const { return areaSize; }

    /** Forget the volatile tail; recovery re-derives it by scanning. */
    void
    crash()
    {
        tail = areaBase;
        for (const auto &rec : scanValid())
            tail += entryBytes(rec.words);
    }

    /** The volatile tail: everything a checkpoint holds of the area
     *  (its durable contents ride the PM image). */
    using State = Addr;
    State state() const { return tail; }
    void restore(State saved_tail) { tail = saved_tail; }

  private:
    static Bytes
    entryBytes(std::uint8_t words)
    {
        return wordSize + words * wordSize;
    }

    PmDevice &pm;
    Addr areaBase;
    Bytes areaSize;
    Addr tail;

    StatsRegistry::Counter statAppends;
    StatsRegistry::Counter statTruncates;
    StatsRegistry::Counter statUndoApplied;
    StatsRegistry::Counter statWireBytes;     //!< accounted append traffic
    StatsRegistry::Counter statTruncateBytes; //!< accounted truncate traffic
};

} // namespace slpmt

#endif // SLPMT_TXN_UNDO_LOG_AREA_HH
