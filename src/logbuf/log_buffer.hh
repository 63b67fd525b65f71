/**
 * @file
 * The four-tier coalescing log buffer of Section III-B2.
 *
 * Tiers hold records of one word, double words, quadruple words, and a
 * full cache line. Tier capacities are sized to the least common
 * multiple of record size and cache-line size — 2, 3, 5, and 9 cache
 * lines — so each tier retains up to eight records. On insertion a
 * record is coalesced with its buddy (the record covering the other
 * half of the next-larger naturally-aligned span) whenever the buddy
 * is present, and the combined record is promoted to the next tier;
 * this repeats on every tier except the full-line one. A tier that
 * fills with no coalescing opportunity is drained to the persistent
 * log area.
 *
 * Storage: each tier is a fixed in-place arena (capacity x LogRecord
 * slots plus a live count) rather than a heap vector, so inserting,
 * coalescing, and draining never allocate. Erases shift the tail down
 * one slot to preserve insertion order — drain order is part of the
 * deterministic report contract. Record pointers/references obtained
 * from tier() or forEachRecord() are invalidated by ANY subsequent
 * mutating call (insert, flush, drain, discard, clear, restore):
 * records live in the slots themselves, and slots are reused and
 * shifted in place.
 */

#ifndef SLPMT_LOGBUF_LOG_BUFFER_HH
#define SLPMT_LOGBUF_LOG_BUFFER_HH

#include <algorithm>
#include <array>
#include <span>

#include "stats/stats.hh"
#include "logbuf/log_record.hh"

namespace slpmt
{

/** The on-core tiered log buffer. */
class LogBuffer
{
  public:
    static constexpr std::size_t tierCount = 4;
    static constexpr std::size_t tierCapacity = 8;

    /** Cycles charged to insert a record (the buffer is next to L1 and
     *  operates asynchronously; only the insert is on the path). */
    static constexpr Cycles insertLatency = 1;

    explicit LogBuffer(StatsRegistry &stats)
        : LogBuffer(StatGroup(stats, "logbuf"))
    {
    }

    explicit LogBuffer(const StatGroup &stats)
        : statInserts(stats.counter("inserts")),
          statCoalesces(stats.counter("coalesces")),
          statTierDrains(stats.counter("tierDrains")),
          statRecordsPersisted(stats.counter("recordsPersisted")),
          statRecordsDiscarded(stats.counter("recordsDiscarded")),
          statDrainedWireBytes(stats.counter("drainedWireBytes")),
          statDrainedWords(stats.histogram("drainedWords", {1, 2, 4, 8}))
    {
        for (std::size_t t = 0; t < tierCount; ++t) {
            statTierRecords[t] =
                stats.counter("tier" + std::to_string(t) + ".records");
        }
    }

    /**
     * Wire the drain destination (the persistent undo-log area,
     * implemented by the transaction engine via a non-virtual
     * `Cycles persistRecord(const LogRecord &, Cycles)` member).
     * Dispatch is a stored function pointer specialised on the
     * concrete sink type — devirtualized: no vtable and no virtual
     * interface class to inherit.
     */
    template <typename Sink>
    void
    setSink(Sink *s)
    {
        sinkObj = s;
        sinkFn = [](void *obj, const LogRecord &rec, Cycles now) {
            return static_cast<Sink *>(obj)->persistRecord(rec, now);
        };
    }

    /**
     * Insert a one-word undo record, coalescing upward as far as
     * possible. @p old_word points at the 8-byte pre-store value.
     */
    Cycles insertWord(Addr word_addr, const std::uint8_t *old_word,
                      std::uint8_t txn_id, std::uint64_t txn_seq,
                      Cycles now);

    /**
     * Insert a full-line record directly into the top tier (used by
     * line-granularity schemes such as ATOM and SLPMT-CL).
     */
    Cycles insertLine(Addr line_addr, const std::uint8_t *old_line,
                      std::uint8_t txn_id, std::uint64_t txn_seq,
                      Cycles now);

    /**
     * Persist and remove every record touching @p line_addr's cache
     * line (called when the line overflows the private caches).
     */
    Cycles flushLine(Addr line_addr, Cycles now);

    /** Persist and remove everything (transaction commit). */
    Cycles drainAll(Cycles now);

    /**
     * Remove (without persisting) every record whose line satisfies
     * @p is_lazy — the commit-time discard of records belonging to
     * lazily persistent cache lines. Templated on the predicate so the
     * commit hot path carries no std::function indirection.
     *
     * @return number of records discarded
     */
    template <typename IsLazy>
    std::size_t
    discardIf(IsLazy &&is_lazy)
    {
        std::size_t discarded = 0;
        for (auto &tier : tiers) {
            for (std::uint32_t i = 0; i < tier.count;) {
                if (is_lazy(tier.slots[i].line())) {
                    ++discarded;
                    tier.erase(i);
                } else {
                    ++i;
                }
            }
        }
        statRecordsDiscarded += discarded;
        return discarded;
    }

    /** Drop everything without persisting (abort / crash). */
    void clear();

    /** Mutable visit of every buffered record (redo-mode refresh). */
    template <typename Fn>
    void
    forEachRecord(Fn &&fn)
    {
        for (auto &tier : tiers) {
            for (std::uint32_t i = 0; i < tier.count; ++i)
                fn(tier.slots[i]);
        }
    }

    bool
    empty() const
    {
        for (const auto &tier : tiers) {
            if (tier.count != 0)
                return false;
        }
        return true;
    }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &tier : tiers)
            n += tier.count;
        return n;
    }

    /** Direct tier view for tests (live records, insertion order). */
    std::span<const LogRecord>
    tier(std::size_t i) const
    {
        const Tier &t = tiers.at(i);
        return {t.slots.data(), t.count};
    }

    /**
     * One tier's bump arena: records live in-place in @c slots[0..
     * count). push() assumes a free slot (callers drain first);
     * erase() shifts the tail down to keep insertion order. Bulk
     * reset is `count = 0` — slot contents are never read beyond
     * count, so no destruction or zeroing happens.
     */
    struct Tier
    {
        std::array<LogRecord, tierCapacity> slots;

        /** The live slots' record bases, hoisted: the buddy scan in
         *  insertAtTier() touches one cache line instead of striding
         *  the ~88-byte records. Only base-preserving mutation of a
         *  live record (the redo-refresh data rewrite) may bypass
         *  push()/erase(). */
        std::array<Addr, tierCapacity> bases{};
        std::uint32_t count = 0;

        void
        push(const LogRecord &rec)
        {
            bases[count] = rec.base;
            slots[count++] = rec;
        }

        void
        erase(std::uint32_t i)
        {
            for (std::uint32_t j = i + 1; j < count; ++j) {
                slots[j - 1] = slots[j];
                bases[j - 1] = bases[j];
            }
            --count;
        }

        /** Same live records in the same order (slots past count
         *  hold stale records and are not compared). */
        bool
        operator==(const Tier &other) const
        {
            return std::equal(slots.begin(), slots.begin() + count,
                              other.slots.begin(),
                              other.slots.begin() + other.count);
        }
    };

    /** The tiers: everything a checkpoint holds of the buffer (the
     *  sink is wired by the owner). */
    using State = std::array<Tier, tierCount>;
    const State &state() const { return tiers; }
    void restore(const State &s) { tiers = s; }

  private:
    /** Insert into tier @p t, coalescing upward; assumes alignment. */
    /** @p rec must not alias a tier slot (it may be drained/shifted
     *  before the final push); callers pass stack locals only. */
    Cycles insertAtTier(std::size_t t, const LogRecord &rec, Cycles now);

    /** Persist one record through the sink. */
    Cycles persist(const LogRecord &rec, Cycles now);

    State tiers;

    void *sinkObj = nullptr;
    Cycles (*sinkFn)(void *, const LogRecord &, Cycles) = nullptr;

    StatsRegistry::Counter statInserts;
    StatsRegistry::Counter statCoalesces;
    StatsRegistry::Counter statTierDrains;
    StatsRegistry::Counter statRecordsPersisted;
    StatsRegistry::Counter statRecordsDiscarded;
    StatsRegistry::Counter statDrainedWireBytes;
    StatsRegistry::Histogram statDrainedWords;
    std::array<StatsRegistry::Counter, tierCount> statTierRecords;
};

} // namespace slpmt

#endif // SLPMT_LOGBUF_LOG_BUFFER_HH
