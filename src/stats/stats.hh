/**
 * @file
 * Hierarchical statistics registry, loosely modelled after gem5's
 * statistics package.
 *
 * Components register named instruments under dotted hierarchical
 * keys ("logbuf.tier0.records"), usually through a StatGroup that
 * prefixes the component name. Three instrument kinds exist:
 *
 *  - Counter:   monotonically increasing scalar (events, bytes);
 *  - Gauge:     scalar that may be set to any value (occupancy);
 *  - Histogram: fixed upper-bound buckets plus count/sum/min/max
 *               (latency and size distributions).
 *
 * Registering the same name twice with the same kind (and, for
 * histograms, the same bucket bounds) returns a handle to the same
 * instrument; re-registering a name as a different kind — or a
 * histogram with different bounds — panics, catching component
 * wiring bugs at construction time.
 *
 * The whole registry flattens into one walk of values (forEachFlat;
 * histograms expand into per-bucket keys). Every flat view is built on
 * that walk: a StatsSnapshot (sorted name -> value map) for
 * before/after deltas, and the name and value dumps a crash sweep
 * keeps per point (flatNames, flatValues), which zip to the same
 * snapshot. The registry also dumps as stable-key JSON so two runs of
 * the same simulation produce byte-identical reports.
 */

#ifndef SLPMT_STATS_STATS_HH
#define SLPMT_STATS_STATS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"

namespace slpmt
{

class JsonWriter;

/** A flattened snapshot of every instrument value at one instant. */
using StatsSnapshot = std::map<std::string, std::uint64_t>;

/** Registry of named counters, gauges and histograms. */
class StatsRegistry
{
  public:
    /** Accumulated state of one histogram. */
    struct HistogramData
    {
        std::vector<std::uint64_t> bounds;   //!< inclusive upper bounds
        std::vector<std::uint64_t> buckets;  //!< bounds.size() + 1 (+inf)
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
        std::uint64_t max = 0;

        void
        record(std::uint64_t v)
        {
            std::size_t b = 0;
            while (b < bounds.size() && v > bounds[b])
                ++b;
            ++buckets[b];
            ++count;
            sum += v;
            if (v < min)
                min = v;
            if (v > max)
                max = v;
        }

        void
        reset()
        {
            for (auto &bucket : buckets)
                bucket = 0;
            count = 0;
            sum = 0;
            min = std::numeric_limits<std::uint64_t>::max();
            max = 0;
        }

        /**
         * Estimate the @p num / @p den quantile (p50 = 50/100,
         * p999 = 999/1000) of the recorded samples under the
         * nearest-rank definition, interpolating linearly inside the
         * bucket that holds the rank (uniform intra-bucket
         * assumption). The exact sample quantile provably lies in the
         * same bucket, so the estimate is off by at most that
         * bucket's width — the bound percentileErrorBound() reports
         * and the percentile tests assert. Returns 0 when empty.
         */
        std::uint64_t percentile(std::uint64_t num,
                                 std::uint64_t den) const;

        /**
         * Width of the (min/max-clamped) bucket the @p num / @p den
         * quantile falls in: the resolution error bound of
         * percentile(). Returns 0 when empty.
         */
        std::uint64_t percentileErrorBound(std::uint64_t num,
                                           std::uint64_t den) const;
    };

    /** A cheap handle to one counter; valid as long as the registry. */
    class Counter
    {
      public:
        Counter() = default;

        void operator+=(std::uint64_t n) { if (value) *value += n; }
        void operator++(int) { if (value) ++*value; }
        std::uint64_t get() const { return value ? *value : 0; }

      private:
        friend class StatsRegistry;
        explicit Counter(std::uint64_t *v) : value(v) {}
        std::uint64_t *value = nullptr;
    };

    /** A settable scalar handle. */
    class Gauge
    {
      public:
        Gauge() = default;

        void set(std::uint64_t v) { if (value) *value = v; }
        void operator+=(std::uint64_t n) { if (value) *value += n; }
        std::uint64_t get() const { return value ? *value : 0; }

      private:
        friend class StatsRegistry;
        explicit Gauge(std::uint64_t *v) : value(v) {}
        std::uint64_t *value = nullptr;
    };

    /** A handle to one histogram. */
    class Histogram
    {
      public:
        Histogram() = default;

        void record(std::uint64_t v) { if (data) data->record(v); }
        const HistogramData *get() const { return data; }

      private:
        friend class StatsRegistry;
        explicit Histogram(HistogramData *d) : data(d) {}
        HistogramData *data = nullptr;
    };

    /** Get (registering if needed) a handle for a named counter. */
    Counter
    counter(const std::string &name)
    {
        return Counter(&scalar(name, Kind::Counter));
    }

    /** Get (registering if needed) a handle for a named gauge. */
    Gauge
    gauge(const std::string &name)
    {
        return Gauge(&scalar(name, Kind::Gauge));
    }

    /**
     * Get (registering if needed) a named histogram with the given
     * inclusive bucket upper bounds (a +inf overflow bucket is always
     * appended). Bounds must be non-empty and strictly increasing.
     */
    Histogram histogram(const std::string &name,
                        const std::vector<std::uint64_t> &bounds);

    /** Read one flattened value (0 if it was never registered). */
    std::uint64_t
    get(const std::string &name) const
    {
        const StatsSnapshot snap = snapshot();
        auto it = snap.find(name);
        return it == snap.end() ? 0 : it->second;
    }

    /**
     * One flattened value: a counter or gauge, or one key of a
     * histogram's expansion. Its key is built only on demand, so a
     * walk that reads values allocates nothing.
     */
    struct FlatStat
    {
        std::string_view name;             //!< the instrument's name
        const HistogramData *hist;         //!< nullptr: counter or gauge
        std::size_t slot;                  //!< histogram key (see key())
        std::uint64_t value;
        std::string_view prefix = {};      //!< prepended to the key

        /**
         * The flattened key. Counters and gauges keep their name; a
         * histogram "h" with bounds {1,4} expands, slot by slot, into
         * "h.le1", "h.le4", "h.inf", "h.count" and "h.sum".
         */
        std::string key() const;
    };

    /** Call @p fn(const FlatStat &) for every flattened value, in
     *  name order, each histogram in its key expansion's order. */
    template <typename Fn>
    void
    forEachFlat(Fn &&fn) const
    {
        for (const auto &[name, entry] : entries) {
            if (entry.kind != Kind::Histogram) {
                fn(FlatStat{name, nullptr, 0, entry.value});
                continue;
            }
            const HistogramData &h = entry.hist;
            for (std::size_t b = 0; b < h.buckets.size(); ++b)
                fn(FlatStat{name, &h, b, h.buckets[b]});
            fn(FlatStat{name, &h, h.buckets.size(), h.count});
            fn(FlatStat{name, &h, h.buckets.size() + 1, h.sum});
        }
    }

    /** Every flattened value under its key (flatSnapshot()). */
    StatsSnapshot snapshot() const;

    /** Difference of two snapshots (after - before, clamped at 0). */
    static StatsSnapshot
    delta(const StatsSnapshot &before, const StatsSnapshot &after)
    {
        StatsSnapshot d;
        for (const auto &[name, val] : after) {
            auto it = before.find(name);
            std::uint64_t prev = it == before.end() ? 0 : it->second;
            d[name] = val >= prev ? val - prev : 0;
        }
        return d;
    }

    /** Zero every instrument (registration structure is kept). */
    void reset();

    /**
     * Dump every instrument as one JSON object with sorted keys.
     * Counters and gauges are integers; a histogram is an object
     * {"bounds": [...], "buckets": [...], "count", "sum", "min",
     * "max"} (min is 0 when the histogram is empty).
     */
    void dumpJson(JsonWriter &w) const;

    /** dumpJson() into a fresh string. */
    std::string toJson() const;

    /**
     * Everything a checkpoint holds of a registry: every value in name
     * order (a histogram gives its buckets, count, sum, min and max)
     * and the shape of the registrations that lay them out, a hash of
     * their names, kinds and histogram bounds. It holds no names.
     */
    struct State
    {
        std::uint64_t shape = 0;
        std::vector<std::uint64_t> values;

        bool operator==(const State &) const = default;
    };

    State state() const;

    /**
     * Overwrite every value from @p s in place, so outstanding handles
     * (pointers into the map nodes) stay valid. Panics unless @p s was
     * captured from a registry with the same registrations.
     */
    void restore(const State &s);

  private:
    enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

    struct Entry
    {
        Kind kind = Kind::Counter;
        std::uint64_t value = 0;      //!< counters and gauges
        HistogramData hist;           //!< histograms only
    };

    static const char *kindName(Kind kind);

    /** Register or re-open a scalar entry of the given kind. */
    std::uint64_t &scalar(const std::string &name, Kind kind);

    Entry &entryFor(const std::string &name, Kind kind);

    /** Stable node addresses: handles point into map nodes. */
    std::map<std::string, Entry> entries;

    /** Order-independent hash of the registrations, and the number
     *  of values they lay out (see State). */
    std::uint64_t shape = 0;
    std::size_t valueCount = 0;
};

/**
 * @name Flat views
 *
 * The views of any source that walks flattened values through
 * forEachFlat(fn) — a StatsRegistry, SingleCoreStats or McMachine —
 * so each source writes its walk once. flatNames() and flatValues()
 * append in walk order and zip to flatSnapshot().
 */
/** @{ */
template <typename Source>
StatsSnapshot
flatSnapshot(const Source &source)
{
    StatsSnapshot snap;
    source.forEachFlat([&](const StatsRegistry::FlatStat &f) {
        snap.emplace(f.key(), f.value);
    });
    return snap;
}

template <typename Source>
void
flatNames(const Source &source, std::vector<std::string> &out)
{
    source.forEachFlat(
        [&](const StatsRegistry::FlatStat &f) { out.push_back(f.key()); });
}

template <typename Source>
void
flatValues(const Source &source, std::vector<std::uint64_t> &out)
{
    source.forEachFlat(
        [&](const StatsRegistry::FlatStat &f) { out.push_back(f.value); });
}
/** @} */

/**
 * A named slice of a registry: every instrument registered through a
 * group gets the group's dotted prefix. Groups nest, giving each
 * component a private namespace without threading strings around.
 */
class StatGroup
{
  public:
    StatGroup(StatsRegistry &registry, std::string prefix)
        : reg(&registry), pre(std::move(prefix))
    {
    }

    StatsRegistry::Counter
    counter(const std::string &name) const
    {
        return reg->counter(pre + "." + name);
    }

    StatsRegistry::Gauge
    gauge(const std::string &name) const
    {
        return reg->gauge(pre + "." + name);
    }

    StatsRegistry::Histogram
    histogram(const std::string &name,
              const std::vector<std::uint64_t> &bounds) const
    {
        return reg->histogram(pre + "." + name, bounds);
    }

    StatGroup
    group(const std::string &name) const
    {
        return StatGroup(*reg, pre + "." + name);
    }

    const std::string &prefix() const { return pre; }

  private:
    StatsRegistry *reg;
    std::string pre;
};

} // namespace slpmt

#endif // SLPMT_STATS_STATS_HH
