#include "stats/stats.hh"

#include <functional>

#include "common/rng.hh"
#include "sim/json.hh"

namespace slpmt
{

const char *
StatsRegistry::kindName(Kind kind)
{
    switch (kind) {
      case Kind::Counter: return "counter";
      case Kind::Gauge: return "gauge";
      case Kind::Histogram: return "histogram";
    }
    return "?";
}

namespace
{

/**
 * The [lo, hi] value range of bucket @p b, clamped to the observed
 * min/max (the first bucket cannot start below the smallest sample;
 * the +inf overflow bucket ends at the largest).
 */
void
bucketRange(const StatsRegistry::HistogramData &h, std::size_t b,
            std::uint64_t *lo, std::uint64_t *hi)
{
    *lo = b == 0 ? 0 : h.bounds[b - 1] + 1;
    *hi = b < h.bounds.size() ? h.bounds[b] : h.max;
    if (*lo < h.min)
        *lo = h.min;
    if (*hi > h.max)
        *hi = h.max;
    if (*hi < *lo)
        *hi = *lo;
}

/** Index of the bucket holding the num/den nearest-rank quantile. */
std::size_t
quantileBucket(const StatsRegistry::HistogramData &h, std::uint64_t num,
               std::uint64_t den, std::uint64_t *rank_in_bucket)
{
    // 1-based nearest rank: the smallest rank covering num/den of the
    // samples (ceil), clamped into [1, count].
    std::uint64_t rank = (h.count * num + den - 1) / den;
    if (rank == 0)
        rank = 1;
    if (rank > h.count)
        rank = h.count;

    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
        if (seen + h.buckets[b] >= rank) {
            *rank_in_bucket = rank - seen;
            return b;
        }
        seen += h.buckets[b];
    }
    panic("histogram bucket counts disagree with count");
}

} // namespace

std::uint64_t
StatsRegistry::HistogramData::percentile(std::uint64_t num,
                                         std::uint64_t den) const
{
    if (count == 0)
        return 0;
    std::uint64_t rank_in_bucket = 0;
    const std::size_t b = quantileBucket(*this, num, den,
                                         &rank_in_bucket);
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bucketRange(*this, b, &lo, &hi);
    // The rank_in_bucket-th of buckets[b] samples assumed uniform on
    // [lo, hi]; both the estimate and the exact sample quantile lie in
    // that interval, bounding the error by hi - lo.
    return lo + (hi - lo) * rank_in_bucket / buckets[b];
}

std::uint64_t
StatsRegistry::HistogramData::percentileErrorBound(
    std::uint64_t num, std::uint64_t den) const
{
    if (count == 0)
        return 0;
    std::uint64_t rank_in_bucket = 0;
    const std::size_t b = quantileBucket(*this, num, den,
                                         &rank_in_bucket);
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bucketRange(*this, b, &lo, &hi);
    return hi - lo;
}

StatsRegistry::Entry &
StatsRegistry::entryFor(const std::string &name, Kind kind)
{
    auto [it, inserted] = entries.try_emplace(name);
    if (inserted) {
        it->second.kind = kind;
        shape += mix64(std::hash<std::string>{}(name) ^
                       static_cast<std::uint64_t>(kind));
        valueCount += kind == Kind::Histogram ? 0 : 1;
    } else if (it->second.kind != kind) {
        panic("stat '" + name + "' already registered as " +
              kindName(it->second.kind) + ", re-registered as " +
              kindName(kind));
    }
    return it->second;
}

std::uint64_t &
StatsRegistry::scalar(const std::string &name, Kind kind)
{
    return entryFor(name, kind).value;
}

StatsRegistry::Histogram
StatsRegistry::histogram(const std::string &name,
                         const std::vector<std::uint64_t> &bounds)
{
    panicIfNot(!bounds.empty(), "histogram '" + name + "' has no buckets");
    for (std::size_t i = 1; i < bounds.size(); ++i) {
        panicIfNot(bounds[i - 1] < bounds[i],
                   "histogram '" + name +
                       "' bounds must be strictly increasing");
    }

    Entry &entry = entryFor(name, Kind::Histogram);
    if (entry.hist.buckets.empty()) {
        entry.hist.bounds = bounds;
        entry.hist.buckets.assign(bounds.size() + 1, 0);
        std::uint64_t h = std::hash<std::string>{}(name);
        for (std::uint64_t b : bounds)
            h = mix64(h ^ b);
        shape += h;
        valueCount += bounds.size() + 5;  // buckets, count, sum, min, max
    } else if (entry.hist.bounds != bounds) {
        panic("histogram '" + name +
              "' re-registered with different bucket bounds");
    }
    return Histogram(&entry.hist);
}

std::string
StatsRegistry::FlatStat::key() const
{
    std::string k(prefix);
    k += name;
    if (!hist)
        return k;
    const std::size_t bounds = hist->bounds.size();
    if (slot < bounds)
        return k + ".le" + std::to_string(hist->bounds[slot]);
    if (slot == bounds)
        return k + ".inf";
    return k + (slot == bounds + 1 ? ".count" : ".sum");
}

StatsSnapshot
StatsRegistry::snapshot() const
{
    return flatSnapshot(*this);
}

void
StatsRegistry::reset()
{
    for (auto &[name, entry] : entries) {
        entry.value = 0;
        if (entry.kind == Kind::Histogram)
            entry.hist.reset();
    }
}

void
StatsRegistry::dumpJson(JsonWriter &w) const
{
    w.beginObject();
    for (const auto &[name, entry] : entries) {
        w.key(name);
        if (entry.kind != Kind::Histogram) {
            w.value(entry.value);
            continue;
        }
        const HistogramData &h = entry.hist;
        w.beginObject();
        w.key("bounds").beginArray();
        for (std::uint64_t b : h.bounds)
            w.value(b);
        w.endArray();
        w.key("buckets").beginArray();
        for (std::uint64_t b : h.buckets)
            w.value(b);
        w.endArray();
        w.key("count").value(h.count);
        w.key("sum").value(h.sum);
        w.key("min").value(h.count ? h.min : 0);
        w.key("max").value(h.max);
        w.endObject();
    }
    w.endObject();
}

std::string
StatsRegistry::toJson() const
{
    JsonWriter w;
    dumpJson(w);
    return w.str();
}

StatsRegistry::State
StatsRegistry::state() const
{
    State s{shape, {}};
    s.values.reserve(valueCount);
    for (const auto &[name, entry] : entries) {
        if (entry.kind != Kind::Histogram) {
            s.values.push_back(entry.value);
            continue;
        }
        const HistogramData &h = entry.hist;
        s.values.insert(s.values.end(), h.buckets.begin(), h.buckets.end());
        s.values.insert(s.values.end(), {h.count, h.sum, h.min, h.max});
    }
    return s;
}

void
StatsRegistry::restore(const State &s)
{
    panicIfNot(s.shape == shape && s.values.size() == valueCount,
               "stat registry shape mismatch");
    auto v = s.values.begin();
    for (auto &[name, entry] : entries) {
        if (entry.kind != Kind::Histogram) {
            entry.value = *v++;
            continue;
        }
        HistogramData &h = entry.hist;
        for (auto &b : h.buckets)
            b = *v++;
        h.count = *v++;
        h.sum = *v++;
        h.min = *v++;
        h.max = *v++;
    }
}

} // namespace slpmt
