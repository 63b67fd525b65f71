#include "stats/stats.hh"

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

void
StatsRegistry::saveState(BlobWriter &w) const
{
    w.u<std::uint64_t>(entries.size());
    for (const auto &[name, entry] : entries) {
        w.str(name);
        w.u<std::uint8_t>(static_cast<std::uint8_t>(entry.kind));
        if (entry.kind != Kind::Histogram) {
            w.u<std::uint64_t>(entry.value);
            continue;
        }
        const HistogramData &h = entry.hist;
        w.u<std::uint64_t>(h.buckets.size());
        for (std::uint64_t b : h.buckets)
            w.u<std::uint64_t>(b);
        w.u<std::uint64_t>(h.count);
        w.u<std::uint64_t>(h.sum);
        w.u<std::uint64_t>(h.min);
        w.u<std::uint64_t>(h.max);
    }
}

void
StatsRegistry::restoreState(BlobReader &r)
{
    // An identically constructed registry saved the same names in the
    // same (map) order, so each saved name is compared in place.
    const std::size_t n = r.count(1);
    auto it = entries.begin();
    for (std::size_t i = 0; i < n; ++i, ++it) {
        if (it == entries.end())
            throw CheckpointError("stat registry shape mismatch: " +
                                  std::to_string(n) + " saved, " +
                                  std::to_string(entries.size()) +
                                  " registered");
        const std::string &name = it->first;
        if (!r.strEquals(name))
            throw CheckpointError("expected stat '" + name + "'");
        Entry &entry = it->second;
        const std::uint8_t kind = r.u<std::uint8_t>();
        if (kind != static_cast<std::uint8_t>(entry.kind))
            throw CheckpointError("stat '" + name + "' kind mismatch");
        if (entry.kind != Kind::Histogram) {
            entry.value = r.u<std::uint64_t>();
            continue;
        }
        HistogramData &h = entry.hist;
        const std::size_t buckets = r.count(sizeof(std::uint64_t));
        if (buckets != h.buckets.size())
            throw CheckpointError("stat '" + name +
                                  "' bucket shape mismatch");
        for (auto &b : h.buckets)
            b = r.u<std::uint64_t>();
        h.count = r.u<std::uint64_t>();
        h.sum = r.u<std::uint64_t>();
        h.min = r.u<std::uint64_t>();
        h.max = r.u<std::uint64_t>();
    }
    if (it != entries.end())
        throw CheckpointError("expected stat '" + it->first + "'");
}

} // namespace slpmt
