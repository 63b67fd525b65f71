#include "bench.hh"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/rng.hh"

namespace perfbench
{

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
percentile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
interpolatedPercentile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size());
    std::size_t lo = 0;
    for (;;) {
        std::size_t hi = lo;
        while (hi < v.size() && v[hi] == v[lo])
            ++hi;
        if (rank < static_cast<double>(hi) || hi == v.size())
            return v[lo] - 0.5 +
                   (rank - static_cast<double>(lo)) /
                       static_cast<double>(hi - lo);
        lo = hi;
    }
}

double
median(std::vector<double> v)
{
    return percentile(v, 0.5);
}

std::uint64_t
inputSeed(std::uint64_t seed, std::uint64_t i)
{
    return slpmt::mix64Salted(seed, 0x5eed'0000ULL + i);
}

// -------------------------------------------------------------------
// Tracer
// -------------------------------------------------------------------

Tracer::Tracer(bool enabled) : on(enabled)
{
    // Reserved up front so recording a span never allocates in the
    // measured windows (keeps host.allocs equal with tracing on).
    if (on)
        recorded.reserve(std::size_t{1} << 19);
}

std::int64_t
Tracer::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Scope::Scope(Tracer &tracer, const char *name, std::uint64_t id)
    : tr(tracer)
{
    if (!tr.on)
        return;
    previous = tr.current;
    index = static_cast<std::int32_t>(tr.recorded.size());
    tr.recorded.push_back({name, previous, id, nowNs(), 0});
    tr.current = index;
}

Tracer::Scope::~Scope()
{
    if (index < 0)
        return;
    tr.recorded[static_cast<std::size_t>(index)].endNs = nowNs();
    tr.current = previous;
}

void
Tracer::clear()
{
    recorded.clear();
    current = -1;
}

double
Tracer::totalMs(const char *name) const
{
    const std::string want = name;
    double ns = 0;
    for (const Span &s : recorded)
        if (want == s.name)
            ns += static_cast<double>(s.endNs - s.startNs);
    return ns * 1e-6;
}

std::vector<double>
Tracer::durationsUs(const char *name) const
{
    const std::string want = name;
    std::vector<double> out;
    for (const Span &s : recorded)
        if (want == s.name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-3);
    return out;
}

std::map<std::string, double>
Tracer::selfMs() const
{
    std::vector<std::int64_t> child_ns(recorded.size(), 0);
    for (const Span &s : recorded)
        if (s.parent >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        const Span &s = recorded[i];
        self[s.name] +=
            static_cast<double>(s.endNs - s.startNs - child_ns[i]) * 1e-6;
    }
    return self;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::int64_t t0 = recorded.empty() ? 0 : recorded[0].startNs;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        const Span &s = recorded[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %llu, \"parent\": %d}}\n",
                     i ? "," : "", s.name,
                     static_cast<double>(s.startNs - t0) * 1e-3,
                     static_cast<double>(s.endNs - s.startNs) * 1e-3,
                     static_cast<unsigned long long>(s.id), s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

// -------------------------------------------------------------------
// Simulated per-layer metrics
// -------------------------------------------------------------------

double
sumStat(const slpmt::StatsSnapshot &s, const std::string &name)
{
    const std::string dotted = "." + name;
    double total = 0;
    for (const auto &[key, value] : s)
        if (key == name || key.ends_with(dotted))
            total += static_cast<double>(value);
    return total;
}

void
accumulate(slpmt::StatsSnapshot &acc, const slpmt::StatsSnapshot &delta)
{
    for (const auto &[key, value] : delta)
        acc[key] += value;
}

void
addLayerMetrics(const slpmt::StatsSnapshot &d, double ops,
                std::map<std::string, double> &out)
{
    auto get = [&](const char *name) { return sumStat(d, name); };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    auto per_op = [&](const char *name) { return ratio(get(name), ops); };

    const double l1_hits = get("cache.l1Hits");
    const double l1_misses = get("cache.l1Misses");
    const double l2_hits = get("cache.l2Hits");
    out["cache.l1_miss_ratio"] = ratio(l1_misses, l1_hits + l1_misses);
    out["cache.l2_hit_ratio"] = ratio(l2_hits, l2_hits + get("cache.l2Misses"));
    out["cache.l3_misses_per_op"] = per_op("cache.l3Misses");
    out["cache.writebacks_per_op"] = per_op("cache.writebacks");
    out["cache.private_evictions_per_op"] = per_op("cache.privateEvictions");
    out["cache.meta_walks_per_op"] = per_op("cache.metaWalks");

    out["pm.reads_per_op"] = per_op("pm.reads");
    out["pm.line_writes_per_op"] = per_op("pm.lineWrites");
    out["pm.data_bytes_per_op"] = per_op("pm.dataBytesWritten");
    out["pm.log_bytes_per_op"] = per_op("pm.logBytesWritten");
    out["pm.wpq_stalls_per_op"] = per_op("pm.wpqStalls");
    out["pm.wpq_stall_cycles_per_op"] = per_op("pm.wpqStallCycles");
    out["pm.wpq_coalesce_ratio"] =
        ratio(get("pm.wpqCoalesced"), get("pm.lineWrites"));

    const double inserts = get("logbuf.inserts");
    out["logbuf.inserts_per_op"] = ratio(inserts, ops);
    out["logbuf.coalesce_ratio"] = ratio(get("logbuf.coalesces"), inserts);
    out["logbuf.discard_ratio"] =
        ratio(get("logbuf.recordsDiscarded"), inserts);
    out["logbuf.persisted_per_op"] = per_op("logbuf.recordsPersisted");
    out["logbuf.tier_drains_per_op"] = per_op("logbuf.tierDrains");

    const double deferred = get("txn.lazyLinesDeferred");
    const double begun = get("txn.begun");
    out["txn.log_records_per_op"] = per_op("txn.logRecordsCreated");
    out["txn.log_free_words_per_op"] = per_op("txn.logFreeWordsElided");
    out["txn.lazy_deferred_per_op"] = ratio(deferred, ops);
    out["txn.lazy_forced_ratio"] =
        ratio(get("txn.lazyForcedPersists"), deferred);
    for (const char *reason : {"sigHit", "lineOwner", "eviction", "idWrap",
                               "remoteSigHit", "remoteIdObserved"}) {
        const std::string stat = std::string("txn.lazyDrain.") + reason;
        out["txn.lazy_drain." + std::string(reason) + "_per_op"] =
            ratio(sumStat(d, stat), ops);
    }
    out["txn.commit_line_persists_per_op"] = per_op("txn.commitLinePersists");
    out["txn.signature_hits_per_op"] = per_op("txn.signatureHits");
    out["txn.abort_ratio"] = ratio(get("txn.aborted"), begun);
    out["undolog.wire_bytes_per_op"] = per_op("undolog.wireBytes");

    out["heap.allocs_per_op"] = per_op("heap.allocs");

    const double probes = get("multicore.probes");
    out["multicore.probes_per_op"] = ratio(probes, ops);
    out["multicore.remote_hit_ratio"] = ratio(get("multicore.remoteHits"), probes);
    out["multicore.invalidations_per_op"] = per_op("multicore.invalidations");
    out["multicore.conflict_abort_ratio"] =
        ratio(get("multicore.conflictAborts"), begun);
    out["multicore.ctx_switch_drains_per_op"] =
        per_op("multicore.ctxSwitchDrains");
}

} // namespace perfbench
