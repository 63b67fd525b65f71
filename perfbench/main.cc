/**
 * @file
 * The SLPMT benchmark: one workload per invocation, measured for a
 * fixed host time, checked, and reported as one JSON line.
 *
 *   slpmt_perfbench --workload ycsb-load|kv-service|crash-sweep
 *                   --seed N --seconds S --trace 0|1 [--trace-out FILE]
 *
 * A run repeats whole passes of the workload (construction to
 * verification) until S seconds have passed. Simulated metrics are a
 * pure function of the seed and must repeat exactly in every pass;
 * host metrics are the median over passes. With --trace 0 the JSON
 * carries the end-to-end metrics; with --trace 1 it alternates
 * untraced and traced passes and carries the per-layer metrics, the
 * per-layer self times and the tracing overhead. The last line of
 * standard output is the JSON result; the exit code is 0 when every
 * output check passed, 1 when one failed, 2 on a usage error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "bench.hh"

namespace
{

/** Host heap-allocation tally behind perfbench::allocations(). */
std::atomic<std::uint64_t> allocation_count{0};

} // namespace

// Count every scalar allocation; the default operator new[] routes
// through this overload, so array allocations are tallied too.
void *
operator new(std::size_t size)
{
    allocation_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc{};
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace perfbench
{

std::uint64_t
allocations()
{
    return allocation_count.load(std::memory_order_relaxed);
}

namespace
{

struct WorkloadSpec
{
    const char *name;
    PassResult (*pass)(std::uint64_t, Tracer &);
    void (*check)(std::uint64_t, const PassResult &, PassResult &);
};

const WorkloadSpec workloads[] = {
    {"ycsb-load", ycsbLoadPass, ycsbLoadCheck},
    {"kv-service", kvServicePass, kvServiceCheck},
    {"crash-sweep", crashSweepPass, crashSweepCheck},
};

struct MetricSpec
{
    const char *name;
    const char *unit;
};

const MetricSpec endToEnd[] = {
    {"sim_cycles_per_op", "cycles"},
    {"pm_write_bytes_per_op", "B"},
    {"slpmt_speedup_vs_fg", "x"},
    {"latency_p50_cycles", "cycles"},
    {"latency_p99_cycles", "cycles"},
    {"host_ops_per_s", "ops/s"},
    {"setup_s", "s"},
    {"run_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Span names whose self time is reported as self_ms.<name>. */
const char *const selfSpans[] = {
    "pass",          "setup",           "loadgen.generate",
    "service.route", "phase.construct", "workload.setup",
    "phase.preload", "sweep.dry_run",   "measured",
    "workload.op",   "sweep.core",      "sweep.mc",
    "sweep.service", "service.fingerprint", "phase.verify",
    "workload.check", "workload.lookup",
};

/** Per-layer metrics taken from the simulated side of a pass. */
const MetricSpec simLayer[] = {
    {"cache.l1_miss_ratio", "ratio"},
    {"cache.l2_hit_ratio", "ratio"},
    {"cache.l3_misses_per_op", "1/op"},
    {"cache.writebacks_per_op", "1/op"},
    {"cache.private_evictions_per_op", "1/op"},
    {"cache.meta_walks_per_op", "1/op"},
    {"pm.reads_per_op", "1/op"},
    {"pm.line_writes_per_op", "1/op"},
    {"pm.data_bytes_per_op", "B/op"},
    {"pm.log_bytes_per_op", "B/op"},
    {"pm.wpq_stalls_per_op", "1/op"},
    {"pm.wpq_stall_cycles_per_op", "cycles/op"},
    {"pm.wpq_coalesce_ratio", "ratio"},
    {"logbuf.inserts_per_op", "1/op"},
    {"logbuf.coalesce_ratio", "ratio"},
    {"logbuf.discard_ratio", "ratio"},
    {"logbuf.persisted_per_op", "1/op"},
    {"logbuf.tier_drains_per_op", "1/op"},
    {"txn.log_records_per_op", "1/op"},
    {"txn.log_free_words_per_op", "1/op"},
    {"txn.lazy_deferred_per_op", "1/op"},
    {"txn.lazy_forced_ratio", "ratio"},
    {"txn.lazy_drain.sigHit_per_op", "1/op"},
    {"txn.lazy_drain.lineOwner_per_op", "1/op"},
    {"txn.lazy_drain.eviction_per_op", "1/op"},
    {"txn.lazy_drain.idWrap_per_op", "1/op"},
    {"txn.lazy_drain.remoteSigHit_per_op", "1/op"},
    {"txn.lazy_drain.remoteIdObserved_per_op", "1/op"},
    {"txn.commit_line_persists_per_op", "1/op"},
    {"txn.signature_hits_per_op", "1/op"},
    {"txn.abort_ratio", "ratio"},
    {"undolog.wire_bytes_per_op", "B/op"},
    {"heap.allocs_per_op", "1/op"},
    {"multicore.probes_per_op", "1/op"},
    {"multicore.remote_hit_ratio", "ratio"},
    {"multicore.invalidations_per_op", "1/op"},
    {"multicore.conflict_abort_ratio", "ratio"},
    {"multicore.ctx_switch_drains_per_op", "1/op"},
    {"service.shard_imbalance", "ratio"},
    {"service.read_hit_ratio", "ratio"},
    {"sweep.points.core", "count"},
    {"sweep.points.mc", "count"},
    {"sweep.points.service", "count"},
    {"sweep.replayed_records_per_point", "1/point"},
};

/** Per-layer metrics taken from host timings (median over passes). */
const MetricSpec hostLayer[] = {
    {"phase.construct_ms", "ms"},
    {"phase.preload_ms", "ms"},
    {"phase.verify_ms", "ms"},
    {"loadgen.generate_ms", "ms"},
    {"service.route_ms", "ms"},
    {"service.fingerprint_ms", "ms"},
    {"workload.op_host_us.p50", "us"},
    {"workload.op_host_us.p99", "us"},
    {"workload.setup_ms", "ms"},
    {"workload.check_ms", "ms"},
    {"workload.lookup_host_us.p50", "us"},
    {"checkpoint.capture_us.p50", "us"},
    {"checkpoint.capture_us.p99", "us"},
    {"checkpoint.restore_us.p50", "us"},
    {"checkpoint.restore_us.p99", "us"},
    {"sweep.points_per_s.core", "1/s"},
    {"sweep.points_per_s.mc", "1/s"},
    {"sweep.points_per_s.service", "1/s"},
    {"sweep.dry_run_ms", "ms"},
    {"sweep.tail_replay_us.p50", "us"},
    {"sweep.recover_hw_us.p50", "us"},
    {"sweep.recover_user_us.p50", "us"},
    {"sweep.oracle_us.p50", "us"},
    {"host.cpu_s", "s"},
    {"trace.spans", "count"},
};

/** Fill a traced pass's host map from its spans. */
void
addSpanMetrics(const Tracer &tr, PassResult &pass)
{
    auto p = [&](const char *span, double q) {
        std::vector<double> d = tr.durationsUs(span);
        return percentile(d, q);
    };
    auto &h = pass.host;
    h["phase.construct_ms"] = tr.totalMs("phase.construct");
    h["phase.preload_ms"] = tr.totalMs("phase.preload");
    h["phase.verify_ms"] = tr.totalMs("phase.verify");
    h["loadgen.generate_ms"] = tr.totalMs("loadgen.generate");
    h["service.route_ms"] = tr.totalMs("service.route");
    h["service.fingerprint_ms"] = tr.totalMs("service.fingerprint");
    h["workload.op_host_us.p50"] = p("workload.op", 0.5);
    h["workload.op_host_us.p99"] = p("workload.op", 0.99);
    h["workload.setup_ms"] = tr.totalMs("workload.setup");
    h["workload.check_ms"] = tr.totalMs("workload.check");
    h["workload.lookup_host_us.p50"] = p("workload.lookup", 0.5);
    h["checkpoint.capture_us.p50"] = p("checkpoint.capture", 0.5);
    h["checkpoint.capture_us.p99"] = p("checkpoint.capture", 0.99);
    h["checkpoint.restore_us.p50"] = p("checkpoint.restore", 0.5);
    h["checkpoint.restore_us.p99"] = p("checkpoint.restore", 0.99);
    h["sweep.dry_run_ms"] = tr.totalMs("sweep.dry_run");
    h["sweep.tail_replay_us.p50"] = p("sweep.tail_replay", 0.5);
    h["sweep.recover_hw_us.p50"] = p("sweep.recover_hw", 0.5);
    h["sweep.recover_user_us.p50"] = p("sweep.recover_user", 0.5);
    h["sweep.oracle_us.p50"] = p("sweep.oracle", 0.5);
    h["trace.spans"] = static_cast<double>(tr.spans().size());
    h["sample.points"] =
        static_cast<double>(tr.durationsUs("sample.point").size());
    h["checkpoint.capture.samples"] =
        static_cast<double>(tr.durationsUs("checkpoint.capture").size());
    const auto self = tr.selfMs();
    for (const char *name : selfSpans) {
        const auto it = self.find(name);
        h[std::string("self_ms.") + name] =
            it == self.end() ? 0.0 : it->second;
    }
}

/** Median over @p passes of host value @p key (0 where absent). */
double
hostMedian(const std::vector<PassResult> &passes, const std::string &key)
{
    std::vector<double> v;
    for (const PassResult &p : passes) {
        const auto it = p.host.find(key);
        v.push_back(it == p.host.end() ? 0.0 : it->second);
    }
    return median(v);
}

double
hostOpsPerS(const PassResult &p)
{
    const auto it = p.host.find("host_ops_per_s");
    if (it != p.host.end())
        return it->second;
    return p.host.at("measured_ops") / p.host.at("measured_cpu_s");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Exact-repeat check of the passes' count maps; returns mismatches. */
std::vector<std::string>
countMismatches(const std::vector<PassResult> &passes)
{
    std::vector<std::string> out;
    for (const PassResult &p : passes)
        for (const auto &[key, value] : p.counts)
            if (passes.front().counts.at(key) != value)
                out.push_back(key);
    return out;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string traceOut;
};

bool
parse(int argc, char **argv, Options &opt)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            opt.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
        } else if (flag == "--trace-out") {
            opt.traceOut = value;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return have_workload && argc % 2 == 1 && opt.seconds > 0 &&
           (opt.trace == 0 || opt.trace == 1);
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: slpmt_perfbench --workload "
                 "ycsb-load|kv-service|crash-sweep --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    if (!parse(argc, argv, opt)) {
        usage();
        return 2;
    }
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : workloads)
        if (opt.workload == w.name)
            spec = &w;
    if (!spec) {
        usage();
        return 2;
    }

    // Passes until the run length is spent: untraced only with
    // --trace 0; untraced and traced alternating with --trace 1.
    constexpr std::size_t minPasses = 3;
    Tracer off(false);
    Tracer on(opt.trace == 1);
    std::vector<PassResult> plain, traced;
    const double start = wallSeconds();
    for (;;) {
        plain.push_back(spec->pass(opt.seed, off));
        if (opt.trace == 1) {
            on.clear();
            traced.push_back(spec->pass(opt.seed, on));
            addSpanMetrics(on, traced.back());
        }
        const std::size_t n = opt.trace == 1 ? traced.size() : plain.size();
        if (wallSeconds() - start >= opt.seconds &&
            n >= (opt.trace == 1 ? 2 : minPasses))
            break;
    }

    // Output checks.
    PassResult check;
    spec->check(opt.seed, plain.front(), check);
    std::uint64_t attempted = check.attempted;
    std::uint64_t failed = check.failed;
    std::vector<std::string> failures = check.failures;
    const PassResult &ref = plain.front();
    std::size_t pass_no = 0;
    for (const auto *set : {&plain, &traced}) {
        for (const PassResult &p : *set) {
            ++pass_no;
            // + 1: the pass's own determinism check below.
            attempted += p.attempted + 1;
            failed += p.failed;
            failures.insert(failures.end(), p.failures.begin(),
                            p.failures.end());
            if (p.sim != ref.sim || p.latencies != ref.latencies) {
                ++failed;
                failures.push_back(
                    "pass " + std::to_string(pass_no) +
                    ": simulated metrics differ from pass 1 (traced " +
                    std::string(set == &traced ? "yes" : "no") + ")");
            }
        }
    }
    const bool correct = failed == 0;

    std::vector<double> lat = ref.latencies;
    const auto samples = static_cast<double>(lat.size());
    const double p50 = interpolatedPercentile(lat, 0.5);
    const double p99 = interpolatedPercentile(lat, 0.99);
    // p999 only where at least ten samples lie beyond it.
    const double p999 =
        samples * 0.001 >= 10 ? interpolatedPercentile(lat, 0.999) : 0;

    std::vector<double> ops_per_s;
    for (const PassResult &p : plain)
        ops_per_s.push_back(hostOpsPerS(p));

    std::map<std::string, double> e2e;
    e2e["sim_cycles_per_op"] = ref.sim.at("sim_cycles_per_op");
    e2e["pm_write_bytes_per_op"] = ref.sim.at("pm_write_bytes_per_op");
    e2e["slpmt_speedup_vs_fg"] = ref.sim.at("slpmt_speedup_vs_fg");
    e2e["latency_p50_cycles"] = p50;
    e2e["latency_p99_cycles"] = p99;
    e2e["host_ops_per_s"] = median(ops_per_s);
    e2e["setup_s"] = hostMedian(plain, "setup_s");
    e2e["run_s"] = hostMedian(plain, "run_s");
    e2e["peak_rss_mb"] = peakRssMb();

    std::printf("workload %s, seed %llu, %zu untraced + %zu traced passes "
                "in %.2f s\n",
                spec->name, static_cast<unsigned long long>(opt.seed),
                plain.size(), traced.size(), wallSeconds() - start);
    for (const MetricSpec &m : endToEnd)
        std::printf("  %-28s %16.6f %s\n", m.name, e2e.at(m.name), m.unit);
    std::printf("  latency percentiles over %.0f SLPMT op samples "
                "(p999 %s)\n",
                samples,
                p999 > 0 ? "reported" : "omitted: fewer than 10 beyond it");
    std::vector<double> run_s;
    for (const PassResult &p : plain)
        run_s.push_back(p.host.at("run_s"));
    std::printf("  untraced pass run_s: min %.4f, median %.4f, max %.4f s\n",
                *std::min_element(run_s.begin(), run_s.end()), median(run_s),
                *std::max_element(run_s.begin(), run_s.end()));
    std::printf("  verifications: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (const std::string &f : failures)
        std::printf("  FAILED: %s\n", f.c_str());

    std::map<std::string, std::pair<double, const char *>> out;
    if (opt.trace == 0) {
        for (const MetricSpec &m : endToEnd)
            out[m.name] = {e2e.at(m.name), m.unit};
    } else {
        for (const MetricSpec &m : simLayer) {
            const auto it = ref.sim.find(m.name);
            out[m.name] = {it == ref.sim.end() ? 0.0 : it->second, m.unit};
        }
        for (const MetricSpec &m : hostLayer)
            out[m.name] = {hostMedian(traced, m.name), m.unit};
        for (const char *name : selfSpans)
            out[std::string("self_ms.") + name] = {
                hostMedian(traced, std::string("self_ms.") + name), "ms"};
        const PassResult &t = traced.front();
        auto count = [&](const char *key) {
            const auto it = t.counts.find(key);
            return it == t.counts.end() ? 0.0 : it->second;
        };
        out["host.allocs_per_op"] = {
            count("host.allocs") / t.host.at("measured_ops"), "1/op"};
        out["checkpoint.captures"] = {count("checkpoint.captures"), "count"};
        out["checkpoint.pages_held"] = {count("checkpoint.pages_held"),
                                        "count"};
        out["latency_p999_cycles"] = {p999, "cycles"};
        out["latency.samples"] = {samples, "count"};
        out["error_rate"] = {static_cast<double>(failed) /
                                 static_cast<double>(attempted),
                             "ratio"};
        out["trace.overhead_run_s"] = {
            hostMedian(traced, "run_s") - hostMedian(plain, "run_s"), "s"};

        std::printf("  tracing overhead: traced run_s %.6f s - untraced "
                    "%.6f s = %+.6f s\n",
                    hostMedian(traced, "run_s"), hostMedian(plain, "run_s"),
                    out["trace.overhead_run_s"].first);
        std::printf("  sample counts: %.0f spans per traced pass, %.0f "
                    "checkpoint captures, %.0f sampled crash points\n",
                    hostMedian(traced, "trace.spans"),
                    count("checkpoint.captures"),
                    hostMedian(traced, "sample.points"));
        for (const auto *set : {&plain, &traced}) {
            const auto bad = countMismatches(*set);
            std::printf("  exact counts repeat over %zu %s passes: %s\n",
                        set->size(), set == &plain ? "untraced" : "traced",
                        bad.empty() ? "yes" : "NO");
            for (const std::string &key : bad)
                std::printf("    differs: %s\n", key.c_str());
        }
        for (const auto &[name, value] : out)
            std::printf("  %-40s %16.6f %s\n", name.c_str(), value.first,
                        value.second);
        if (!opt.traceOut.empty() && !on.writeChromeTrace(opt.traceOut))
            std::printf("  could not write %s\n", opt.traceOut.c_str());
    }

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : out) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(value.first) ? value.first : 0.0);
        json += std::string(first ? "" : ", ") + "\"" + name +
                "\": {\"value\": " + buf + ", \"unit\": \"" + value.second +
                "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
