/**
 * @file
 * Shared pieces of the SLPMT benchmark: host clocks, the in-memory span
 * tracer, the per-pass result record, and the per-layer metric
 * derivation from StatsRegistry snapshots.
 *
 * The benchmark measures each layer from outside: every span wraps one
 * of the benchmark's own calls into a public entry point of the
 * simulator (construction, Workload::setup/insert/lookup, svcGenerate,
 * runInterleaved, MachineCheckpoint::capture/restore, the crash
 * sweeps...). Nothing inside src/ is instrumented.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats/stats.hh"

namespace perfbench
{

/** Wall-clock seconds on the monotonic clock. */
double wallSeconds();

/** CPU seconds consumed by the whole process (every thread). */
double cpuSeconds();

/** Heap allocations made by the process so far (operator new calls). */
std::uint64_t allocations();

/** Nearest-rank percentile @p q (0..1) of @p v; sorts @p v. 0 if empty. */
double percentile(std::vector<double> &v, double q);

/**
 * Percentile @p q (0..1) of integer-valued samples such as simulated
 * cycle counts, interpolated inside the run of ties that holds it: each
 * value v is spread evenly over [v - 0.5, v + 0.5). Unlike a
 * nearest-rank pick it moves when the number of samples below a tied
 * plateau changes. Sorts @p v. 0 if empty.
 */
double interpolatedPercentile(std::vector<double> &v, double q);

/** Median of @p v (copied). 0 if empty. */
double median(std::vector<double> v);

/**
 * In-memory span recorder. A span has a name, a start and end on the
 * monotonic clock, the span that was open when it started (its parent)
 * and a request or cell id. Names are string literals. When disabled,
 * Scope does nothing but one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::int32_t parent;
        std::uint64_t id;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    explicit Tracer(bool enabled);

    bool enabled() const { return on; }

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, std::uint64_t id = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tr;
        std::int32_t index = -1;
        std::int32_t previous = -1;
    };

    const std::vector<Span> &spans() const { return recorded; }

    /** Drop every recorded span (capacity is kept). */
    void clear();

    /** Summed duration in ms of every span called @p name. */
    double totalMs(const char *name) const;

    /** Durations in us of every span called @p name. */
    std::vector<double> durationsUs(const char *name) const;

    /** Self time in ms per span name: duration minus the time the
     *  span's direct children cover. */
    std::map<std::string, double> selfMs() const;

    /** Write the spans as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    static std::int64_t nowNs();

    bool on;
    std::int32_t current = -1;
    std::vector<Span> recorded;
};

/**
 * What one pass of a workload produced. A pass is one complete run of
 * the workload, from machine construction to verification.
 */
struct PassResult
{
    /** Simulated metrics and simulated per-layer counters: a pure
     *  function of the seed, so every pass must repeat them exactly. */
    std::map<std::string, double> sim;

    /** Exact host counts (allocations, checkpoint captures...); must
     *  repeat exactly between passes of the same tracing mode. */
    std::map<std::string, double> counts;

    /** Host timings of this pass (seconds, ms, ops/s...). */
    std::map<std::string, double> host;

    /** SLPMT per-op simulated latencies (cycles) of the measured window. */
    std::vector<double> latencies;

    std::uint64_t attempted = 0;  //!< verifications attempted
    std::uint64_t failed = 0;     //!< verifications failed
    std::vector<std::string> failures;

    void
    fail(const std::string &why)
    {
        ++failed;
        failures.push_back(why);
    }
};

/** Summed value of counter @p name over every "prefix." copy in @p s
 *  (cores of a machine, shards of a service). */
double sumStat(const slpmt::StatsSnapshot &s, const std::string &name);

/** Add @p delta into @p acc key by key. */
void accumulate(slpmt::StatsSnapshot &acc, const slpmt::StatsSnapshot &delta);

/**
 * Derive the simulated per-layer metrics (cache, pm, logbuf, txn,
 * undolog, heap, multicore) of a measured window from its summed stats
 * delta and its measured op count.
 */
void addLayerMetrics(const slpmt::StatsSnapshot &delta, double ops,
                     std::map<std::string, double> &out);

/** Record the host time of a setup phase into @p pass ("setup_s"). */
struct SetupTimer
{
    explicit SetupTimer(PassResult &pass) : pass(pass), t0(wallSeconds()) {}
    ~SetupTimer() { pass.host["setup_s"] += wallSeconds() - t0; }
    SetupTimer(const SetupTimer &) = delete;
    SetupTimer &operator=(const SetupTimer &) = delete;

    PassResult &pass;
    double t0;
};

/** CPU time and allocations of a measured window. */
struct MeasuredWindow
{
    MeasuredWindow() : cpu0(cpuSeconds()), alloc0(allocations()) {}

    /** Close the window, adding its CPU time and allocations to
     *  @p pass's "measured_cpu_s" and "host.allocs" tallies. */
    void
    close(PassResult &pass)
    {
        const std::uint64_t alloc1 = allocations();
        pass.host["measured_cpu_s"] += cpuSeconds() - cpu0;
        pass.counts["host.allocs"] += static_cast<double>(alloc1 - alloc0);
    }

    double cpu0;
    std::uint64_t alloc0;
};

/** @name Workloads: one pass each, plus a once-per-run cross-check. */
/** @{ */
PassResult ycsbLoadPass(std::uint64_t seed, Tracer &tr);
void ycsbLoadCheck(std::uint64_t seed, const PassResult &pass,
                   PassResult &check);

PassResult kvServicePass(std::uint64_t seed, Tracer &tr);
void kvServiceCheck(std::uint64_t seed, const PassResult &pass,
                    PassResult &check);

PassResult crashSweepPass(std::uint64_t seed, Tracer &tr);
void crashSweepCheck(std::uint64_t seed, const PassResult &pass,
                     PassResult &check);
/** @} */

/** Input seed @p i of a workload, derived from the benchmark seed. */
std::uint64_t inputSeed(std::uint64_t seed, std::uint64_t i);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
