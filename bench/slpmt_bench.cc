/**
 * @file
 * slpmt_bench: the one measurement CLI. Runs any subset of the figure
 * registry (src/sim/figures.hh) on a work-stealing pool, prints the
 * figure tables, and optionally emits a deterministic JSON report,
 * diffs it against a saved baseline, or times every cell into a
 * "slpmt-speed-1" profile.
 *
 * Exit codes: 0 ok, 1 verification failure, 2 usage or I/O error,
 * 3 baseline or speed regression beyond the threshold.
 */

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <optional>
#include <sstream>
#include <string>

#include "sim/figures.hh"

namespace
{

/** Host heap-allocation tally feeding the profile's "speed" section.
 *  Relaxed: the count only needs to be monotonic and complete, and
 *  the worker pools must not serialize on it. */
std::atomic<std::uint64_t> allocation_count{0};

} // namespace

// Count every scalar allocation; the default operator new[] routes
// through this overload, so array allocations are tallied too.
//
// The replacements are not inlined: inlined into this file's
// containers, one side's malloc or free would meet the other side's
// operator and GCC would warn (-Wmismatched-new-delete), though both
// sides use malloc.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    allocation_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc{};
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace slpmt;

/** Parsed command line. */
struct Options
{
    std::vector<const FigureSpec *> figures;
    std::size_t workers = 0;        //!< 0 = one per hardware thread
    bool emitJson = false;
    std::string jsonPath;           //!< empty = stdout (tables off)
    bool includeStats = false;      //!< full stats block per cell
    std::string baselinePath;       //!< empty = no diff
    double threshold = 0.05;        //!< relative regression bound
    bool tables = true;             //!< print the figure tables
    bool profile = false;           //!< write the speed profile
    std::string profilePath = "BENCH_speed.json";
    std::string speedBaselinePath;  //!< recorded speed profile
    double speedThreshold = 3.0;    //!< wall-clock regression bound
};

void
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s --figure=NAME[,NAME...] [options]\n"
        "       %s --list\n"
        "\n"
        "options:\n"
        "  --figure=NAME       figure(s) to run; \"all\" runs every one\n"
        "  --list              list registered figures and exit\n"
        "  --workers=N         worker threads (0 = one per hw thread)\n"
        "  --json[=FILE]       emit the JSON report (stdout when no "
        "FILE,\n"
        "                      which suppresses the tables)\n"
        "  --stats             include the full stats block per cell\n"
        "  --baseline=FILE     diff against a saved report; exit 3 on\n"
        "                      regression\n"
        "  --threshold=FRAC    relative regression bound (default "
        "0.05)\n"
        "  --no-tables         skip the figure tables\n"
        "  --profile[=FILE]    self-profiling harness: per-cell wall\n"
        "                      clock, simulated cycles/sec and peak\n"
        "                      RSS to FILE (default BENCH_speed.json);\n"
        "                      skips the figure tables\n"
        "  --speed-baseline=F  diff wall-clock against a recorded\n"
        "                      speed profile; exit 3 on regression\n"
        "  --speed-threshold=N wall-clock regression bound (default "
        "3.0)\n",
        prog, prog);
}

/** @p text as a number >= 0; nullopt unless all of it parses. */
std::optional<double>
parseNumber(const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end || !(v >= 0.0))
        return std::nullopt;
    return v;
}

/**
 * Parse the command line into @p opts, resolving every figure name
 * before anything runs.
 * @return the exit code when the process should stop here (0 after
 *         --list or --help, 2 on a usage error), -1 to run.
 */
int
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string flag = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        auto bad = [&] {
            std::fprintf(stderr, "bad %s value: %s\n", flag.c_str(),
                         value.c_str());
            return 2;
        };

        if (arg == "--list") {
            for (const FigureSpec &fig : figureRegistry())
                std::printf("%-8s %s\n", fig.name.c_str(),
                            fig.title.c_str());
            return 0;
        }
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        }
        if (flag == "--figure" && eq != std::string::npos) {
            std::size_t pos = 0;
            while (pos <= value.size()) {
                const std::size_t comma = value.find(',', pos);
                const std::string name = value.substr(pos, comma - pos);
                pos = comma == std::string::npos ? value.size() + 1
                                                 : comma + 1;
                if (name == "all") {
                    for (const FigureSpec &fig : figureRegistry())
                        opts.figures.push_back(&fig);
                } else if (const FigureSpec *fig = findFigure(name)) {
                    opts.figures.push_back(fig);
                } else if (!name.empty()) {
                    std::fprintf(stderr, "unknown figure: %s\n",
                                 name.c_str());
                    return 2;
                }
            }
        } else if (flag == "--workers" && eq != std::string::npos) {
            if (value.find_first_not_of("0123456789") !=
                    std::string::npos ||
                value.empty())
                return bad();
            opts.workers = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--json") {
            opts.emitJson = true;
            opts.jsonPath = value;
        } else if (arg == "--stats") {
            opts.includeStats = true;
        } else if (flag == "--baseline" && eq != std::string::npos) {
            opts.baselinePath = value;
        } else if (flag == "--threshold" && eq != std::string::npos) {
            const auto t = parseNumber(value);
            if (!t)
                return bad();
            opts.threshold = *t;
        } else if (arg == "--no-tables") {
            opts.tables = false;
        } else if (flag == "--profile") {
            if (eq != std::string::npos && value.empty())
                return bad();
            opts.profile = true;
            opts.tables = false;
            if (!value.empty())
                opts.profilePath = value;
        } else if (flag == "--speed-baseline" &&
                   eq != std::string::npos) {
            opts.profile = true;
            opts.tables = false;
            opts.speedBaselinePath = value;
        } else if (flag == "--speed-threshold" &&
                   eq != std::string::npos) {
            const auto t = parseNumber(value);
            if (!t || *t == 0.0)
                return bad();
            opts.speedThreshold = *t;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (opts.figures.empty()) {
        usage(argv[0]);
        return 2;
    }
    return -1;
}

/** Load and parse a JSON document; prints why and returns false when
 *  it cannot. */
bool
loadJson(const std::string &path, const char *what, JsonValue *doc)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    if (in && parseJson(text.str(), doc, &error))
        return true;
    std::fprintf(stderr, "cannot load %s %s%s%s\n", what, path.c_str(),
                 error.empty() ? "" : ": ", error.c_str());
    return false;
}

/** Write @p text to @p path, or to stdout when the path is empty. */
bool
writeOutput(const std::string &path, const std::string &text)
{
    if (path.empty())
        return std::fputs(text.c_str(), stdout) >= 0;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
    return true;
}

/** Process peak resident set size in kilobytes (Linux getrusage). */
std::uint64_t
peakRssKb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

/** Wall-clock below which speed regressions are never flagged: tiny
 *  sweeps on a loaded machine jitter by more than any real factor. */
constexpr std::uint64_t speedNoiseFloorUs = 250'000;

/** One figure's entry of the speed profile: per-cell and total
 *  wall-clock, simulated cycles and host allocations. */
void
writeFigureSpeed(JsonWriter &w, const MatrixResult &result,
                 std::uint64_t wall_us, std::uint64_t allocs)
{
    std::uint64_t sim_cycles = 0;
    for (const ExperimentResult &res : result.results)
        sim_cycles += res.cycles;

    w.beginObject();
    w.key("cells").beginObject();
    // Sorted cell keys, like the deterministic reports.
    std::map<std::string, std::size_t> order;
    for (std::size_t i = 0; i < result.cases.size(); ++i)
        order.emplace(result.cases[i].key, i);
    for (const auto &[key, i] : order) {
        w.key(key).beginObject();
        w.key("wallUs").value(result.wallMicros[i]);
        w.key("simCycles").value(result.results[i].cycles);
        if (result.wallMicros[i] > 0) {
            w.key("simCyclesPerSec")
                .value(result.results[i].cycles * 1'000'000 /
                       result.wallMicros[i]);
        }
        w.endObject();
    }
    w.endObject();
    w.key("totalWallUs").value(wall_us);
    w.key("totalSimCycles").value(sim_cycles);
    if (wall_us > 0)
        w.key("simCyclesPerSec").value(sim_cycles * 1'000'000 / wall_us);
    w.key("hostAllocs").value(allocs);
    w.endObject();
}

/** Diff one figure against the baseline report; returns the number
 *  of regressions. */
std::size_t
diffBaseline(const JsonValue &baseline, const std::string &name,
             const MatrixResult &result, double threshold)
{
    const BaselineDiff diff =
        diffAgainstBaseline(baseline, name, result, threshold);
    if (diff.cellsCompared == 0) {
        std::fprintf(stderr,
                     "baseline has no cells for %s (%zu cells "
                     "unmatched)\n",
                     name.c_str(), diff.cellsMissingInBaseline);
    }
    for (const BaselineRegression &reg : diff.regressions) {
        std::fprintf(stderr, "REGRESSION %s %s %s: %.0f -> %.0f (%+.1f%%)\n",
                     name.c_str(), reg.cell.c_str(), reg.metric.c_str(),
                     reg.before, reg.after, reg.change() * 100.0);
    }
    return diff.regressions.size();
}

/** True when one figure's wall-clock exceeds the recorded profile's
 *  by more than @p bound x (and the noise floor). */
bool
speedRegressed(const JsonValue &recorded_doc, const std::string &name,
               std::uint64_t wall_us, double bound)
{
    const JsonValue *recorded = nullptr;
    if (const JsonValue *figs = recorded_doc.find("figures"))
        if (const JsonValue *f = figs->find(name))
            recorded = f->find("totalWallUs");
    if (!recorded || !recorded->isNumber()) {
        std::fprintf(stderr, "speed baseline has no totalWallUs for %s\n",
                     name.c_str());
        return false;
    }
    const double before = recorded->number;
    const double after = static_cast<double>(wall_us);
    if (after <= before * bound || wall_us <= speedNoiseFloorUs)
        return false;
    std::fprintf(stderr,
                 "SPEED REGRESSION %s: %.1f ms -> %.1f ms (%.2fx, bound "
                 "%.2fx)\n",
                 name.c_str(), before / 1000.0, after / 1000.0,
                 after / before, bound);
    return true;
}

/**
 * Run every figure in @p opts in order: print its tables, verify its
 * cells, and add it to the JSON report, the baseline diff and the
 * speed profile as requested.
 */
int
run(const Options &opts)
{
    // Load the baselines up front so a bad path fails before the runs.
    JsonValue baseline;
    JsonValue speed_baseline;
    if (!opts.baselinePath.empty() &&
        !loadJson(opts.baselinePath, "baseline", &baseline))
        return 2;
    if (!opts.speedBaselinePath.empty() &&
        !loadJson(opts.speedBaselinePath, "speed baseline",
                  &speed_baseline))
        return 2;

    const bool print_tables =
        opts.tables && !(opts.emitJson && opts.jsonPath.empty());
    std::vector<std::string> reports;
    JsonWriter speed;
    speed.beginObject();
    speed.key("schema").value("slpmt-speed-1");
    speed.key("figures").beginObject();
    bool all_verified = true;
    std::size_t regressions = 0;

    for (const FigureSpec *fig : opts.figures) {
        const std::vector<ExperimentCase> cases = fig->cases();
        const std::uint64_t allocs_before = allocation_count.load();
        const auto start = std::chrono::steady_clock::now();
        const MatrixResult result = runCases(cases, opts.workers, fig->run);
        const auto wall_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        const std::uint64_t allocs =
            allocation_count.load() - allocs_before;
        // Timing goes to stderr only: the JSON report must stay
        // byte-identical across runs and worker counts.
        std::fprintf(stderr, "%s: %zu cells in %.1f ms\n",
                     fig->name.c_str(), result.cases.size(),
                     static_cast<double>(wall_us) / 1000.0);

        if (print_tables) {
            for (const TableSpec &table : fig->tables(result))
                std::fputs(renderTable(table, result).c_str(), stdout);
        }
        std::string failures;
        if (!result.allVerified(&failures)) {
            all_verified = false;
            std::fprintf(stderr, "VERIFICATION FAILURES (%s):\n%s",
                         fig->name.c_str(), failures.c_str());
        }
        if (opts.emitJson)
            reports.push_back(
                reportJson(fig->name, result, opts.includeStats));
        if (!opts.baselinePath.empty())
            regressions += diffBaseline(baseline, fig->name, result,
                                        opts.threshold);
        if (opts.profile) {
            speed.key(fig->name);
            writeFigureSpeed(speed, result, wall_us, allocs);
        }
        if (!opts.speedBaselinePath.empty() &&
            speedRegressed(speed_baseline, fig->name, wall_us,
                           opts.speedThreshold))
            regressions++;
    }

    if (opts.emitJson) {
        std::string doc;
        if (reports.size() == 1) {
            doc = reports.front();
        } else {
            doc = "{\"schema\":\"slpmt-bench-1\",\"reports\":[";
            for (std::size_t i = 0; i < reports.size(); ++i)
                doc += (i ? "," : "") + reports[i];
            doc += "]}";
        }
        if (!writeOutput(opts.jsonPath, doc + "\n"))
            return 2;
    }
    if (opts.profile) {
        speed.endObject();
        // Peak RSS and the host allocation total pin the arena work
        // (log records, SoA frames) as numbers a later regression can
        // be diffed against, not just a wall-clock that varies by
        // host.
        speed.key("peakRssKb").value(peakRssKb());
        speed.key("speed").beginObject();
        speed.key("peakRssKb").value(peakRssKb());
        speed.key("hostAllocs").value(allocation_count.load());
        speed.endObject();
        speed.endObject();
        if (!writeOutput(opts.profilePath, speed.str() + "\n"))
            return 2;
        std::fprintf(stderr, "speed profile written to %s\n",
                     opts.profilePath.c_str());
    }

    if (!all_verified)
        return 1;
    return regressions > 0 ? 3 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    const int rc = parseArgs(argc, argv, opts);
    return rc >= 0 ? rc : run(opts);
}
