/**
 * @file
 * The experiment multiplexer: runs any subset of the paper-figure
 * sweeps from the figure registry on a work-stealing pool, prints the
 * figure tables, and optionally emits a deterministic JSON report
 * and/or diffs it against a saved baseline.
 *
 * Exit codes: 0 ok, 1 verification failure, 2 usage or I/O error,
 * 3 baseline regression beyond the threshold.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
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

namespace
{

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
        "                      RSS to FILE (default BENCH_speed.json)\n"
        "  --speed-baseline=F  diff wall-clock against a recorded\n"
        "                      speed profile; exit 3 on regression\n"
        "  --speed-threshold=N wall-clock regression bound (default "
        "3.0)\n",
        prog, prog);
}

} // namespace

int
main(int argc, char **argv)
{
    slpmt::setAllocationCounter([] {
        return allocation_count.load(std::memory_order_relaxed);
    });

    slpmt::BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            for (const slpmt::FigureSpec &fig : slpmt::figureRegistry())
                std::printf("%-8s %s\n", fig.name.c_str(),
                            fig.title.c_str());
            return 0;
        }
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        }
        if (arg.rfind("--figure=", 0) == 0) {
            std::string list = arg.substr(std::strlen("--figure="));
            while (!list.empty()) {
                const std::size_t comma = list.find(',');
                const std::string name = list.substr(0, comma);
                list = comma == std::string::npos
                           ? std::string()
                           : list.substr(comma + 1);
                if (name == "all") {
                    for (const slpmt::FigureSpec &fig :
                         slpmt::figureRegistry())
                        opts.figures.push_back(fig.name);
                } else if (!name.empty()) {
                    opts.figures.push_back(name);
                }
            }
            continue;
        }
        std::string error;
        const int consumed =
            slpmt::parseCommonFlag(arg, &opts, &error);
        if (consumed < 0) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
        if (consumed == 0) {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (opts.figures.empty()) {
        usage(argv[0]);
        return 2;
    }
    return slpmt::runBench(opts);
}
