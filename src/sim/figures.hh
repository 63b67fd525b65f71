/**
 * @file
 * The paper-figure sweep registry.
 *
 * Each figure of the evaluation (Figures 8-14) is one declarative
 * sweep over the experiment space plus a table printer that formats
 * the results the way the paper's figure does. The slpmt_bench
 * multiplexer runs any subset of the registry behind one CLI (worker
 * count, JSON reports, baseline diffing).
 */

#ifndef SLPMT_SIM_FIGURES_HH
#define SLPMT_SIM_FIGURES_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/orchestrator.hh"

namespace slpmt
{

/** One registered figure sweep. */
struct FigureSpec
{
    std::string name;   //!< CLI id ("fig8", "sample", ...)
    std::string title;  //!< one-line description for --list
    std::function<std::vector<ExperimentCase>()> cases;
    std::function<void(const MatrixResult &)> print;
};

/** Every registered figure, in presentation order. */
const std::vector<FigureSpec> &figureRegistry();

/** Lookup by CLI id; nullptr when unknown. */
const FigureSpec *findFigure(const std::string &name);

/** Parsed slpmt_bench command line. */
struct BenchOptions
{
    std::vector<std::string> figures;  //!< resolved figure names
    std::size_t workers = 0;           //!< 0 = one per hardware thread
    bool emitJson = false;
    std::string jsonPath;              //!< empty = stdout (tables off)
    bool includeStats = false;         //!< full stats block per cell
    std::string baselinePath;          //!< empty = no diff
    double threshold = 0.05;           //!< relative regression bound
    bool tables = true;                //!< print the figure tables

    /** @name Self-profiling harness (host-side performance) */
    /** @{ */
    bool profile = false;              //!< run the profiling harness
    std::string profilePath = "BENCH_speed.json";
    std::string speedBaselinePath;     //!< recorded BENCH_speed.json
    double speedThreshold = 3.0;       //!< wall-clock regression bound
    /** @} */
};

/**
 * Install a host heap-allocation tally for the profiling harness:
 * when a counter is present, --profile records allocation-count
 * deltas per figure and a "speed" summary section (peak RSS +
 * total allocations) in the slpmt-speed-1 document. slpmt_bench
 * overrides global operator new to supply one; binaries without a
 * counter simply omit the fields.
 */
void setAllocationCounter(std::uint64_t (*fn)());

/**
 * Parse one common flag (--workers=N, --json[=FILE], --stats,
 * --baseline=FILE, --threshold=FRACTION, --no-tables,
 * --profile[=FILE], --speed-baseline=FILE, --speed-threshold=N).
 * @return 1 consumed, 0 not a common flag, -1 malformed (error set).
 */
int parseCommonFlag(const std::string &arg, BenchOptions *opts,
                    std::string *error);

/**
 * Run every figure in @p opts in order, print tables, emit the JSON
 * report(s) and diff against the baseline when requested.
 *
 * With opts.profile set, the self-profiling harness runs instead: each
 * figure is timed (per-cell host wall-clock, simulated cycles per
 * host second, process peak RSS) and a "slpmt-speed-1" JSON document
 * is written to opts.profilePath. With opts.speedBaselinePath set, each figure's wall-clock is diffed
 * against the recorded document: exceeding speedThreshold x the
 * recorded time (and a 250 ms absolute noise floor, so tiny sweeps on
 * loaded machines cannot flake) is a regression.
 *
 * @return process exit code: 0 ok, 1 verification failure, 2 usage/io
 *         error, 3 baseline regression
 */
int runBench(const BenchOptions &opts);

} // namespace slpmt

#endif // SLPMT_SIM_FIGURES_HH
