/**
 * @file
 * The figure registry: every measurement the slpmt_bench CLI runs.
 *
 * Each figure of the evaluation (Table I, Figures 4 and 8-14, the
 * Section V-A strategy, the hardware ablations and the extensions) is
 * one list of experiment cells plus a table printer that formats the
 * results the way the paper's figure does. Most cells are ycsb-load
 * insert phases that runExperiment() measures; a figure that measures
 * something else (a store form, a persist ledger, an update mix)
 * brings its own cell runner. Either way the orchestrator runs the
 * cells in parallel and slpmt_bench verifies, reports and diffs them
 * the same way.
 */

#ifndef SLPMT_SIM_FIGURES_HH
#define SLPMT_SIM_FIGURES_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/orchestrator.hh"

namespace slpmt
{

/** One registered figure. */
struct FigureSpec
{
    std::string name;   //!< CLI id ("fig8", "sample", ...)
    std::string title;  //!< one-line description for --list
    std::function<std::vector<ExperimentCase>()> cases;
    std::function<void(const MatrixResult &)> print;
    CellRunner run = {};  //!< empty: runExperiment()
};

/** Every registered figure, in presentation order. */
const std::vector<FigureSpec> &figureRegistry();

/** Lookup by CLI id; nullptr when unknown. */
const FigureSpec *findFigure(const std::string &name);

} // namespace slpmt

#endif // SLPMT_SIM_FIGURES_HH
