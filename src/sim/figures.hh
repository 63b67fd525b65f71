/**
 * @file
 * The figure registry: every measurement the slpmt_bench CLI runs.
 *
 * Each figure of the evaluation (Table I, Figures 4 and 8-14, the
 * Section V-A strategy, the hardware ablations and the extensions) is
 * one list of experiment cells plus a list of table specs that lay the
 * results out the way the paper's figure does. Most cells are
 * ycsb-load insert phases that runExperiment() measures; a figure that
 * measures something else (a store form, a persist ledger, an update
 * mix) brings its own cell runner. Either way the orchestrator runs
 * the cells in parallel and slpmt_bench verifies, reports and diffs
 * them the same way, and renderTable() draws every table.
 */

#ifndef SLPMT_SIM_FIGURES_HH
#define SLPMT_SIM_FIGURES_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/orchestrator.hh"

namespace slpmt
{

/** How a table prints a value: "1.57x", "35.0%", "12.345", "42", or
 *  "ok"/"FAILED" for a check (nonzero passes). */
enum class NumberFormat { Ratio, Percent, Decimal, Integer, Check };

/** A column's number: a value of the row's cell and its baseline cell
 *  (the cell itself when the column has no baseline). */
struct Metric
{
    std::function<double(const ExperimentResult &cell,
                         const ExperimentResult &base)>
        value;
    NumberFormat format = NumberFormat::Integer;
};

// The metrics the figures share.
Metric speedup();     //!< baseline cycles / cell cycles
Metric trafficCut();  //!< 1 - cell / baseline PM write bytes
Metric kilobytes();   //!< the cell's PM write KB
Metric cycleCount();  //!< the cell's measured cycles
Metric logRecords();  //!< the cell's undo/redo log records
/** The sum of the cell's named stats; fatal() when one is missing. */
Metric statSum(std::vector<std::string> names);

/** A column's summary in the table's last row. */
enum class Footer { None, Geomean, Mean };

/** One metric column. In both keys "{}" stands for the row's key. */
struct TableColumn
{
    std::string header;
    std::string key;      //!< the cell the metric reads
    std::string baseKey;  //!< its baseline cell; empty: none
    Metric metric;
    Footer footer = Footer::None;
};

/** One row: its label cells, then one cell per metric column. */
struct TableRow
{
    std::vector<std::string> labels;
    std::string key = {};  //!< substituted for "{}" in the column keys
};

/**
 * A declarative table. The label headers head the label cells every
 * row starts with; a table of label-only rows has no columns. When a
 * column has a footer, a last row prints each column's geomean or mean
 * under the footer kinds' names ("geomean", "mean", "geomean/mean").
 */
struct TableSpec
{
    std::string title;
    std::vector<std::string> labelHeaders;
    std::vector<TableRow> rows = {};
    std::vector<TableColumn> columns = {};
};

/**
 * The table's text, as the paper's rows: a "== title ==" line, the
 * headers, a rule, then the rows, in left-aligned columns. A missing
 * cell or stat is fatal(); a row with the wrong number of labels is a
 * panic().
 */
std::string renderTable(const TableSpec &spec, const MatrixResult &result);

/** One registered figure. */
struct FigureSpec
{
    std::string name;   //!< CLI id ("fig8", "sample", ...)
    std::string title;  //!< one-line description for --list
    std::function<std::vector<ExperimentCase>()> cases;
    std::function<std::vector<TableSpec>(const MatrixResult &)> tables;
    CellRunner run = {};  //!< empty: runExperiment()
};

/** Every registered figure, in presentation order. */
const std::vector<FigureSpec> &figureRegistry();

/** Lookup by CLI id; nullptr when unknown. */
const FigureSpec *findFigure(const std::string &name);

} // namespace slpmt

#endif // SLPMT_SIM_FIGURES_HH
