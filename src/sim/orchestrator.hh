/**
 * @file
 * Parallel experiment orchestrator.
 *
 * Most paper figures are sweeps over the same experiment space
 * (workload x scheme x value size x PM latency), and every cell is
 * one independent simulated machine. The orchestrator expands a
 * declarative MatrixSpec into a flat case list in a fixed enumeration
 * order, runs the cases on a work-stealing pool (one machine per
 * worker item, no shared simulator state) through runExperiment() or
 * a figure's own cell runner, and merges results back in enumeration
 * order — so reports are byte-identical regardless of the worker
 * count or schedule.
 *
 * Reports serialise as stable-key JSON (integer metrics only, no
 * wall-clock or host information) and can be diffed against a saved
 * baseline report to flag regressions beyond a threshold.
 */

#ifndef SLPMT_SIM_ORCHESTRATOR_HH
#define SLPMT_SIM_ORCHESTRATOR_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/json.hh"

namespace slpmt
{

/** One fully-resolved experiment cell of a sweep. */
struct ExperimentCase
{
    std::string key;       //!< stable cell id: workload/Scheme[/suffix]
    std::string workload;
    ExperimentConfig cfg;
};

/**
 * A declarative experiment matrix. Expansion takes the cross product
 * of the vector axes in a fixed nesting order (workload, value size,
 * PM latency, scheme); numOps applies to every cell, and every other
 * knob keeps its ExperimentConfig default (undo logging, manual
 * annotations, the figure seed).
 */
struct MatrixSpec
{
    std::vector<std::string> workloads;
    std::vector<SchemeKind> schemes;
    std::vector<std::size_t> valueSizes = {256};
    std::vector<std::uint64_t> pmWriteLatenciesNs = {500};
    std::size_t numOps = 1000;
};

/** Cell key builder: workload/SchemeName[/suffix]. */
std::string caseKey(const std::string &workload, SchemeKind scheme,
                    const std::string &suffix = "");

/**
 * Expand a matrix into its case list. An axis contributes a key
 * suffix component only when it actually sweeps (more than one
 * value), so single-point matrices keep the short workload/Scheme
 * keys the figure tables use.
 */
std::vector<ExperimentCase> expandMatrix(const MatrixSpec &spec);

/** Results of a sweep, in case-enumeration order. */
class MatrixResult
{
  public:
    std::vector<ExperimentCase> cases;
    std::vector<ExperimentResult> results;  //!< parallel to cases

    /** Host wall-clock per cell in microseconds (parallel to cases).
     *  Profiling data only — never serialised into reports, which
     *  must stay deterministic. */
    std::vector<std::uint64_t> wallMicros;

    /** Cell lookup; fatal() when the key was never enumerated. */
    const ExperimentResult &get(const std::string &key) const;

    const ExperimentResult *find(const std::string &key) const;

    /** All cells passed their post-run verification. */
    bool allVerified(std::string *failures) const;
};

/** Runs one cell on machines of its own (called from any worker). */
using CellRunner = std::function<ExperimentResult(const ExperimentCase &)>;

/**
 * Run every case on @p num_workers work-stealing threads (0 = one
 * per hardware thread, capped by the case count) through @p run, or
 * runExperiment() when @p run is empty. Each case owns a private
 * simulated machine; a case that throws is recorded as an unverified
 * result carrying the diagnostic instead of tearing down the sweep.
 */
MatrixResult runCases(std::vector<ExperimentCase> cases,
                      std::size_t num_workers,
                      const CellRunner &run = {});

/** expandMatrix() + runCases(). */
MatrixResult runMatrix(const MatrixSpec &spec, std::size_t num_workers);

/**
 * Serialise one sweep as a deterministic JSON report:
 * {"schema", "report", "cells": {key: {metrics...[, "stats": {...}]}}}.
 * Cell keys are sorted; every metric is an integer; nothing
 * host- or time-dependent is emitted.
 */
void reportToJson(JsonWriter &w, const std::string &report_name,
                  const MatrixResult &result, bool include_stats);

/** reportToJson() into a fresh string. */
std::string reportJson(const std::string &report_name,
                       const MatrixResult &result, bool include_stats);

/** One metric that moved beyond the threshold vs the baseline. */
struct BaselineRegression
{
    std::string cell;
    std::string metric;
    double before = 0;
    double after = 0;

    /** Relative change, positive = got worse (more cycles/bytes). */
    double
    change() const
    {
        return before ? after / before - 1.0 : 0.0;
    }
};

/** Outcome of diffing a sweep against a saved baseline report. */
struct BaselineDiff
{
    std::vector<BaselineRegression> regressions;
    std::size_t cellsCompared = 0;
    std::size_t cellsMissingInBaseline = 0;

    bool ok() const { return regressions.empty(); }
};

/**
 * Compare the sweep's cycles and PM-write-bytes metrics against
 * @p baseline (a parsed report produced by reportToJson(), or a
 * multi-report document {"reports": [...]} from which the matching
 * "report" name is selected). A metric regresses when it exceeds the
 * baseline by more than @p threshold (relative, e.g. 0.05 = 5%).
 * Cells absent from the baseline are counted, not flagged.
 */
BaselineDiff diffAgainstBaseline(const JsonValue &baseline,
                                 const std::string &report_name,
                                 const MatrixResult &result,
                                 double threshold);

} // namespace slpmt

#endif // SLPMT_SIM_ORCHESTRATOR_HH
