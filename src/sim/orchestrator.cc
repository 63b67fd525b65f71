#include "sim/orchestrator.hh"

#include <chrono>
#include <exception>
#include <map>
#include <thread>

#include "validate/work_queue.hh"

namespace slpmt
{

std::string
caseKey(const std::string &workload, SchemeKind scheme,
        const std::string &suffix)
{
    return workload + "/" + schemeName(scheme) +
           (suffix.empty() ? "" : "/" + suffix);
}

std::vector<ExperimentCase>
expandMatrix(const MatrixSpec &spec)
{
    panicIfNot(!spec.workloads.empty() && !spec.schemes.empty(),
               "matrix needs at least one workload and one scheme");
    panicIfNot(!spec.valueSizes.empty() &&
                   !spec.pmWriteLatenciesNs.empty(),
               "matrix axis with no values");

    std::vector<ExperimentCase> cases;
    for (const auto &workload : spec.workloads) {
        for (std::size_t vs : spec.valueSizes) {
            for (std::uint64_t lat : spec.pmWriteLatenciesNs) {
                for (SchemeKind scheme : spec.schemes) {
                    ExperimentCase c;
                    c.workload = workload;
                    c.cfg.scheme = scheme;
                    c.cfg.ycsb.numOps = spec.numOps;
                    c.cfg.ycsb.valueBytes = vs;
                    c.cfg.pmWriteLatencyNs = lat;

                    // Swept axes show up in the key; point axes keep
                    // the short workload/Scheme form.
                    std::string suffix;
                    if (spec.valueSizes.size() > 1)
                        suffix = std::to_string(vs) + "B";
                    if (spec.pmWriteLatenciesNs.size() > 1) {
                        if (!suffix.empty())
                            suffix += "/";
                        suffix += std::to_string(lat) + "ns";
                    }
                    c.key = caseKey(workload, scheme, suffix);
                    cases.push_back(std::move(c));
                }
            }
        }
    }
    return cases;
}

const ExperimentResult &
MatrixResult::get(const std::string &key) const
{
    const ExperimentResult *res = find(key);
    if (!res)
        fatal("missing experiment result: " + key);
    return *res;
}

const ExperimentResult *
MatrixResult::find(const std::string &key) const
{
    for (std::size_t i = 0; i < cases.size(); ++i) {
        if (cases[i].key == key)
            return &results[i];
    }
    return nullptr;
}

bool
MatrixResult::allVerified(std::string *failures) const
{
    bool ok = true;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        if (!results[i].verified) {
            ok = false;
            if (failures)
                *failures +=
                    cases[i].key + ": " + results[i].failure + "\n";
        }
    }
    return ok;
}

MatrixResult
runCases(std::vector<ExperimentCase> cases, std::size_t num_workers,
         const CellRunner &run)
{
    MatrixResult out;
    out.results.resize(cases.size());
    out.wallMicros.resize(cases.size(), 0);
    out.cases = std::move(cases);

    if (num_workers == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        num_workers = hw ? hw : 1;
    }

    // Each item writes only its own caller-owned slot, so the merged
    // result vector depends on the enumeration order alone, never on
    // the schedule.
    parallelFor(num_workers, out.cases.size(),
                [&](std::size_t, std::size_t i) {
        const ExperimentCase &c = out.cases[i];
        const auto start = std::chrono::steady_clock::now();
        try {
            out.results[i] =
                run ? run(c) : runExperiment(c.workload, c.cfg);
        } catch (const std::exception &e) {
            ExperimentResult res;
            res.workload = c.workload;
            res.scheme = c.cfg.scheme;
            res.verified = false;
            res.failure = std::string("exception: ") + e.what();
            out.results[i] = res;
        }
        out.wallMicros[i] = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
    });
    return out;
}

MatrixResult
runMatrix(const MatrixSpec &spec, std::size_t num_workers)
{
    return runCases(expandMatrix(spec), num_workers);
}

void
reportToJson(JsonWriter &w, const std::string &report_name,
             const MatrixResult &result, bool include_stats)
{
    // Sort the cells so the report is insensitive to enumeration
    // details; duplicate keys would silently collapse, so reject them.
    std::map<std::string, const ExperimentResult *> cells;
    for (std::size_t i = 0; i < result.cases.size(); ++i) {
        const bool fresh =
            cells.emplace(result.cases[i].key, &result.results[i])
                .second;
        panicIfNot(fresh, "duplicate cell key: " + result.cases[i].key);
    }

    w.beginObject();
    w.key("schema").value("slpmt-bench-1");
    w.key("report").value(report_name);
    w.key("cells").beginObject();
    for (const auto &[key, res] : cells) {
        w.key(key).beginObject();
        w.key("cycles").value(res->cycles);
        w.key("pmWriteBytes").value(res->pmWriteBytes);
        w.key("pmDataBytes").value(res->pmDataBytes);
        w.key("pmLogBytes").value(res->pmLogBytes);
        w.key("commits").value(res->commits);
        w.key("logRecords").value(res->logRecords);
        w.key("verified").value(res->verified);
        if (!res->failure.empty())
            w.key("failure").value(res->failure);
        if (include_stats) {
            w.key("stats").beginObject();
            for (const auto &[name, value] : res->stats)
                w.key(name).value(value);
            w.endObject();
        }
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

std::string
reportJson(const std::string &report_name, const MatrixResult &result,
           bool include_stats)
{
    JsonWriter w;
    reportToJson(w, report_name, result, include_stats);
    return w.str();
}

namespace
{

/** Locate the "cells" object for @p report_name in a baseline doc. */
const JsonValue *
baselineCells(const JsonValue &baseline, const std::string &report_name)
{
    auto cellsOf = [&](const JsonValue &report) -> const JsonValue * {
        const JsonValue *name = report.find("report");
        if (!name || !name->isString() || name->string != report_name)
            return nullptr;
        const JsonValue *cells = report.find("cells");
        return cells && cells->isObject() ? cells : nullptr;
    };

    if (const JsonValue *cells = cellsOf(baseline))
        return cells;
    if (const JsonValue *reports = baseline.find("reports")) {
        if (reports->isArray()) {
            for (const JsonValue &report : reports->array) {
                if (const JsonValue *cells = cellsOf(report))
                    return cells;
            }
        }
    }
    return nullptr;
}

} // namespace

BaselineDiff
diffAgainstBaseline(const JsonValue &baseline,
                    const std::string &report_name,
                    const MatrixResult &result, double threshold)
{
    BaselineDiff diff;
    const JsonValue *cells = baselineCells(baseline, report_name);
    if (!cells) {
        diff.cellsMissingInBaseline = result.cases.size();
        return diff;
    }

    for (std::size_t i = 0; i < result.cases.size(); ++i) {
        const std::string &key = result.cases[i].key;
        const JsonValue *cell = cells->find(key);
        if (!cell || !cell->isObject()) {
            diff.cellsMissingInBaseline++;
            continue;
        }
        diff.cellsCompared++;

        const struct
        {
            const char *metric;
            double after;
        } metrics[] = {
            {"cycles", static_cast<double>(result.results[i].cycles)},
            {"pmWriteBytes",
             static_cast<double>(result.results[i].pmWriteBytes)},
        };
        for (const auto &m : metrics) {
            const JsonValue *before = cell->find(m.metric);
            if (!before || !before->isNumber() || before->number <= 0)
                continue;
            if (m.after > before->number * (1.0 + threshold)) {
                BaselineRegression reg;
                reg.cell = key;
                reg.metric = m.metric;
                reg.before = before->number;
                reg.after = m.after;
                diff.regressions.push_back(std::move(reg));
            }
        }
    }
    return diff;
}

} // namespace slpmt
