#include "sim/figures.hh"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "compiler/compiler_policy.hh"
#include "core/pm_system.hh"
#include "sim/report.hh"
#include "workloads/factory.hh"
#include "workloads/loadgen.hh"

namespace slpmt
{
namespace
{

// -------------------------------------------------------------------
// Figure 8: kernel speedups and traffic reduction over FG
// -------------------------------------------------------------------

const std::vector<SchemeKind> fig8Schemes = {
    SchemeKind::FG,    SchemeKind::FG_LG, SchemeKind::FG_LZ,
    SchemeKind::SLPMT, SchemeKind::ATOM,  SchemeKind::EDE,
};

std::vector<ExperimentCase>
fig8Cases()
{
    MatrixSpec spec;
    spec.workloads = kernelWorkloads();
    spec.schemes = fig8Schemes;
    return expandMatrix(spec);
}

void
fig8Print(const MatrixResult &res)
{
    TableReport speedup("Figure 8 (left): speedup over FG baseline");
    TableReport traffic(
        "Figure 8 (right): PM write-traffic reduction over FG baseline");
    std::vector<std::string> cols = {"benchmark"};
    for (SchemeKind s : fig8Schemes)
        cols.push_back(schemeName(s));
    speedup.header(cols);
    traffic.header(cols);

    std::map<SchemeKind, std::vector<double>> all_speedups;
    std::map<SchemeKind, std::vector<double>> all_traffic;

    for (const auto &workload : kernelWorkloads()) {
        const auto &base = res.get(caseKey(workload, SchemeKind::FG));
        std::vector<std::string> srow = {workload};
        std::vector<std::string> trow = {workload};
        for (SchemeKind s : fig8Schemes) {
            const auto &cell = res.get(caseKey(workload, s));
            const double sp = cell.cycles
                                  ? static_cast<double>(base.cycles) /
                                        static_cast<double>(cell.cycles)
                                  : 0;
            const double tr = cell.trafficReductionOver(base);
            srow.push_back(TableReport::ratio(sp));
            trow.push_back(TableReport::percent(tr));
            all_speedups[s].push_back(sp);
            all_traffic[s].push_back(tr);
        }
        speedup.row(srow);
        traffic.row(trow);
    }

    std::vector<std::string> srow = {"geomean"};
    std::vector<std::string> trow = {"mean"};
    for (SchemeKind s : fig8Schemes) {
        srow.push_back(TableReport::ratio(geomean(all_speedups[s])));
        double sum = 0;
        for (double v : all_traffic[s])
            sum += v;
        trow.push_back(TableReport::percent(
            sum / static_cast<double>(all_traffic[s].size())));
    }
    speedup.row(srow);
    traffic.row(trow);
    speedup.print();
    traffic.print();

    // Headline cross-scheme ratios (Section VI-D).
    TableReport headline("Section VI-D headline: SLPMT vs prior designs");
    headline.header({"comparison", "geomean speedup"});
    for (SchemeKind other :
         {SchemeKind::FG, SchemeKind::ATOM, SchemeKind::EDE}) {
        std::vector<double> ratios;
        for (const auto &workload : kernelWorkloads()) {
            const auto &slpmt =
                res.get(caseKey(workload, SchemeKind::SLPMT));
            const auto &o = res.get(caseKey(workload, other));
            ratios.push_back(static_cast<double>(o.cycles) /
                             static_cast<double>(slpmt.cycles));
        }
        headline.row({"SLPMT vs " + schemeName(other),
                      TableReport::ratio(geomean(ratios))});
    }
    headline.print();
}

// -------------------------------------------------------------------
// Figure 9: cache-line-granularity SLPMT vs featureless baseline
// -------------------------------------------------------------------

std::vector<ExperimentCase>
fig9Cases()
{
    MatrixSpec spec;
    spec.workloads = kernelWorkloads();
    spec.schemes = {SchemeKind::ATOM, SchemeKind::SLPMT_CL};
    return expandMatrix(spec);
}

void
fig9Print(const MatrixResult &res)
{
    TableReport table(
        "Figure 9: cache-line-granularity SLPMT vs featureless "
        "line-granularity baseline");
    table.header({"benchmark", "SLPMT-CL speedup",
                  "extra traffic without features"});
    std::vector<double> speedups;
    std::vector<double> extra;
    for (const auto &workload : kernelWorkloads()) {
        const auto &base = res.get(caseKey(workload, SchemeKind::ATOM));
        const auto &cl =
            res.get(caseKey(workload, SchemeKind::SLPMT_CL));
        const double sp = cl.speedupOver(base);
        const double ex =
            cl.pmWriteBytes
                ? static_cast<double>(base.pmWriteBytes) /
                          static_cast<double>(cl.pmWriteBytes) -
                      1.0
                : 0;
        speedups.push_back(sp);
        extra.push_back(ex);
        table.row({workload, TableReport::ratio(sp),
                   TableReport::percent(ex)});
    }
    double mean_extra = 0;
    for (double e : extra)
        mean_extra += e;
    mean_extra /= static_cast<double>(extra.size());
    table.row({"geomean/mean", TableReport::ratio(geomean(speedups)),
               TableReport::percent(mean_extra)});
    table.print();
}

// -------------------------------------------------------------------
// Figures 10/11: value-size sensitivity (speedup / traffic)
// -------------------------------------------------------------------

const std::vector<std::size_t> valueSizeSweep = {16, 32, 64, 128, 256};

std::vector<ExperimentCase>
valueSizeCases()
{
    MatrixSpec spec;
    spec.workloads = kernelWorkloads();
    spec.schemes = {SchemeKind::FG, SchemeKind::SLPMT};
    spec.valueSizes = valueSizeSweep;
    return expandMatrix(spec);
}

void
fig10Print(const MatrixResult &res)
{
    TableReport table("Figure 10: SLPMT speedup over FG vs value size");
    std::vector<std::string> cols = {"benchmark"};
    for (std::size_t vs : valueSizeSweep)
        cols.push_back(std::to_string(vs) + "B");
    table.header(cols);

    std::map<std::size_t, std::vector<double>> by_size;
    for (const auto &workload : kernelWorkloads()) {
        std::vector<std::string> row = {workload};
        for (std::size_t vs : valueSizeSweep) {
            const auto suffix = std::to_string(vs) + "B";
            const auto &base =
                res.get(caseKey(workload, SchemeKind::FG, suffix));
            const auto &slpmt =
                res.get(caseKey(workload, SchemeKind::SLPMT, suffix));
            const double sp = slpmt.speedupOver(base);
            by_size[vs].push_back(sp);
            row.push_back(TableReport::ratio(sp));
        }
        table.row(row);
    }
    std::vector<std::string> row = {"geomean"};
    for (std::size_t vs : valueSizeSweep)
        row.push_back(TableReport::ratio(geomean(by_size[vs])));
    table.row(row);
    table.print();
}

void
fig11Print(const MatrixResult &res)
{
    TableReport rel(
        "Figure 11: write-traffic reduction (relative) vs value size");
    TableReport abs(
        "Figure 11: write-traffic reduction (KB saved) vs value size");
    std::vector<std::string> cols = {"benchmark"};
    for (std::size_t vs : valueSizeSweep)
        cols.push_back(std::to_string(vs) + "B");
    rel.header(cols);
    abs.header(cols);

    for (const auto &workload : kernelWorkloads()) {
        std::vector<std::string> rrow = {workload};
        std::vector<std::string> arow = {workload};
        for (std::size_t vs : valueSizeSweep) {
            const auto suffix = std::to_string(vs) + "B";
            const auto &base =
                res.get(caseKey(workload, SchemeKind::FG, suffix));
            const auto &slpmt =
                res.get(caseKey(workload, SchemeKind::SLPMT, suffix));
            rrow.push_back(
                TableReport::percent(slpmt.trafficReductionOver(base)));
            const double saved_kb =
                (static_cast<double>(base.pmWriteBytes) -
                 static_cast<double>(slpmt.pmWriteBytes)) /
                1024.0;
            arow.push_back(TableReport::num(saved_kb));
        }
        rel.row(rrow);
        abs.row(arow);
    }
    rel.print();
    abs.print();
}

// -------------------------------------------------------------------
// Figure 12: PM write-latency sensitivity
// -------------------------------------------------------------------

const std::vector<std::uint64_t> latencySweepNs = {500, 1100, 1700,
                                                   2300};

std::vector<ExperimentCase>
fig12Cases()
{
    MatrixSpec spec;
    spec.workloads = kernelWorkloads();
    spec.schemes = {SchemeKind::FG, SchemeKind::SLPMT};
    spec.pmWriteLatenciesNs = latencySweepNs;
    return expandMatrix(spec);
}

void
fig12Print(const MatrixResult &res)
{
    TableReport table(
        "Figure 12: SLPMT speedup over FG vs PM write latency");
    std::vector<std::string> cols = {"benchmark"};
    for (std::uint64_t lat : latencySweepNs)
        cols.push_back(std::to_string(lat) + "ns");
    table.header(cols);

    std::map<std::uint64_t, std::vector<double>> by_lat;
    for (const auto &workload : kernelWorkloads()) {
        std::vector<std::string> row = {workload};
        for (std::uint64_t lat : latencySweepNs) {
            const auto suffix = std::to_string(lat) + "ns";
            const auto &base =
                res.get(caseKey(workload, SchemeKind::FG, suffix));
            const auto &slpmt =
                res.get(caseKey(workload, SchemeKind::SLPMT, suffix));
            const double sp = slpmt.speedupOver(base);
            by_lat[lat].push_back(sp);
            row.push_back(TableReport::ratio(sp));
        }
        table.row(row);
    }
    std::vector<std::string> row = {"geomean"};
    for (std::uint64_t lat : latencySweepNs)
        row.push_back(TableReport::ratio(geomean(by_lat[lat])));
    table.row(row);
    table.print();
}

// -------------------------------------------------------------------
// Figure 13: compiler pass vs manual annotations
// -------------------------------------------------------------------

std::vector<std::string>
fig13Workloads()
{
    auto names = kernelWorkloads();
    names.push_back("kv-btree");
    return names;
}

/** clang -O2 baseline build time per benchmark, seconds (modelled). */
double
baselineCompileSec(const std::string &workload)
{
    if (workload == "kv-btree")
        return 0.65;  // the paper's largest relative overhead case
    if (workload == "hashtable")
        return 1.9;
    if (workload == "rbtree")
        return 2.3;
    if (workload == "heap")
        return 1.4;
    return 1.8;  // avl
}

std::vector<ExperimentCase>
fig13Cases()
{
    // Not a full cross product: the FG baseline runs once (manual
    // annotations are inert under FG) and SLPMT runs per mode.
    struct Mode
    {
        AnnotationMode mode;
        SchemeKind scheme;
        const char *tag;
    };
    const Mode modes[] = {
        {AnnotationMode::Manual, SchemeKind::FG, "base"},
        {AnnotationMode::Manual, SchemeKind::SLPMT, "manual"},
        {AnnotationMode::Compiler, SchemeKind::SLPMT, "compiler"},
    };
    std::vector<ExperimentCase> cases;
    for (const auto &workload : fig13Workloads()) {
        for (const Mode &m : modes) {
            ExperimentCase c;
            c.workload = workload;
            c.cfg.scheme = m.scheme;
            c.cfg.annotations = m.mode;
            c.key = caseKey(workload, m.scheme, m.tag);
            cases.push_back(std::move(c));
        }
    }
    return cases;
}

void
fig13Print(const MatrixResult &res)
{
    TableReport speedup(
        "Figure 13 (left): speedup over FG, manual vs compiler "
        "annotations");
    speedup.header({"benchmark", "manual", "compiler"});
    std::vector<double> manual_all;
    std::vector<double> compiler_all;
    for (const auto &workload : fig13Workloads()) {
        const auto &base =
            res.get(caseKey(workload, SchemeKind::FG, "base"));
        const auto &manual =
            res.get(caseKey(workload, SchemeKind::SLPMT, "manual"));
        const auto &compiler =
            res.get(caseKey(workload, SchemeKind::SLPMT, "compiler"));
        const double sm = manual.speedupOver(base);
        const double sc = compiler.speedupOver(base);
        manual_all.push_back(sm);
        compiler_all.push_back(sc);
        speedup.row({workload, TableReport::ratio(sm),
                     TableReport::ratio(sc)});
    }
    speedup.row({"geomean", TableReport::ratio(geomean(manual_all)),
                 TableReport::ratio(geomean(compiler_all))});
    speedup.print();

    // Annotation coverage (the 16-of-26 observation).
    TableReport coverage("Figure 13: compiler annotation coverage");
    coverage.header({"benchmark", "manual sites", "compiler found",
                     "missed (deep semantics)"});
    std::size_t total_manual = 0;
    std::size_t total_found = 0;
    for (const auto &workload : kernelWorkloads()) {
        PmSystem sys{SystemConfig{}};
        auto w = makeWorkload(workload);
        w->setup(sys);
        const AnnotationReport report = compareAnnotations(sys.sites());
        total_manual += report.manualAnnotated;
        total_found += report.compilerFound;
        coverage.row({workload,
                      TableReport::integer(report.manualAnnotated),
                      TableReport::integer(report.compilerFound),
                      TableReport::integer(report.missed)});
    }
    coverage.row({"total (paper: 16 of 26)",
                  TableReport::integer(total_manual),
                  TableReport::integer(total_found),
                  TableReport::integer(total_manual - total_found)});
    coverage.print();

    // Compile time (Figure 13 right).
    TableReport compile(
        "Figure 13 (right): compile time with the storeT pass");
    compile.header({"benchmark", "baseline (s)", "with pass (s)",
                    "overhead"});
    for (const auto &workload : fig13Workloads()) {
        PmSystem sys{SystemConfig{}};
        auto w = makeWorkload(workload);
        w->setup(sys);
        const CompileTimeEstimate est = estimateCompileTime(
            sys.sites(), baselineCompileSec(workload));
        compile.row({workload, TableReport::num(est.baselineSec),
                     TableReport::num(est.withAnalysisSec),
                     TableReport::percent(est.overheadFraction())});
    }
    compile.print();
}

// -------------------------------------------------------------------
// Figure 14: PMKV backends at 256B and 16B values
// -------------------------------------------------------------------

const std::vector<SchemeKind> fig14Schemes = {
    SchemeKind::FG, SchemeKind::SLPMT, SchemeKind::ATOM,
    SchemeKind::EDE};

std::vector<ExperimentCase>
fig14Cases()
{
    MatrixSpec spec;
    spec.workloads = kvWorkloads();
    spec.schemes = fig14Schemes;
    spec.valueSizes = {256, 16};
    return expandMatrix(spec);
}

void
fig14Print(const MatrixResult &res)
{
    for (std::size_t vs : {std::size_t(256), std::size_t(16)}) {
        const auto suffix = std::to_string(vs) + "B";
        TableReport table("Figure 14 (" + suffix +
                          " values): speedup over FG baseline");
        std::vector<std::string> cols = {"benchmark"};
        for (SchemeKind s : fig14Schemes)
            cols.push_back(schemeName(s));
        cols.push_back("traffic cut (SLPMT)");
        table.header(cols);

        std::map<SchemeKind, std::vector<double>> all;
        for (const auto &workload : kvWorkloads()) {
            const auto &base =
                res.get(caseKey(workload, SchemeKind::FG, suffix));
            std::vector<std::string> row = {workload};
            for (SchemeKind s : fig14Schemes) {
                const auto &cell = res.get(caseKey(workload, s, suffix));
                const double sp = cell.speedupOver(base);
                all[s].push_back(sp);
                row.push_back(TableReport::ratio(sp));
            }
            const auto &slpmt =
                res.get(caseKey(workload, SchemeKind::SLPMT, suffix));
            row.push_back(
                TableReport::percent(slpmt.trafficReductionOver(base)));
            table.row(row);
        }
        std::vector<std::string> row = {"geomean"};
        for (SchemeKind s : fig14Schemes)
            row.push_back(TableReport::ratio(geomean(all[s])));
        table.row(row);
        table.print();

        TableReport vs_prior("Figure 14 (" + suffix +
                             "): SLPMT vs prior hardware designs");
        vs_prior.header({"benchmark", "vs ATOM", "vs EDE"});
        std::vector<double> vs_atom;
        std::vector<double> vs_ede;
        for (const auto &workload : kvWorkloads()) {
            const auto &slpmt =
                res.get(caseKey(workload, SchemeKind::SLPMT, suffix));
            const auto &atom =
                res.get(caseKey(workload, SchemeKind::ATOM, suffix));
            const auto &ede =
                res.get(caseKey(workload, SchemeKind::EDE, suffix));
            const double a = slpmt.speedupOver(atom);
            const double e = slpmt.speedupOver(ede);
            vs_atom.push_back(a);
            vs_ede.push_back(e);
            vs_prior.row({workload, TableReport::ratio(a),
                          TableReport::ratio(e)});
        }
        vs_prior.row({"geomean", TableReport::ratio(geomean(vs_atom)),
                      TableReport::ratio(geomean(vs_ede))});
        vs_prior.print();
    }
}

// -------------------------------------------------------------------
// logfree: software log-freedom vs hardware selective logging
// -------------------------------------------------------------------

/** The log-free-by-design indexes plus a logging-reliant reference. */
std::vector<std::string>
logfreeWorkloads()
{
    auto names = indexWorkloads();  // skiplist, blinktree
    names.push_back("rbtree");
    return names;
}

std::vector<ExperimentCase>
logfreeCases()
{
    // Three regimes per structure: the FG logging baseline (manual
    // annotations inert), SLPMT hardware with the annotations ignored
    // (every store logged), and SLPMT with the manual annotations —
    // where the log-free structures commit with (near) zero records.
    struct Mode
    {
        AnnotationMode mode;
        SchemeKind scheme;
        const char *tag;
    };
    const Mode modes[] = {
        {AnnotationMode::Manual, SchemeKind::FG, "base"},
        {AnnotationMode::None, SchemeKind::SLPMT, "plain"},
        {AnnotationMode::Manual, SchemeKind::SLPMT, "slpmt"},
    };
    std::vector<ExperimentCase> cases;
    for (const auto &workload : logfreeWorkloads()) {
        for (const Mode &m : modes) {
            ExperimentCase c;
            c.workload = workload;
            c.cfg.scheme = m.scheme;
            c.cfg.annotations = m.mode;
            c.cfg.ycsb.numOps = 600;
            c.cfg.ycsb.valueBytes = 64;
            c.key = caseKey(workload, m.scheme, m.tag);
            cases.push_back(std::move(c));
        }
    }
    return cases;
}

void
logfreePrint(const MatrixResult &res)
{
    auto stat = [](const ExperimentResult &cell, const char *name) {
        auto it = cell.stats.find(name);
        return it == cell.stats.end() ? std::uint64_t{0} : it->second;
    };

    TableReport speedup(
        "logfree: speedup over the FG logging baseline (600 inserts, "
        "64B values)");
    speedup.header({"structure", "SLPMT unannotated", "SLPMT annotated",
                    "traffic cut (annotated)"});
    std::vector<double> plain_all;
    std::vector<double> slpmt_all;
    for (const auto &workload : logfreeWorkloads()) {
        const auto &base =
            res.get(caseKey(workload, SchemeKind::FG, "base"));
        const auto &plain =
            res.get(caseKey(workload, SchemeKind::SLPMT, "plain"));
        const auto &slpmt =
            res.get(caseKey(workload, SchemeKind::SLPMT, "slpmt"));
        const double sp = plain.speedupOver(base);
        const double ss = slpmt.speedupOver(base);
        plain_all.push_back(sp);
        slpmt_all.push_back(ss);
        speedup.row({workload, TableReport::ratio(sp),
                     TableReport::ratio(ss),
                     TableReport::percent(
                         slpmt.trafficReductionOver(base))});
    }
    speedup.row({"geomean", TableReport::ratio(geomean(plain_all)),
                 TableReport::ratio(geomean(slpmt_all)), ""});
    speedup.print();

    // The structural point of the figure: under the annotations the
    // log-free indexes *eliminate* records (publication stores need
    // none) while the logging-reliant reference merely shrinks or
    // defers its set.
    TableReport records(
        "logfree: undo/redo log records and elision per structure");
    records.header({"structure", "FG records", "SLPMT records",
                    "eliminated", "words elided", "lazy drains"});
    for (const auto &workload : logfreeWorkloads()) {
        const auto &base =
            res.get(caseKey(workload, SchemeKind::FG, "base"));
        const auto &slpmt =
            res.get(caseKey(workload, SchemeKind::SLPMT, "slpmt"));
        const double cut =
            base.logRecords
                ? 1.0 - static_cast<double>(slpmt.logRecords) /
                            static_cast<double>(base.logRecords)
                : 0.0;
        const std::uint64_t drains =
            stat(slpmt, "txn.lazyDrain.eviction") +
            stat(slpmt, "txn.lazyDrain.explicit") +
            stat(slpmt, "txn.lazyDrain.sigHit") +
            stat(slpmt, "txn.lazyDrain.lineOwner") +
            stat(slpmt, "txn.lazyDrain.idWrap");
        records.row({workload, TableReport::integer(base.logRecords),
                     TableReport::integer(slpmt.logRecords),
                     TableReport::percent(cut),
                     TableReport::integer(
                         stat(slpmt, "txn.logFreeWordsElided")),
                     TableReport::integer(drains)});
    }
    records.print();
}

// -------------------------------------------------------------------
// Sample: a small pinned sweep for quick CI / sanitizer runs
// -------------------------------------------------------------------

const std::vector<SchemeKind> sampleSchemes = {
    SchemeKind::FG, SchemeKind::SLPMT, SchemeKind::ATOM,
    SchemeKind::EDE};

std::vector<ExperimentCase>
sampleCases()
{
    MatrixSpec spec;
    spec.workloads = {"hashtable", "avl"};
    spec.schemes = sampleSchemes;
    spec.valueSizes = {64};
    spec.numOps = 200;
    return expandMatrix(spec);
}

void
samplePrint(const MatrixResult &res)
{
    TableReport table(
        "Sampled sweep (200 ops, 64B values): speedup over FG");
    std::vector<std::string> cols = {"benchmark"};
    for (SchemeKind s : sampleSchemes)
        cols.push_back(schemeName(s));
    table.header(cols);
    for (const auto &workload :
         {std::string("hashtable"), std::string("avl")}) {
        const auto &base = res.get(caseKey(workload, SchemeKind::FG));
        std::vector<std::string> row = {workload};
        for (SchemeKind s : sampleSchemes)
            row.push_back(TableReport::ratio(
                res.get(caseKey(workload, s)).speedupOver(base)));
        table.row(row);
    }
    table.print();
}

// -------------------------------------------------------------------
// Multi-core scalability: YCSB makespan and coherence activity
// -------------------------------------------------------------------

const std::vector<SchemeKind> mcscaleSchemes = {SchemeKind::FG,
                                                SchemeKind::SLPMT};
const std::vector<std::size_t> mcscaleCores = {1, 2, 4, 8};

std::vector<ExperimentCase>
mcscaleCases()
{
    // Every cell (including 1 core) runs the multicore driver so the
    // scaling baseline shares the scheduler, the shared-key mix and
    // the per-core op split with the scaled cells.
    std::vector<ExperimentCase> cases;
    for (SchemeKind s : mcscaleSchemes) {
        for (std::size_t cores : mcscaleCores) {
            ExperimentCase c;
            c.workload = "hashtable";
            c.key = caseKey(c.workload, s,
                            "c" + std::to_string(cores));
            c.cfg.scheme = s;
            c.cfg.numCores = cores;
            c.cfg.mcDriver = true;
            c.cfg.ycsb.numOps = 800;
            c.cfg.ycsb.valueBytes = 64;
            cases.push_back(c);
        }
    }
    return cases;
}

void
mcscalePrint(const MatrixResult &res)
{
    TableReport speed(
        "Multi-core scalability: YCSB-upsert makespan, hashtable, "
        "800 ops split across cores, 25% shared keys");
    std::vector<std::string> cols = {"scheme"};
    for (std::size_t cores : mcscaleCores)
        cols.push_back(std::to_string(cores) + (cores == 1 ? " core"
                                                           : " cores"));
    cols.push_back("speedup @8");
    speed.header(cols);
    for (SchemeKind s : mcscaleSchemes) {
        const auto &c1 = res.get(caseKey("hashtable", s, "c1"));
        std::vector<std::string> row = {schemeName(s)};
        for (std::size_t cores : mcscaleCores) {
            const auto &cell = res.get(
                caseKey("hashtable", s, "c" + std::to_string(cores)));
            row.push_back(TableReport::integer(cell.cycles));
        }
        const auto &c8 = res.get(caseKey("hashtable", s, "c8"));
        row.push_back(TableReport::ratio(c8.speedupOver(c1)));
        speed.row(row);
    }
    speed.print();

    TableReport coh("Multi-core coherence activity (SLPMT cells)");
    coh.header({"cores", "probes", "remote hits", "invalidations",
                "downgrades", "conflict aborts", "remote drains",
                "ctx-switch drains"});
    for (std::size_t cores : mcscaleCores) {
        const auto &cell = res.get(caseKey(
            "hashtable", SchemeKind::SLPMT,
            "c" + std::to_string(cores)));
        auto get = [&](const char *name) -> std::uint64_t {
            auto it = cell.stats.find(name);
            return it == cell.stats.end() ? 0 : it->second;
        };
        coh.row({std::to_string(cores),
                 TableReport::integer(get("multicore.probes")),
                 TableReport::integer(get("multicore.remoteHits")),
                 TableReport::integer(get("multicore.invalidations")),
                 TableReport::integer(get("multicore.downgrades")),
                 TableReport::integer(get("multicore.conflictAborts")),
                 TableReport::integer(
                     get("multicore.remoteDrains.sigHit") +
                     get("multicore.remoteDrains.idObserved")),
                 TableReport::integer(
                     get("multicore.ctxSwitchDrains"))});
    }
    coh.print();
}

// -------------------------------------------------------------------
// Service: sharded KV service scaling under YCSB request mixes
// -------------------------------------------------------------------

const std::vector<SchemeKind> serviceSchemes = {SchemeKind::FG,
                                                SchemeKind::SLPMT};
const std::vector<std::size_t> serviceShards = {1, 2, 4};
const std::vector<unsigned> serviceMixes = {0, 1, 2};  // YCSB A, B, C

std::string
serviceSuffix(std::size_t shards, bool zipf, unsigned mix)
{
    return "s" + std::to_string(shards) + "/" +
           (zipf ? "zipf" : "uni") + "/" +
           ycsbMixName(static_cast<YcsbMix>(mix));
}

std::vector<ExperimentCase>
serviceCases()
{
    std::vector<ExperimentCase> cases;
    for (SchemeKind s : serviceSchemes) {
        for (std::size_t shards : serviceShards) {
            for (bool zipf : {false, true}) {
                for (unsigned mix : serviceMixes) {
                    ExperimentCase c;
                    c.workload = "hashtable";
                    c.key = caseKey(c.workload, s,
                                    serviceSuffix(shards, zipf, mix));
                    c.cfg.scheme = s;
                    c.cfg.ycsb.numOps = 2000;
                    c.cfg.ycsb.valueBytes = 256;
                    c.cfg.service.shards = shards;
                    c.cfg.service.mix = mix;
                    c.cfg.service.zipfian = zipf;
                    c.cfg.service.zipfThetaBp = 9900;
                    c.cfg.service.keySpace = std::size_t{1} << 20;
                    c.cfg.service.preloadRecords = 2000;
                    c.cfg.service.valueBytesMin = 64;
                    c.cfg.service.churnInterval = 500;
                    cases.push_back(std::move(c));
                }
            }
        }
    }
    return cases;
}

void
servicePrint(const MatrixResult &res)
{
    auto stat = [](const ExperimentResult &cell, const char *name) {
        auto it = cell.stats.find(name);
        return it == cell.stats.end() ? std::uint64_t{0} : it->second;
    };

    for (unsigned mix : serviceMixes) {
        TableReport table(
            "Service scaling (YCSB-" +
            std::string(ycsbMixName(static_cast<YcsbMix>(mix))) +
            ", 2000 requests over 1M keys): throughput "
            "(requests/Gcycle) and request latency (cycles)");
        table.header({"scheme", "shards", "uni thr", "uni p50",
                      "uni p99", "uni p999", "zipf thr", "zipf p50",
                      "zipf p99", "zipf p999"});
        for (SchemeKind s : serviceSchemes) {
            for (std::size_t shards : serviceShards) {
                const auto &uni = res.get(caseKey(
                    "hashtable", s, serviceSuffix(shards, false, mix)));
                const auto &zipf = res.get(caseKey(
                    "hashtable", s, serviceSuffix(shards, true, mix)));
                table.row(
                    {schemeName(s), std::to_string(shards),
                     TableReport::integer(
                         stat(uni, "service.opsPerGcycle")),
                     TableReport::integer(
                         stat(uni, "service.latency.p50")),
                     TableReport::integer(
                         stat(uni, "service.latency.p99")),
                     TableReport::integer(
                         stat(uni, "service.latency.p999")),
                     TableReport::integer(
                         stat(zipf, "service.opsPerGcycle")),
                     TableReport::integer(
                         stat(zipf, "service.latency.p50")),
                     TableReport::integer(
                         stat(zipf, "service.latency.p99")),
                     TableReport::integer(
                         stat(zipf, "service.latency.p999"))});
            }
        }
        table.print();
    }

    // Commit latency on the mutation-heavy mix: the tail the paper's
    // logging schemes move.
    TableReport commit(
        "Service commit latency (YCSB-A mutations, cycles)");
    commit.header({"scheme", "shards", "uni p50", "uni p99",
                   "uni p999", "zipf p50", "zipf p99", "zipf p999"});
    for (SchemeKind s : serviceSchemes) {
        for (std::size_t shards : serviceShards) {
            const auto &uni = res.get(
                caseKey("hashtable", s, serviceSuffix(shards, false, 0)));
            const auto &zipf = res.get(
                caseKey("hashtable", s, serviceSuffix(shards, true, 0)));
            commit.row(
                {schemeName(s), std::to_string(shards),
                 TableReport::integer(
                     stat(uni, "service.commitLatency.p50")),
                 TableReport::integer(
                     stat(uni, "service.commitLatency.p99")),
                 TableReport::integer(
                     stat(uni, "service.commitLatency.p999")),
                 TableReport::integer(
                     stat(zipf, "service.commitLatency.p50")),
                 TableReport::integer(
                     stat(zipf, "service.commitLatency.p99")),
                 TableReport::integer(
                     stat(zipf, "service.commitLatency.p999"))});
        }
    }
    commit.print();
}

} // namespace

const std::vector<FigureSpec> &
figureRegistry()
{
    static const std::vector<FigureSpec> registry = {
        {"fig8", "kernel speedups / traffic reduction over FG",
         fig8Cases, fig8Print},
        {"fig9", "cache-line-granularity SLPMT vs ATOM baseline",
         fig9Cases, fig9Print},
        {"fig10", "speedup sensitivity to the value size",
         valueSizeCases, fig10Print},
        {"fig11", "traffic-reduction sensitivity to the value size",
         valueSizeCases, fig11Print},
        {"fig12", "speedup sensitivity to the PM write latency",
         fig12Cases, fig12Print},
        {"fig13", "compiler pass vs manual annotations", fig13Cases,
         fig13Print},
        {"fig14", "PMKV backends at 256B and 16B values", fig14Cases,
         fig14Print},
        {"sample", "small pinned sweep for quick CI runs", sampleCases,
         samplePrint},
        {"mcscale", "multi-core YCSB scalability (1/2/4/8 cores)",
         mcscaleCases, mcscalePrint},
        {"service", "sharded KV service scaling (shards x skew x mix)",
         serviceCases, servicePrint},
        {"logfree", "log-free-by-design indexes vs selective logging",
         logfreeCases, logfreePrint},
    };
    return registry;
}

const FigureSpec *
findFigure(const std::string &name)
{
    for (const FigureSpec &fig : figureRegistry()) {
        if (fig.name == name)
            return &fig;
    }
    return nullptr;
}

int
parseCommonFlag(const std::string &arg, BenchOptions *opts,
                std::string *error)
{
    auto valueOf = [&arg](const std::string &prefix) {
        return arg.substr(prefix.size());
    };
    auto startsWith = [&arg](const std::string &prefix) {
        return arg.rfind(prefix, 0) == 0;
    };

    if (startsWith("--workers=")) {
        const std::string v = valueOf("--workers=");
        char *end = nullptr;
        const unsigned long n = std::strtoul(v.c_str(), &end, 10);
        if (v.empty() || *end) {
            *error = "bad --workers value: " + v;
            return -1;
        }
        opts->workers = static_cast<std::size_t>(n);
        return 1;
    }
    if (arg == "--json") {
        opts->emitJson = true;
        opts->jsonPath.clear();
        return 1;
    }
    if (startsWith("--json=")) {
        opts->emitJson = true;
        opts->jsonPath = valueOf("--json=");
        return 1;
    }
    if (arg == "--stats") {
        opts->includeStats = true;
        return 1;
    }
    if (startsWith("--baseline=")) {
        opts->baselinePath = valueOf("--baseline=");
        return 1;
    }
    if (startsWith("--threshold=")) {
        const std::string v = valueOf("--threshold=");
        char *end = nullptr;
        const double t = std::strtod(v.c_str(), &end);
        if (v.empty() || *end || t < 0) {
            *error = "bad --threshold value: " + v;
            return -1;
        }
        opts->threshold = t;
        return 1;
    }
    if (arg == "--no-tables") {
        opts->tables = false;
        return 1;
    }
    if (arg == "--profile") {
        opts->profile = true;
        return 1;
    }
    if (startsWith("--profile=")) {
        opts->profile = true;
        opts->profilePath = valueOf("--profile=");
        if (opts->profilePath.empty()) {
            *error = "empty --profile path";
            return -1;
        }
        return 1;
    }
    if (startsWith("--speed-baseline=")) {
        opts->profile = true;
        opts->speedBaselinePath = valueOf("--speed-baseline=");
        return 1;
    }
    if (startsWith("--speed-threshold=")) {
        const std::string v = valueOf("--speed-threshold=");
        char *end = nullptr;
        const double t = std::strtod(v.c_str(), &end);
        if (v.empty() || *end || t <= 0) {
            *error = "bad --speed-threshold value: " + v;
            return -1;
        }
        opts->speedThreshold = t;
        return 1;
    }
    return 0;
}

namespace
{

bool
readFile(const std::string &path, std::string *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    char buf[4096];
    std::size_t n;
    out->clear();
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out->append(buf, n);
    std::fclose(f);
    return true;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
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

/** Installed host-allocation tally (see setAllocationCounter). */
std::uint64_t (*allocation_counter)() = nullptr;

std::uint64_t
allocationsNow()
{
    return allocation_counter ? allocation_counter() : 0;
}

std::uint64_t
elapsedMicros(std::chrono::steady_clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

/** Wall-clock below which speed regressions are never flagged: tiny
 *  sweeps on a loaded machine jitter by more than any real factor. */
constexpr std::uint64_t speedNoiseFloorUs = 250'000;

/**
 * The self-profiling harness behind --profile (see runBench() docs).
 * Writes the "slpmt-speed-1" document and diffs wall-clock against a
 * recorded one when requested.
 */
int
runProfile(const BenchOptions &opts)
{
    JsonValue speed_baseline;
    const bool have_baseline = !opts.speedBaselinePath.empty();
    if (have_baseline) {
        std::string text;
        std::string error;
        if (!readFile(opts.speedBaselinePath, &text) ||
            !parseJson(text, &speed_baseline, &error)) {
            std::fprintf(stderr, "cannot load speed baseline %s%s%s\n",
                         opts.speedBaselinePath.c_str(),
                         error.empty() ? "" : ": ", error.c_str());
            return 2;
        }
    }

    JsonWriter w;
    w.beginObject();
    w.key("schema").value("slpmt-speed-1");
    w.key("figures").beginObject();

    bool all_verified = true;
    std::size_t regressions = 0;

    for (const std::string &name : opts.figures) {
        const FigureSpec *fig = findFigure(name);
        if (!fig) {
            std::fprintf(stderr, "unknown figure: %s\n", name.c_str());
            return 2;
        }

        const std::vector<ExperimentCase> cases = fig->cases();

        const std::uint64_t allocs_before = allocationsNow();
        const auto start = std::chrono::steady_clock::now();
        const MatrixResult result = runCases(cases, opts.workers);
        const std::uint64_t wall_us = elapsedMicros(start);
        const std::uint64_t figure_allocs =
            allocationsNow() - allocs_before;

        std::string failures;
        if (!result.allVerified(&failures)) {
            all_verified = false;
            std::fprintf(stderr, "VERIFICATION FAILURES (%s):\n%s",
                         name.c_str(), failures.c_str());
        }

        std::uint64_t sim_cycles = 0;
        for (const ExperimentResult &res : result.results)
            sim_cycles += res.cycles;

        w.key(name).beginObject();
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
            w.key("simCyclesPerSec")
                .value(sim_cycles * 1'000'000 / wall_us);
        if (allocation_counter)
            w.key("hostAllocs").value(figure_allocs);

        w.endObject();

        std::fprintf(stderr, "%s: %zu cells, %.1f ms\n", name.c_str(),
                     result.cases.size(),
                     static_cast<double>(wall_us) / 1000.0);

        if (have_baseline) {
            const JsonValue *recorded = nullptr;
            if (const JsonValue *figs = speed_baseline.find("figures"))
                if (const JsonValue *f = figs->find(name))
                    recorded = f->find("totalWallUs");
            if (!recorded || !recorded->isNumber()) {
                std::fprintf(stderr,
                             "speed baseline has no totalWallUs for "
                             "%s\n",
                             name.c_str());
            } else {
                const double before = recorded->number;
                const double after = static_cast<double>(wall_us);
                if (after > before * opts.speedThreshold &&
                    wall_us > speedNoiseFloorUs) {
                    std::fprintf(stderr,
                                 "SPEED REGRESSION %s: %.1f ms -> "
                                 "%.1f ms (%.2fx, bound %.2fx)\n",
                                 name.c_str(), before / 1000.0,
                                 after / 1000.0, after / before,
                                 opts.speedThreshold);
                    regressions++;
                }
            }
        }
    }

    w.endObject();
    w.key("peakRssKb").value(peakRssKb());
    if (allocation_counter) {
        // The PR 10 raw-speed section: peak RSS and the host
        // allocation total pin the arena work (log records, SoA
        // frames) as numbers a later regression can be diffed
        // against, not just a wall-clock that varies by host.
        w.key("speed").beginObject();
        w.key("peakRssKb").value(peakRssKb());
        w.key("hostAllocs").value(allocationsNow());
        w.endObject();
    }
    w.endObject();

    if (!writeFile(opts.profilePath, w.str() + "\n")) {
        std::fprintf(stderr, "cannot write %s\n",
                     opts.profilePath.c_str());
        return 2;
    }
    std::fprintf(stderr, "speed profile written to %s\n",
                 opts.profilePath.c_str());

    if (!all_verified)
        return 1;
    if (regressions > 0)
        return 3;
    return 0;
}

} // namespace

void
setAllocationCounter(std::uint64_t (*fn)())
{
    allocation_counter = fn;
}

int
runBench(const BenchOptions &opts)
{
    if (opts.profile)
        return runProfile(opts);

    // Load the baseline up front so a bad path fails before the sweep.
    JsonValue baseline;
    if (!opts.baselinePath.empty()) {
        std::string text;
        if (!readFile(opts.baselinePath, &text)) {
            std::fprintf(stderr, "cannot read baseline %s\n",
                         opts.baselinePath.c_str());
            return 2;
        }
        std::string error;
        if (!parseJson(text, &baseline, &error)) {
            std::fprintf(stderr, "bad baseline %s: %s\n",
                         opts.baselinePath.c_str(), error.c_str());
            return 2;
        }
    }

    const bool json_to_stdout = opts.emitJson && opts.jsonPath.empty();
    const bool print_tables = opts.tables && !json_to_stdout;

    std::vector<std::string> json_reports;
    bool all_verified = true;
    std::size_t total_regressions = 0;

    for (const std::string &name : opts.figures) {
        const FigureSpec *fig = findFigure(name);
        if (!fig) {
            std::fprintf(stderr, "unknown figure: %s\n", name.c_str());
            return 2;
        }

        const auto start = std::chrono::steady_clock::now();
        const MatrixResult result = runCases(fig->cases(), opts.workers);
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        // Timing goes to stderr only: the JSON report must stay
        // byte-identical across runs and worker counts.
        std::fprintf(stderr, "%s: %zu cells in %.1fs\n", name.c_str(),
                     result.cases.size(), secs);

        if (print_tables)
            fig->print(result);

        std::string failures;
        if (!result.allVerified(&failures)) {
            all_verified = false;
            std::fprintf(stderr, "VERIFICATION FAILURES (%s):\n%s",
                         name.c_str(), failures.c_str());
        }

        if (opts.emitJson)
            json_reports.push_back(
                reportJson(name, result, opts.includeStats));

        if (!opts.baselinePath.empty()) {
            const BaselineDiff diff = diffAgainstBaseline(
                baseline, name, result, opts.threshold);
            if (diff.cellsCompared == 0) {
                std::fprintf(stderr,
                             "baseline has no cells for %s "
                             "(%zu cells unmatched)\n",
                             name.c_str(),
                             diff.cellsMissingInBaseline);
            }
            for (const BaselineRegression &reg : diff.regressions) {
                std::fprintf(stderr,
                             "REGRESSION %s %s %s: %.0f -> %.0f "
                             "(%+.1f%%)\n",
                             name.c_str(), reg.cell.c_str(),
                             reg.metric.c_str(), reg.before, reg.after,
                             reg.change() * 100.0);
            }
            total_regressions += diff.regressions.size();
        }
    }

    if (opts.emitJson) {
        std::string doc;
        if (json_reports.size() == 1) {
            doc = json_reports.front();
        } else {
            doc = "{\"schema\":\"slpmt-bench-1\",\"reports\":[";
            for (std::size_t i = 0; i < json_reports.size(); ++i) {
                if (i)
                    doc += ',';
                doc += json_reports[i];
            }
            doc += "]}";
        }
        doc += '\n';
        if (json_to_stdout) {
            std::fputs(doc.c_str(), stdout);
        } else {
            std::FILE *f = std::fopen(opts.jsonPath.c_str(), "wb");
            if (!f) {
                std::fprintf(stderr, "cannot write %s\n",
                             opts.jsonPath.c_str());
                return 2;
            }
            std::fputs(doc.c_str(), f);
            std::fclose(f);
        }
    }

    if (!all_verified)
        return 1;
    if (total_regressions > 0)
        return 3;
    return 0;
}

} // namespace slpmt
