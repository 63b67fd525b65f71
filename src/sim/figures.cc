#include "sim/figures.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>

#include "compiler/compiler_policy.hh"
#include "core/pm_system.hh"
#include "core/tx.hh"
#include "sim/report.hh"
#include "workloads/factory.hh"
#include "workloads/loadgen.hh"

namespace slpmt
{
namespace
{

/** A cell's stats entry, 0 when absent. */
std::uint64_t
statOf(const ExperimentResult &cell, const std::string &name)
{
    auto it = cell.stats.find(name);
    return it == cell.stats.end() ? 0 : it->second;
}

// -------------------------------------------------------------------
// Table I: store/storeT semantics and per-instruction cost
// -------------------------------------------------------------------

/** One store form: the flags it carries and the persist and log bits
 *  the hardware must give its line. */
struct StoreForm
{
    const char *name;
    const char *key;
    StoreFlags flags;
    bool expectPersist;
    bool expectLog;
};

const StoreForm storeForms[] = {
    {"store", "store/SLPMT", {false, false}, true, true},
    {"storeT lazy=0 logfree=0", "storeT/SLPMT/lazy0-logfree0",
     {false, false}, true, true},
    {"storeT lazy=0 logfree=1", "storeT/SLPMT/lazy0-logfree1",
     {false, true}, true, false},
    {"storeT lazy=1 logfree=1", "storeT/SLPMT/lazy1-logfree1",
     {true, true}, false, false},
    {"storeT lazy=1 logfree=0", "storeT/SLPMT/lazy1-logfree0",
     {true, false}, false, true},
};

/** The measured window: table1Txns transactions of table1Stores
 *  stores each over a warm region. */
constexpr std::size_t table1Txns = 64;
constexpr std::size_t table1Stores = 64;

std::vector<ExperimentCase>
table1Cases()
{
    std::vector<ExperimentCase> cases;
    for (const StoreForm &form : storeForms) {
        ExperimentCase c;
        c.key = form.key;
        c.workload = c.key.substr(0, c.key.find('/'));
        cases.push_back(std::move(c));
    }
    return cases;
}

/**
 * Check the bits one store of the form sets on its line, then time
 * the form. The result's cycles cover the whole window; the stats
 * delta's txn.commitCycles.sum is the commit share of it.
 */
ExperimentResult
table1Run(const ExperimentCase &c)
{
    const StoreForm &form = *std::find_if(
        std::begin(storeForms), std::end(storeForms),
        [&](const StoreForm &f) { return c.key == f.key; });
    SystemConfig cfg;
    cfg.scheme = SchemeConfig::forKind(c.cfg.scheme);
    PmSystem sys(cfg);

    ExperimentResult res;
    res.workload = c.workload;
    res.scheme = c.cfg.scheme;

    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 1, form.flags);
    const CacheLine *line = sys.hierarchy().findPrivate(addr);
    res.verified = line && line->persistBit == form.expectPersist &&
                   (line->logBits != 0) == form.expectLog;
    if (!res.verified)
        res.failure = "persist/log bits differ from Table I";
    sys.txCommit();
    sys.engine().persistAllLazy();

    const Addr region = sys.heap().alloc(table1Stores * wordSize);
    for (std::size_t w = 0; w < table1Stores; ++w)
        sys.write<std::uint64_t>(region + w * wordSize, 0);
    sys.quiesce();

    const Cycles start = sys.cycles();
    const StatsSnapshot before = sys.stats().snapshot();
    for (std::size_t t = 0; t < table1Txns; ++t) {
        sys.txBegin();
        for (std::size_t w = 0; w < table1Stores; ++w)
            sys.writeT<std::uint64_t>(region + w * wordSize, t,
                                      form.flags);
        sys.txCommit();
    }
    res.cycles = sys.cycles() - start;
    fillTotals(res, StatsRegistry::delta(before, sys.stats().snapshot()));
    return res;
}

void
table1Print(const MatrixResult &res)
{
    TableReport table("Table I: store/storeT semantics and cost");
    table.header({"instruction", "persist bit", "log bit", "bits ok",
                  "cycles/store", "commit cycles/txn"});
    for (const StoreForm &form : storeForms) {
        const ExperimentResult &cell = res.get(form.key);
        const Cycles commit = statOf(cell, "txn.commitCycles.sum");
        table.row({form.name, form.expectPersist ? "1" : "0",
                   form.expectLog ? "1" : "0",
                   cell.verified ? "yes" : "NO",
                   TableReport::num(
                       static_cast<double>(cell.cycles - commit) /
                       static_cast<double>(table1Txns * table1Stores)),
                   TableReport::num(static_cast<double>(commit) /
                                    static_cast<double>(table1Txns))});
    }
    table.print();
}

// -------------------------------------------------------------------
// Figure 4: the order a transaction's data and logs reach PM
// -------------------------------------------------------------------

const LoggingStyle fig4Styles[] = {LoggingStyle::Undo,
                                   LoggingStyle::Redo};

std::string
fig4Key(LoggingStyle style)
{
    return caseKey("ordering", SchemeKind::SLPMT,
                   style == LoggingStyle::Undo ? "undo" : "redo");
}

std::vector<ExperimentCase>
fig4Cases()
{
    std::vector<ExperimentCase> cases;
    for (LoggingStyle style : fig4Styles) {
        ExperimentCase c;
        c.key = fig4Key(style);
        c.workload = "ordering";
        c.cfg.style = style;
        cases.push_back(std::move(c));
    }
    return cases;
}

/**
 * One transaction of 16 logged and 16 log-free stores under the
 * persist ledger. The ledger goes into the result's stats as
 * "ledger.events" plus "ledger.<i>.kind" and "ledger.<i>.addr" per
 * event, in persist order; verified means the ledger keeps the
 * style's Figure 4 constraints.
 */
ExperimentResult
fig4Run(const ExperimentCase &c)
{
    SystemConfig cfg;
    cfg.scheme = SchemeConfig::forKind(c.cfg.scheme);
    cfg.style = c.cfg.style;
    PmSystem sys(cfg);

    const Addr logged = sys.heap().alloc(128);
    const Addr log_free = sys.heap().alloc(128);

    const Cycles start = sys.cycles();
    const StatsSnapshot before = sys.stats().snapshot();
    sys.tracker().enable();
    sys.txBegin();
    for (int i = 0; i < 16; ++i)
        sys.write<std::uint64_t>(logged + i * 8, i);
    for (int i = 0; i < 16; ++i)
        sys.writeT<std::uint64_t>(log_free + i * 8, i,
                                  {.lazy = false, .logFree = true});
    sys.txCommit();
    sys.tracker().disable();

    ExperimentResult res;
    res.workload = c.workload;
    res.scheme = c.cfg.scheme;
    res.cycles = sys.cycles() - start;
    fillTotals(res, StatsRegistry::delta(before, sys.stats().snapshot()));

    const std::vector<PersistEvent> &ledger = sys.tracker().ledger();
    std::size_t last_record = 0;
    std::size_t first_logged = ledger.size();
    std::size_t last_logfree = 0;
    res.stats["ledger.events"] = ledger.size();
    for (std::size_t i = 0; i < ledger.size(); ++i) {
        const std::string at = "ledger." + std::to_string(i);
        res.stats[at + ".kind"] = static_cast<std::uint64_t>(ledger[i].kind);
        res.stats[at + ".addr"] = ledger[i].addr;
        switch (ledger[i].kind) {
          case PersistKind::LogRecord:
            last_record = i;
            break;
          case PersistKind::LoggedLine:
            first_logged = std::min(first_logged, i);
            break;
          case PersistKind::LogFreeLine:
            last_logfree = i;
            break;
          default:
            break;
        }
    }
    // Undo: log records before logged lines; log-free anywhere.
    // Redo: log-free lines before logged lines too.
    res.verified = last_record < first_logged &&
                   (c.cfg.style == LoggingStyle::Undo ||
                    last_logfree < first_logged);
    if (!res.verified)
        res.failure = "persist order violates Figure 4";
    return res;
}

const char *
persistKindName(PersistKind kind)
{
    switch (kind) {
      case PersistKind::LogRecord: return "log record";
      case PersistKind::LoggedLine: return "logged line";
      case PersistKind::LogFreeLine: return "log-free line";
      case PersistKind::LazyLine: return "lazy line";
      case PersistKind::Writeback: return "writeback";
      case PersistKind::Marker: return "marker";
    }
    return "?";
}

void
fig4Print(const MatrixResult &res)
{
    for (LoggingStyle style : fig4Styles) {
        const ExperimentResult &cell = res.get(fig4Key(style));
        TableReport table(
            std::string("Figure 4 persist order, ") +
            (style == LoggingStyle::Undo ? "undo" : "redo") +
            " logging (constraints " +
            (cell.verified ? "hold)" : "VIOLATED)"));
        table.header({"#", "kind", "address"});
        const std::uint64_t events = statOf(cell, "ledger.events");
        for (std::uint64_t i = 0; i < events; ++i) {
            const std::string at = "ledger." + std::to_string(i);
            char addr[32];
            std::snprintf(addr, sizeof(addr), "0x%llx",
                          static_cast<unsigned long long>(
                              statOf(cell, at + ".addr")));
            table.row({std::to_string(i),
                       persistKindName(static_cast<PersistKind>(
                           statOf(cell, at + ".kind"))),
                       addr});
        }
        table.print();
    }
}

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
// Section V-A: in-place update transactions vs PM write asymmetry
// -------------------------------------------------------------------

/** A PM device class the Section V-A strategy is measured on. */
struct DeviceClass
{
    const char *name;
    const char *key;  //!< cell key suffix
    std::uint64_t writeLatencyNs;
    std::uint64_t sequentialFactor;
};

/** Sweep the device's sequential-over-random write advantage: the
 *  strategy converts random commit-path writes into one sequential
 *  stream, so its benefit appears once the asymmetry is real. */
const DeviceClass inplaceDevices[] = {
    {"Optane-class 500ns, flat", "500ns-seq1", 500, 1},
    {"CXL-flash 2300ns, seq 8x", "2300ns-seq8", 2300, 8},
    {"CXL-flash 2300ns, seq 32x", "2300ns-seq32", 2300, 32},
};

/** Cell workloads: eager undo-logged updates, or the Section V-A
 *  strategy. */
const char *const inplaceStrategies[] = {"conventional", "section-va"};

std::string
inplaceKey(const char *strategy, const DeviceClass &device)
{
    return caseKey(strategy, SchemeKind::SLPMT, device.key);
}

/** A hot set: updates coalesce in the cache. */
constexpr std::size_t inplaceRecords = 256;
constexpr Bytes inplaceRecordBytes = 64;
constexpr std::size_t inplaceTxns = 500;
constexpr std::size_t inplaceUpdatesPerTxn = 8;

/** A side-array entry: the value, then the record address. */
constexpr Bytes inplaceEntryBytes = inplaceRecordBytes + 8;

std::vector<ExperimentCase>
inplaceCases()
{
    std::vector<ExperimentCase> cases;
    for (const DeviceClass &device : inplaceDevices) {
        for (const char *strategy : inplaceStrategies) {
            ExperimentCase c;
            c.key = inplaceKey(strategy, device);
            c.workload = strategy;
            c.cfg.pmWriteLatencyNs = device.writeLatencyNs;
            cases.push_back(std::move(c));
        }
    }
    return cases;
}

std::array<std::uint8_t, inplaceRecordBytes>
inplaceValue(std::uint64_t txn, std::uint64_t slot)
{
    std::array<std::uint8_t, inplaceRecordBytes> value{};
    std::uint64_t state = txn * 1315423911ULL + slot;
    for (auto &b : value)
        b = static_cast<std::uint8_t>(splitmix64(state));
    return value;
}

/**
 * A random-update workload over a records array, then a power
 * failure and recovery; verified means every record holds its last
 * committed value.
 *
 * Conventional updates are eager and undo-logged, so commit persists
 * the records. The Section V-A strategy updates the data with lazy
 * but *logged* storeT and appends the new value to a sequential side
 * array of {value, addr} entries with eager log-free storeT: at commit
 * only the side array is persisted and the updated records stay in
 * the cache. If a crash interrupts the transaction, the undo records
 * roll it back; after the commit, recovery replays the side array as
 * a redo log without address indirection. The entry's address word
 * doubles as its publish flag (fresh heap memory reads as zero), so
 * recovery finds the tail by scanning: no durable tail counter puts
 * the side array into every transaction's working set.
 */
ExperimentResult
inplaceRun(const ExperimentCase &c)
{
    const bool section_va = c.workload == "section-va";
    SystemConfig cfg;
    cfg.scheme = SchemeConfig::forKind(c.cfg.scheme);
    cfg.pm.writeLatencyNs = c.cfg.pmWriteLatencyNs;
    for (const DeviceClass &device : inplaceDevices) {
        if (c.key == inplaceKey(c.workload.c_str(), device))
            cfg.pm.sequentialFactor = device.sequentialFactor;
    }
    PmSystem sys(cfg);
    const Addr records = sys.heap().alloc(inplaceRecords * inplaceRecordBytes);
    const Addr side = sys.heap().alloc(
        (inplaceTxns * inplaceUpdatesPerTxn + 1) * inplaceEntryBytes);
    sys.quiesce();

    Rng rng(7);
    std::vector<std::array<std::uint8_t, inplaceRecordBytes>> expected(
        inplaceRecords);
    const Cycles start = sys.cycles();
    const StatsSnapshot before = sys.stats().snapshot();
    std::uint64_t tail = 0;
    for (std::size_t t = 0; t < inplaceTxns; ++t) {
        DurableTx tx(sys);
        for (std::size_t u = 0; u < inplaceUpdatesPerTxn; ++u) {
            const std::uint64_t slot = rng.below(inplaceRecords);
            const auto value = inplaceValue(t, slot);
            expected[slot] = value;
            const Addr target = records + slot * inplaceRecordBytes;
            if (!section_va) {
                sys.writeBytes(target, value.data(), inplaceRecordBytes);
                continue;
            }
            sys.writeBytesT(target, value.data(), inplaceRecordBytes,
                            {.lazy = true, .logFree = false});
            // The address word is written last and publishes the entry.
            const Addr entry = side + tail * inplaceEntryBytes;
            sys.writeBytesT(entry, value.data(), inplaceRecordBytes,
                            {.lazy = false, .logFree = true});
            sys.writeT<Addr>(entry + inplaceRecordBytes, target,
                             {.lazy = false, .logFree = true});
            ++tail;
        }
        tx.commit();
    }

    ExperimentResult res;
    res.workload = c.workload;
    res.scheme = c.cfg.scheme;
    res.cycles = sys.cycles() - start;
    fillTotals(res, StatsRegistry::delta(before, sys.stats().snapshot()));

    // Crash with the lazily persistent records still in the cache.
    sys.crash();
    sys.recoverHardware();
    if (section_va) {
        // Replay the side array up to the first unpublished entry.
        for (Addr entry = side;; entry += inplaceEntryBytes) {
            const Addr target =
                sys.peek<Addr>(entry + inplaceRecordBytes);
            if (target == 0)
                break;
            std::uint8_t value[inplaceRecordBytes];
            sys.peekBytes(entry, value, inplaceRecordBytes);
            sys.pm().poke(target, value, inplaceRecordBytes);
        }
    }
    res.verified = true;
    for (std::size_t slot = 0; slot < inplaceRecords; ++slot) {
        std::array<std::uint8_t, inplaceRecordBytes> got{};
        sys.peekBytes(records + slot * inplaceRecordBytes, got.data(),
                      inplaceRecordBytes);
        if (got != expected[slot]) {
            res.verified = false;
            res.failure = "record " + std::to_string(slot) +
                          " lost its committed value";
            break;
        }
    }
    return res;
}

void
inplacePrint(const MatrixResult &res)
{
    TableReport table(
        "Section V-A: in-place update transactions — conventional vs "
        "lazy+sequential-record strategy vs PM write asymmetry");
    table.header({"device", "conventional cycles",
                  "Section V-A cycles", "speedup", "recovery"});
    for (const DeviceClass &device : inplaceDevices) {
        const auto &conv = res.get(inplaceKey("conventional", device));
        const auto &opt = res.get(inplaceKey("section-va", device));
        table.row({device.name, TableReport::integer(conv.cycles),
                   TableReport::integer(opt.cycles),
                   TableReport::ratio(opt.speedupOver(conv)),
                   conv.verified && opt.verified ? "ok" : "FAILED"});
    }
    table.print();
}

// -------------------------------------------------------------------
// Hardware ablations (Sections III-B1 and III-C2, the log buffer)
// -------------------------------------------------------------------

/** Transaction-ID counts of the lazy-window ablation; 4 is the
 *  default, so its cells are the plain workload/SLPMT ones. */
const std::vector<std::uint8_t> ablationTxnIds = {1, 2, 4, 8};
const std::vector<std::string> ablationTxnIdWorkloads = {"hashtable",
                                                         "avl"};

std::string
txnIdsKey(const std::string &workload, std::uint8_t ids)
{
    return caseKey(workload, SchemeKind::SLPMT,
                   ids == 4 ? "" : "ids" + std::to_string(ids));
}

std::vector<ExperimentCase>
ablationCases()
{
    MatrixSpec spec;
    spec.workloads = kernelWorkloads();
    spec.schemes = {SchemeKind::FG, SchemeKind::SLPMT, SchemeKind::EDE};
    std::vector<ExperimentCase> cases = expandMatrix(spec);
    for (const auto &workload : kernelWorkloads()) {
        ExperimentCase c;
        c.key = caseKey(workload, SchemeKind::SLPMT, "spec");
        c.workload = workload;
        c.cfg.speculativeRounding = true;
        cases.push_back(std::move(c));
    }
    for (const auto &workload : ablationTxnIdWorkloads) {
        for (std::uint8_t ids : ablationTxnIds) {
            if (ids == 4)
                continue;
            ExperimentCase c;
            c.key = txnIdsKey(workload, ids);
            c.workload = workload;
            c.cfg.numTxnIds = ids;
            cases.push_back(std::move(c));
        }
    }
    return cases;
}

void
ablationPrint(const MatrixResult &res)
{
    // Speculative rounding creates records for clean words so the
    // aggregated L2 log bits stay set, trading extra records against
    // duplicate logging after a refetch.
    TableReport spec(
        "Ablation: speculative log-bit rounding (Section III-B1)");
    spec.header({"benchmark", "records off", "records on",
                 "traffic off KB", "traffic on KB", "speedup on/off"});
    for (const auto &workload : kernelWorkloads()) {
        const auto &off = res.get(caseKey(workload, SchemeKind::SLPMT));
        const auto &on =
            res.get(caseKey(workload, SchemeKind::SLPMT, "spec"));
        spec.row({workload, TableReport::integer(off.logRecords),
                  TableReport::integer(on.logRecords),
                  TableReport::num(
                      static_cast<double>(off.pmWriteBytes) / 1024.0),
                  TableReport::num(
                      static_cast<double>(on.pmWriteBytes) / 1024.0),
                  TableReport::ratio(on.speedupOver(off))});
    }
    spec.print();

    // The ID count sets how deep the lazy window is before the
    // circular allocator forces persists.
    TableReport ids(
        "Ablation: transaction-ID count (lazy window depth)");
    std::vector<std::string> cols = {"benchmark"};
    for (auto n : ablationTxnIds)
        cols.push_back(std::to_string(n) + " IDs");
    ids.header(cols);
    for (const auto &workload : ablationTxnIdWorkloads) {
        const auto &base = res.get(caseKey(workload, SchemeKind::FG));
        std::vector<std::string> row = {workload};
        for (auto n : ablationTxnIds)
            row.push_back(TableReport::ratio(
                res.get(txnIdsKey(workload, n)).speedupOver(base)));
        ids.row(row);
    }
    ids.print();

    // The without-buffer column runs EDE, which persists each record
    // as it is created but also pays EDE's software record
    // construction and fence costs, so the row does not yet isolate
    // the buffer.
    TableReport buffer(
        "Ablation: tiered coalescing log buffer (FG with vs without)");
    buffer.header({"benchmark", "with buffer KB", "without buffer KB",
                   "speedup with/without"});
    for (const auto &workload : kernelWorkloads()) {
        const auto &with_buf = res.get(caseKey(workload, SchemeKind::FG));
        const auto &without_buf =
            res.get(caseKey(workload, SchemeKind::EDE));
        buffer.row(
            {workload,
             TableReport::num(
                 static_cast<double>(with_buf.pmWriteBytes) / 1024.0),
             TableReport::num(
                 static_cast<double>(without_buf.pmWriteBytes) / 1024.0),
             TableReport::ratio(with_buf.speedupOver(without_buf))});
    }
    buffer.print();
}

// -------------------------------------------------------------------
// Extension: 50/50 insert/update mix
// -------------------------------------------------------------------

const std::vector<SchemeKind> updatesSchemes = {
    SchemeKind::FG, SchemeKind::SLPMT, SchemeKind::ATOM,
    SchemeKind::EDE};

std::vector<ExperimentCase>
updatesCases()
{
    std::vector<ExperimentCase> cases;
    for (const auto &workload : allWorkloads()) {
        for (SchemeKind s : updatesSchemes) {
            ExperimentCase c;
            c.key = caseKey(workload, s);
            c.workload = workload;
            c.cfg.scheme = s;
            c.cfg.ycsb = {.numOps = 500, .valueBytes = 256, .seed = 33};
            cases.push_back(std::move(c));
        }
    }
    return cases;
}

/**
 * A YCSB-A-style mix beyond the paper's insert-only load: the first
 * half of the trace is preloaded, then the measured window alternates
 * inserting the second half with updating random preloaded keys.
 * Every update's out-of-place value write is log-free (a fresh blob)
 * while the small pointer/length fields stay logged, so selective
 * logging should keep most of its advantage.
 */
ExperimentResult
updatesRun(const ExperimentCase &c)
{
    SystemConfig cfg;
    cfg.scheme = SchemeConfig::forKind(c.cfg.scheme);
    PmSystem sys(cfg);
    auto workload = makeWorkload(c.workload);
    workload->setup(sys);

    const auto ops = ycsbLoad(c.cfg.ycsb);
    const std::size_t preload = ops.size() / 2;
    for (std::size_t i = 0; i < preload; ++i)
        workload->insert(sys, ops[i].key, ops[i].value);

    Rng rng(44);
    std::vector<std::vector<std::uint8_t>> latest(preload);
    const Cycles start = sys.cycles();
    const StatsSnapshot before = sys.stats().snapshot();
    std::size_t next_insert = preload;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (i % 2 == 0 && next_insert < ops.size()) {
            workload->insert(sys, ops[next_insert].key,
                             ops[next_insert].value);
            ++next_insert;
        } else {
            const std::size_t victim = rng.below(preload);
            auto fresh = ycsbValueFor(ops[victim].key ^ i,
                                      c.cfg.ycsb.valueBytes);
            workload->update(sys, ops[victim].key, fresh);
            latest[victim] = std::move(fresh);
        }
    }

    ExperimentResult res;
    res.workload = c.workload;
    res.scheme = c.cfg.scheme;
    res.cycles = sys.cycles() - start;
    fillTotals(res, StatsRegistry::delta(before, sys.stats().snapshot()));

    std::string why;
    res.verified = workload->checkConsistency(sys, &why);
    if (!res.verified)
        res.failure = "consistency: " + why;
    std::vector<std::uint8_t> got;
    for (std::size_t i = 0; i < preload && res.verified; ++i) {
        const auto &want = latest[i].empty() ? ops[i].value : latest[i];
        res.verified = workload->lookup(sys, ops[i].key, &got) &&
                       got == want;
        if (!res.verified)
            res.failure = "lookup mismatch";
    }
    return res;
}

void
updatesPrint(const MatrixResult &res)
{
    TableReport table(
        "Extension: 50/50 insert/update mix (256B values), speedup "
        "over FG");
    std::vector<std::string> cols = {"benchmark"};
    for (SchemeKind s : updatesSchemes)
        cols.push_back(schemeName(s));
    cols.push_back("SLPMT traffic cut");
    table.header(cols);

    std::map<SchemeKind, std::vector<double>> all;
    for (const auto &workload : allWorkloads()) {
        const auto &base = res.get(caseKey(workload, SchemeKind::FG));
        std::vector<std::string> row = {workload};
        for (SchemeKind s : updatesSchemes) {
            const double sp =
                res.get(caseKey(workload, s)).speedupOver(base);
            all[s].push_back(sp);
            row.push_back(TableReport::ratio(sp));
        }
        row.push_back(TableReport::percent(
            res.get(caseKey(workload, SchemeKind::SLPMT))
                .trafficReductionOver(base)));
        table.row(row);
    }
    std::vector<std::string> row = {"geomean"};
    for (SchemeKind s : updatesSchemes)
        row.push_back(TableReport::ratio(geomean(all[s])));
    table.row(row);
    table.print();
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
            statOf(slpmt, "txn.lazyDrain.eviction") +
            statOf(slpmt, "txn.lazyDrain.explicit") +
            statOf(slpmt, "txn.lazyDrain.sigHit") +
            statOf(slpmt, "txn.lazyDrain.lineOwner") +
            statOf(slpmt, "txn.lazyDrain.idWrap");
        records.row({workload, TableReport::integer(base.logRecords),
                     TableReport::integer(slpmt.logRecords),
                     TableReport::percent(cut),
                     TableReport::integer(
                         statOf(slpmt, "txn.logFreeWordsElided")),
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
        auto get = [&](const char *name) { return statOf(cell, name); };
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
                         statOf(uni, "service.opsPerGcycle")),
                     TableReport::integer(
                         statOf(uni, "service.latency.p50")),
                     TableReport::integer(
                         statOf(uni, "service.latency.p99")),
                     TableReport::integer(
                         statOf(uni, "service.latency.p999")),
                     TableReport::integer(
                         statOf(zipf, "service.opsPerGcycle")),
                     TableReport::integer(
                         statOf(zipf, "service.latency.p50")),
                     TableReport::integer(
                         statOf(zipf, "service.latency.p99")),
                     TableReport::integer(
                         statOf(zipf, "service.latency.p999"))});
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
                     statOf(uni, "service.commitLatency.p50")),
                 TableReport::integer(
                     statOf(uni, "service.commitLatency.p99")),
                 TableReport::integer(
                     statOf(uni, "service.commitLatency.p999")),
                 TableReport::integer(
                     statOf(zipf, "service.commitLatency.p50")),
                 TableReport::integer(
                     statOf(zipf, "service.commitLatency.p99")),
                 TableReport::integer(
                     statOf(zipf, "service.commitLatency.p999"))});
        }
    }
    commit.print();
}

} // namespace

const std::vector<FigureSpec> &
figureRegistry()
{
    static const std::vector<FigureSpec> registry = {
        {"table1", "Table I: store/storeT semantics and cost",
         table1Cases, table1Print, table1Run},
        {"fig4", "Figure 4: undo/redo persist order", fig4Cases,
         fig4Print, fig4Run},
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
        {"inplace", "Section V-A in-place updates vs PM device class",
         inplaceCases, inplacePrint, inplaceRun},
        {"ablation", "speculative rounding, txn-ID count, log buffer",
         ablationCases, ablationPrint},
        {"updates", "50/50 insert/update mix across schemes",
         updatesCases, updatesPrint, updatesRun},
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

} // namespace slpmt
