#include "sim/figures.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "compiler/compiler_policy.hh"
#include "core/pm_system.hh"
#include "core/tx.hh"
#include "workloads/factory.hh"
#include "workloads/loadgen.hh"

namespace slpmt
{
namespace
{

using Cell = ExperimentResult;

/** The cell's stats entry @p name. A name the cell lacks is fatal(),
 *  so a renamed or misspelled counter cannot print as zeros. */
std::uint64_t
cellStat(const Cell &cell, const std::string &name)
{
    auto it = cell.stats.find(name);
    if (it == cell.stats.end())
        fatal("cell " + cell.workload + "/" + schemeName(cell.scheme) +
              " has no stat " + name);
    return it->second;
}

std::string
formatValue(double v, NumberFormat format)
{
    if (format == NumberFormat::Check)
        return v != 0 ? "ok" : "FAILED";
    if (format == NumberFormat::Integer)
        return std::to_string(static_cast<unsigned long long>(v));
    char buf[32];
    std::snprintf(buf, sizeof(buf),
                  format == NumberFormat::Ratio     ? "%.2fx"
                  : format == NumberFormat::Percent ? "%.1f%%"
                                                    : "%.3f",
                  format == NumberFormat::Percent ? v * 100.0 : v);
    return buf;
}

/** Geometric mean of a list of ratios (the paper's summary metric). */
double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** A column key with the row's key in place of its "{}". */
std::string
withRowKey(std::string key, const std::string &row_key)
{
    const std::size_t at = key.find("{}");
    return at == std::string::npos ? key : key.replace(at, 2, row_key);
}

} // namespace

Metric
speedup()
{
    return {[](const Cell &c, const Cell &b) { return c.speedupOver(b); },
            NumberFormat::Ratio};
}

Metric
trafficCut()
{
    return {[](const Cell &c, const Cell &b) {
                return c.trafficReductionOver(b);
            },
            NumberFormat::Percent};
}

Metric
kilobytes()
{
    return {[](const Cell &c, const Cell &) { return c.pmWriteBytes / 1024.0; },
            NumberFormat::Decimal};
}

Metric
cycleCount()
{
    return {[](const Cell &c, const Cell &) { return c.cycles; }};
}

Metric
logRecords()
{
    return {[](const Cell &c, const Cell &) { return c.logRecords; }};
}

Metric
statSum(std::vector<std::string> names)
{
    return {[names = std::move(names)](const Cell &c, const Cell &) {
        std::uint64_t sum = 0;
        for (const std::string &name : names)
            sum += cellStat(c, name);
        return sum;
    }};
}

std::string
renderTable(const TableSpec &spec, const MatrixResult &result)
{
    // The cells as text: the header, the rows, then the footer.
    std::vector<std::vector<std::string>> text = {spec.labelHeaders};
    for (const TableRow &row : spec.rows) {
        if (row.labels.size() != spec.labelHeaders.size())
            panic("table \"" + spec.title + "\": a row has " +
                  std::to_string(row.labels.size()) + " labels for " +
                  std::to_string(spec.labelHeaders.size()) + " headers");
        text.push_back(row.labels);
    }
    std::vector<std::string> footer(spec.labelHeaders.size());
    bool geo_footer = false;
    bool mean_footer = false;
    for (const TableColumn &col : spec.columns) {
        text[0].push_back(col.header);
        std::vector<double> values;
        for (std::size_t r = 0; r < spec.rows.size(); ++r) {
            const std::string &row_key = spec.rows[r].key;
            const Cell &cell = result.get(withRowKey(col.key, row_key));
            values.push_back(col.metric.value(
                cell, col.baseKey.empty()
                          ? cell
                          : result.get(withRowKey(col.baseKey, row_key))));
            text[r + 1].push_back(
                formatValue(values.back(), col.metric.format));
        }
        geo_footer |= col.footer == Footer::Geomean;
        mean_footer |= col.footer == Footer::Mean;
        const double summary =
            col.footer == Footer::Geomean
                ? geomean(values)
                : std::accumulate(values.begin(), values.end(), 0.0) /
                      static_cast<double>(values.size());
        footer.push_back(col.footer == Footer::None
                             ? ""
                             : formatValue(summary, col.metric.format));
    }
    if (geo_footer || mean_footer) {
        footer.at(0) = geo_footer && mean_footer ? "geomean/mean"
                       : geo_footer              ? "geomean"
                                                 : "mean";
        text.push_back(std::move(footer));
    }

    std::vector<std::size_t> widths(text[0].size());
    for (const auto &cells : text) {
        for (std::size_t c = 0; c < cells.size(); ++c)
            widths[c] = std::max(widths[c], cells[c].size());
    }
    std::size_t rule = 0;
    for (std::size_t w : widths)
        rule += w + 2;
    std::string out = "\n== " + spec.title + " ==\n";
    for (std::size_t r = 0; r < text.size(); ++r) {
        for (std::size_t c = 0; c < widths.size(); ++c)
            out += text[r][c] +
                   std::string(widths[c] + 2 - text[r][c].size(), ' ');
        out += r == 0 ? "\n" + std::string(rule, '-') + "\n" : "\n";
    }
    return out;
}

namespace
{

/** One row per workload, labelled and keyed by its name. */
std::vector<TableRow>
workloadRows(const std::vector<std::string> &workloads)
{
    std::vector<TableRow> rows;
    for (const std::string &workload : workloads)
        rows.push_back({{workload}, workload});
    return rows;
}

/** @p metric of the row's @p scheme cell over its FG cell, both with
 *  key suffix @p suffix. */
TableColumn
overFG(std::string header, SchemeKind scheme, const std::string &suffix,
       const Metric &metric, Footer footer = Footer::None)
{
    return {std::move(header), caseKey("{}", scheme, suffix),
            caseKey("{}", SchemeKind::FG, suffix), metric, footer};
}

/** One row per workload and one overFG() column per scheme. */
TableSpec
schemeTable(std::string title, const std::vector<std::string> &workloads,
            const std::vector<SchemeKind> &schemes, const Metric &metric,
            Footer footer = Footer::None, const std::string &suffix = "")
{
    TableSpec table{std::move(title), {"benchmark"},
                    workloadRows(workloads)};
    for (SchemeKind s : schemes) {
        table.columns.push_back(
            overFG(schemeName(s), s, suffix, metric, footer));
    }
    return table;
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

std::vector<TableSpec>
table1Tables(const MatrixResult &res)
{
    TableSpec table{"Table I: store/storeT semantics and cost",
                    {"instruction", "persist bit", "log bit", "bits ok"}};
    for (const StoreForm &form : storeForms) {
        table.rows.push_back({{form.name, form.expectPersist ? "1" : "0",
                               form.expectLog ? "1" : "0",
                               res.get(form.key).verified ? "yes" : "NO"},
                              form.key});
    }
    const Metric per_store{
        [](const Cell &c, const Cell &) {
            return static_cast<double>(
                       c.cycles - cellStat(c, "txn.commitCycles.sum")) /
                   static_cast<double>(table1Txns * table1Stores);
        },
        NumberFormat::Decimal};
    const Metric commit_per_txn{
        [](const Cell &c, const Cell &) {
            return static_cast<double>(
                       cellStat(c, "txn.commitCycles.sum")) /
                   static_cast<double>(table1Txns);
        },
        NumberFormat::Decimal};
    table.columns = {{"cycles/store", "{}", "", per_store},
                     {"commit cycles/txn", "{}", "", commit_per_txn}};
    return {table};
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

std::vector<TableSpec>
fig4Tables(const MatrixResult &res)
{
    std::vector<TableSpec> tables;
    for (LoggingStyle style : fig4Styles) {
        const Cell &cell = res.get(fig4Key(style));
        TableSpec &table = tables.emplace_back(TableSpec{
            std::string("Figure 4 persist order, ") +
                (style == LoggingStyle::Undo ? "undo" : "redo") +
                " logging (constraints " +
                (cell.verified ? "hold)" : "VIOLATED)"),
            {"#", "kind", "address"}});
        const std::uint64_t events = cellStat(cell, "ledger.events");
        for (std::uint64_t i = 0; i < events; ++i) {
            const std::string at = "ledger." + std::to_string(i);
            char addr[32];
            std::snprintf(addr, sizeof(addr), "0x%llx",
                          static_cast<unsigned long long>(
                              cellStat(cell, at + ".addr")));
            table.rows.push_back(
                {{std::to_string(i),
                  persistKindName(static_cast<PersistKind>(
                      cellStat(cell, at + ".kind"))),
                  addr}});
        }
    }
    return tables;
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

std::vector<TableSpec>
fig8Tables(const MatrixResult &res)
{
    // Headline cross-scheme ratios (Section VI-D).
    TableSpec headline{"Section VI-D headline: SLPMT vs prior designs",
                       {"comparison", "geomean speedup"}};
    for (SchemeKind other :
         {SchemeKind::FG, SchemeKind::ATOM, SchemeKind::EDE}) {
        std::vector<double> ratios;
        for (const auto &workload : kernelWorkloads()) {
            ratios.push_back(
                res.get(caseKey(workload, SchemeKind::SLPMT))
                    .speedupOver(res.get(caseKey(workload, other))));
        }
        headline.rows.push_back(
            {{"SLPMT vs " + schemeName(other),
              formatValue(geomean(ratios), NumberFormat::Ratio)}});
    }
    return {schemeTable("Figure 8 (left): speedup over FG baseline",
                        kernelWorkloads(), fig8Schemes, speedup(),
                        Footer::Geomean),
            schemeTable("Figure 8 (right): PM write-traffic reduction "
                        "over FG baseline",
                        kernelWorkloads(), fig8Schemes, trafficCut(),
                        Footer::Mean),
            headline};
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

std::vector<TableSpec>
fig9Tables(const MatrixResult &)
{
    // The traffic the featureless baseline writes beyond SLPMT-CL.
    const Metric extra{
        [](const Cell &c, const Cell &base) {
            if (c.pmWriteBytes == 0)
                return 0.0;
            return static_cast<double>(base.pmWriteBytes) /
                       static_cast<double>(c.pmWriteBytes) -
                   1.0;
        },
        NumberFormat::Percent};
    const std::string cl = caseKey("{}", SchemeKind::SLPMT_CL);
    const std::string atom = caseKey("{}", SchemeKind::ATOM);
    return {{"Figure 9: cache-line-granularity SLPMT vs featureless "
             "line-granularity baseline",
             {"benchmark"},
             workloadRows(kernelWorkloads()),
             {{"SLPMT-CL speedup", cl, atom, speedup(), Footer::Geomean},
              {"extra traffic without features", cl, atom, extra,
               Footer::Mean}}}};
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

/** A kernel table with one column per swept value, whose key suffix
 *  is the value plus @p unit: @p metric of the row's SLPMT cell over
 *  its FG cell at that suffix. */
template <typename T>
TableSpec
sweepTable(std::string title, const std::vector<T> &sweep,
           const char *unit, const Metric &metric,
           Footer footer = Footer::None)
{
    TableSpec table{std::move(title), {"benchmark"},
                    workloadRows(kernelWorkloads())};
    for (T value : sweep) {
        const std::string suffix = std::to_string(value) + unit;
        table.columns.push_back(
            overFG(suffix, SchemeKind::SLPMT, suffix, metric, footer));
    }
    return table;
}

std::vector<TableSpec>
fig10Tables(const MatrixResult &)
{
    return {sweepTable("Figure 10: SLPMT speedup over FG vs value size",
                       valueSizeSweep, "B", speedup(), Footer::Geomean)};
}

std::vector<TableSpec>
fig11Tables(const MatrixResult &)
{
    const Metric saved_kb{
        [](const Cell &c, const Cell &base) {
            return (static_cast<double>(base.pmWriteBytes) -
                    static_cast<double>(c.pmWriteBytes)) /
                   1024.0;
        },
        NumberFormat::Decimal};
    return {sweepTable(
                "Figure 11: write-traffic reduction (relative) vs value size",
                valueSizeSweep, "B", trafficCut()),
            sweepTable(
                "Figure 11: write-traffic reduction (KB saved) vs value size",
                valueSizeSweep, "B", saved_kb)};
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

std::vector<TableSpec>
fig12Tables(const MatrixResult &)
{
    return {sweepTable("Figure 12: SLPMT speedup over FG vs PM write latency",
                       latencySweepNs, "ns", speedup(), Footer::Geomean)};
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

/**
 * The cells of the annotation figures (fig13, logfree). Not a full
 * cross product: per workload, the FG logging baseline runs once (tag
 * "base"; manual annotations are inert under FG), then SLPMT once per
 * annotation source in @p slpmt, tagged as given.
 */
std::vector<ExperimentCase>
annotationCases(
    const std::vector<std::string> &workloads,
    const std::vector<std::pair<AnnotationMode, const char *>> &slpmt,
    const YcsbConfig &ycsb)
{
    std::vector<ExperimentCase> cases;
    for (const auto &workload : workloads) {
        ExperimentCase c;
        c.workload = workload;
        c.cfg.ycsb = ycsb;
        c.cfg.scheme = SchemeKind::FG;
        c.key = caseKey(workload, SchemeKind::FG, "base");
        cases.push_back(c);
        c.cfg.scheme = SchemeKind::SLPMT;
        for (const auto &[mode, tag] : slpmt) {
            c.cfg.annotations = mode;
            c.key = caseKey(workload, SchemeKind::SLPMT, tag);
            cases.push_back(c);
        }
    }
    return cases;
}

std::vector<ExperimentCase>
fig13Cases()
{
    return annotationCases(fig13Workloads(),
                           {{AnnotationMode::Manual, "manual"},
                            {AnnotationMode::Compiler, "compiler"}},
                           {});
}

std::vector<TableSpec>
fig13Tables(const MatrixResult &)
{
    const std::string base = caseKey("{}", SchemeKind::FG, "base");
    TableSpec speedups{
        "Figure 13 (left): speedup over FG, manual vs compiler "
        "annotations",
        {"benchmark"},
        workloadRows(fig13Workloads()),
        {{"manual", caseKey("{}", SchemeKind::SLPMT, "manual"), base,
          speedup(), Footer::Geomean},
         {"compiler", caseKey("{}", SchemeKind::SLPMT, "compiler"), base,
          speedup(), Footer::Geomean}}};

    // Annotation coverage (the 16-of-26 observation) over the kernels,
    // and compile time (Figure 13 right), from each structure's sites.
    TableSpec coverage{"Figure 13: compiler annotation coverage",
                       {"benchmark", "manual sites", "compiler found",
                        "missed (deep semantics)"}};
    TableSpec compile{
        "Figure 13 (right): compile time with the storeT pass",
        {"benchmark", "baseline (s)", "with pass (s)", "overhead"}};
    std::size_t total_manual = 0;
    std::size_t total_found = 0;
    for (const auto &workload : fig13Workloads()) {
        PmSystem sys{SystemConfig{}};
        auto w = makeWorkload(workload);
        w->setup(sys);
        const CompileTimeEstimate est = estimateCompileTime(
            sys.sites(), baselineCompileSec(workload));
        compile.rows.push_back(
            {{workload, formatValue(est.baselineSec, NumberFormat::Decimal),
              formatValue(est.withAnalysisSec, NumberFormat::Decimal),
              formatValue(est.overheadFraction(), NumberFormat::Percent)}});
        if (workload == "kv-btree")
            continue;  // coverage counts the four kernels
        const AnnotationReport report = compareAnnotations(sys.sites());
        total_manual += report.manualAnnotated;
        total_found += report.compilerFound;
        coverage.rows.push_back({{workload,
                                  std::to_string(report.manualAnnotated),
                                  std::to_string(report.compilerFound),
                                  std::to_string(report.missed)}});
    }
    coverage.rows.push_back({{"total (paper: 16 of 26)",
                              std::to_string(total_manual),
                              std::to_string(total_found),
                              std::to_string(total_manual - total_found)}});
    return {speedups, coverage, compile};
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

std::vector<TableSpec>
fig14Tables(const MatrixResult &)
{
    std::vector<TableSpec> tables;
    for (std::size_t vs : {std::size_t(256), std::size_t(16)}) {
        const auto suffix = std::to_string(vs) + "B";
        TableSpec &speedups = tables.emplace_back(schemeTable(
            "Figure 14 (" + suffix + " values): speedup over FG baseline",
            kvWorkloads(), fig14Schemes, speedup(), Footer::Geomean,
            suffix));
        speedups.columns.push_back(overFG("traffic cut (SLPMT)",
                                          SchemeKind::SLPMT, suffix,
                                          trafficCut()));

        const std::string slpmt = caseKey("{}", SchemeKind::SLPMT, suffix);
        tables.push_back(
            {"Figure 14 (" + suffix + "): SLPMT vs prior hardware designs",
             {"benchmark"},
             workloadRows(kvWorkloads()),
             {{"vs ATOM", slpmt, caseKey("{}", SchemeKind::ATOM, suffix),
               speedup(), Footer::Geomean},
              {"vs EDE", slpmt, caseKey("{}", SchemeKind::EDE, suffix),
               speedup(), Footer::Geomean}}});
    }
    return tables;
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

std::vector<TableSpec>
inplaceTables(const MatrixResult &)
{
    const Metric recovered{[](const Cell &c, const Cell &base) {
                               return c.verified && base.verified;
                           },
                           NumberFormat::Check};
    const std::string conv = caseKey("conventional", SchemeKind::SLPMT, "{}");
    const std::string opt = caseKey("section-va", SchemeKind::SLPMT, "{}");
    TableSpec table{
        "Section V-A: in-place update transactions — conventional vs "
        "lazy+sequential-record strategy vs PM write asymmetry",
        {"device"},
        {},
        {{"conventional cycles", conv, "", cycleCount()},
         {"Section V-A cycles", opt, "", cycleCount()},
         {"speedup", opt, conv, speedup()},
         {"recovery", opt, conv, recovered}}};
    for (const DeviceClass &device : inplaceDevices)
        table.rows.push_back({{device.name}, device.key});
    return {table};
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

std::vector<TableSpec>
ablationTables(const MatrixResult &)
{
    // Speculative rounding creates records for clean words so the
    // aggregated L2 log bits stay set, trading extra records against
    // duplicate logging after a refetch.
    const std::string off = caseKey("{}", SchemeKind::SLPMT);
    const std::string on = caseKey("{}", SchemeKind::SLPMT, "spec");
    TableSpec spec{"Ablation: speculative log-bit rounding (Section III-B1)",
                   {"benchmark"},
                   workloadRows(kernelWorkloads()),
                   {{"records off", off, "", logRecords()},
                    {"records on", on, "", logRecords()},
                    {"traffic off KB", off, "", kilobytes()},
                    {"traffic on KB", on, "", kilobytes()},
                    {"speedup on/off", on, off, speedup()}}};

    // The ID count sets how deep the lazy window is before the
    // circular allocator forces persists.
    TableSpec ids{"Ablation: transaction-ID count (lazy window depth)",
                  {"benchmark"}, workloadRows(ablationTxnIdWorkloads)};
    for (auto n : ablationTxnIds) {
        ids.columns.push_back({std::to_string(n) + " IDs",
                               txnIdsKey("{}", n),
                               caseKey("{}", SchemeKind::FG), speedup()});
    }

    // The without-buffer column runs EDE, which persists each record
    // as it is created but also pays EDE's software record
    // construction and fence costs, so the row does not yet isolate
    // the buffer.
    const std::string with_buf = caseKey("{}", SchemeKind::FG);
    const std::string without_buf = caseKey("{}", SchemeKind::EDE);
    TableSpec buffer{
        "Ablation: tiered coalescing log buffer (FG with vs without)",
        {"benchmark"},
        workloadRows(kernelWorkloads()),
        {{"with buffer KB", with_buf, "", kilobytes()},
         {"without buffer KB", without_buf, "", kilobytes()},
         {"speedup with/without", with_buf, without_buf, speedup()}}};
    return {spec, ids, buffer};
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

std::vector<TableSpec>
updatesTables(const MatrixResult &)
{
    TableSpec table = schemeTable(
        "Extension: 50/50 insert/update mix (256B values), speedup "
        "over FG",
        allWorkloads(), updatesSchemes, speedup(), Footer::Geomean);
    table.columns.push_back(overFG("SLPMT traffic cut", SchemeKind::SLPMT,
                                   "", trafficCut()));
    return {table};
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
    // Besides the FG logging baseline: SLPMT hardware with the
    // annotations ignored (every store logged), and SLPMT with the
    // manual annotations — where the log-free structures commit with
    // (near) zero records.
    return annotationCases(logfreeWorkloads(),
                           {{AnnotationMode::None, "plain"},
                            {AnnotationMode::Manual, "slpmt"}},
                           {.numOps = 600, .valueBytes = 64});
}

std::vector<TableSpec>
logfreeTables(const MatrixResult &)
{
    const std::string base = caseKey("{}", SchemeKind::FG, "base");
    const std::string plain = caseKey("{}", SchemeKind::SLPMT, "plain");
    const std::string slpmt = caseKey("{}", SchemeKind::SLPMT, "slpmt");
    TableSpec speedups{
        "logfree: speedup over the FG logging baseline (600 inserts, "
        "64B values)",
        {"structure"},
        workloadRows(logfreeWorkloads()),
        {{"SLPMT unannotated", plain, base, speedup(), Footer::Geomean},
         {"SLPMT annotated", slpmt, base, speedup(), Footer::Geomean},
         {"traffic cut (annotated)", slpmt, base, trafficCut()}}};

    // The structural point of the figure: under the annotations the
    // log-free indexes *eliminate* records (publication stores need
    // none) while the logging-reliant reference merely shrinks or
    // defers its set.
    const Metric records_cut{
        [](const Cell &c, const Cell &b) {
            return b.logRecords
                       ? 1.0 - static_cast<double>(c.logRecords) /
                                   static_cast<double>(b.logRecords)
                       : 0.0;
        },
        NumberFormat::Percent};
    TableSpec records{
        "logfree: undo/redo log records and elision per structure",
        {"structure"},
        workloadRows(logfreeWorkloads()),
        {{"FG records", base, "", logRecords()},
         {"SLPMT records", slpmt, "", logRecords()},
         {"eliminated", slpmt, base, records_cut},
         {"words elided", slpmt, "", statSum({"txn.logFreeWordsElided"})},
         {"lazy drains", slpmt, "", statSum({"txn.lazyForcedPersists"})}}};
    return {speedups, records};
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

std::vector<TableSpec>
sampleTables(const MatrixResult &)
{
    return {schemeTable(
        "Sampled sweep (200 ops, 64B values): speedup over FG",
        {"hashtable", "avl"}, sampleSchemes, speedup())};
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

std::vector<TableSpec>
mcscaleTables(const MatrixResult &)
{
    TableSpec speed{"Multi-core scalability: YCSB-upsert makespan, "
                    "hashtable, 800 ops split across cores, 25% shared "
                    "keys",
                    {"scheme"}};
    for (SchemeKind s : mcscaleSchemes)
        speed.rows.push_back({{schemeName(s)}, caseKey("hashtable", s)});
    for (std::size_t cores : mcscaleCores) {
        speed.columns.push_back(
            {std::to_string(cores) + (cores == 1 ? " core" : " cores"),
             "{}/c" + std::to_string(cores), "", cycleCount()});
    }
    speed.columns.push_back({"speedup @8", "{}/c8", "{}/c1", speedup()});

    TableSpec coh{
        "Multi-core coherence activity (SLPMT cells)",
        {"cores"},
        {},
        {{"probes", "{}", "", statSum({"multicore.probes"})},
         {"remote hits", "{}", "", statSum({"multicore.remoteHits"})},
         {"invalidations", "{}", "", statSum({"multicore.invalidations"})},
         {"downgrades", "{}", "", statSum({"multicore.downgrades"})},
         {"conflict aborts", "{}", "",
          statSum({"multicore.conflictAborts"})},
         {"remote drains", "{}", "",
          statSum({"multicore.remoteDrains.sigHit",
                   "multicore.remoteDrains.idObserved"})},
         {"ctx-switch drains", "{}", "",
          statSum({"multicore.ctxSwitchDrains"})}}};
    for (std::size_t cores : mcscaleCores) {
        coh.rows.push_back({{std::to_string(cores)},
                            caseKey("hashtable", SchemeKind::SLPMT,
                                    "c" + std::to_string(cores))});
    }
    return {speed, coh};
}

// -------------------------------------------------------------------
// Service: sharded KV service scaling under YCSB request mixes
// -------------------------------------------------------------------

const std::vector<SchemeKind> serviceSchemes = {SchemeKind::FG,
                                                SchemeKind::SLPMT};
const std::vector<std::size_t> serviceShards = {1, 2, 4};
const std::vector<unsigned> serviceMixes = {0, 1, 2};  // YCSB A, B, C

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
                    c.key = caseKey(
                        c.workload, s,
                        "s" + std::to_string(shards) + "/" +
                            (zipf ? "zipf" : "uni") + "/" +
                            ycsbMixName(static_cast<YcsbMix>(mix)));
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

/**
 * A service table: one row per scheme and shard count, and per request
 * distribution one column per named stat (headed "<dist> <label>") of
 * the cells that ran the YCSB mix named @p mix.
 */
TableSpec
serviceTable(std::string title, const std::string &mix,
             const std::vector<std::pair<std::string, std::string>> &stats)
{
    TableSpec table{std::move(title), {"scheme", "shards"}};
    for (SchemeKind s : serviceSchemes) {
        for (std::size_t shards : serviceShards) {
            table.rows.push_back(
                {{schemeName(s), std::to_string(shards)},
                 caseKey("hashtable", s, "s" + std::to_string(shards))});
        }
    }
    for (const char *dist : {"uni", "zipf"}) {
        for (const auto &[label, stat] : stats) {
            table.columns.push_back(
                {std::string(dist) + " " + label,
                 std::string("{}/") + dist + "/" + mix, "",
                 statSum({stat})});
        }
    }
    return table;
}

std::vector<TableSpec>
serviceTables(const MatrixResult &)
{
    std::vector<TableSpec> tables;
    for (unsigned mix : serviceMixes) {
        const std::string name = ycsbMixName(static_cast<YcsbMix>(mix));
        tables.push_back(serviceTable(
            "Service scaling (YCSB-" + name +
                ", 2000 requests over 1M keys): throughput "
                "(requests/Gcycle) and request latency (cycles)",
            name,
            {{"thr", "service.opsPerGcycle"},
             {"p50", "service.latency.p50"},
             {"p99", "service.latency.p99"},
             {"p999", "service.latency.p999"}}));
    }

    // Commit latency on the mutation-heavy mix: the tail the paper's
    // logging schemes move.
    tables.push_back(serviceTable(
        "Service commit latency (YCSB-A mutations, cycles)", "A",
        {{"p50", "service.commitLatency.p50"},
         {"p99", "service.commitLatency.p99"},
         {"p999", "service.commitLatency.p999"}}));
    return tables;
}

} // namespace

const std::vector<FigureSpec> &
figureRegistry()
{
    static const std::vector<FigureSpec> registry = {
        {"table1", "Table I: store/storeT semantics and cost",
         table1Cases, table1Tables, table1Run},
        {"fig4", "Figure 4: undo/redo persist order", fig4Cases,
         fig4Tables, fig4Run},
        {"fig8", "kernel speedups / traffic reduction over FG",
         fig8Cases, fig8Tables},
        {"fig9", "cache-line-granularity SLPMT vs ATOM baseline",
         fig9Cases, fig9Tables},
        {"fig10", "speedup sensitivity to the value size",
         valueSizeCases, fig10Tables},
        {"fig11", "traffic-reduction sensitivity to the value size",
         valueSizeCases, fig11Tables},
        {"fig12", "speedup sensitivity to the PM write latency",
         fig12Cases, fig12Tables},
        {"fig13", "compiler pass vs manual annotations", fig13Cases,
         fig13Tables},
        {"fig14", "PMKV backends at 256B and 16B values", fig14Cases,
         fig14Tables},
        {"inplace", "Section V-A in-place updates vs PM device class",
         inplaceCases, inplaceTables, inplaceRun},
        {"ablation", "speculative rounding, txn-ID count, log buffer",
         ablationCases, ablationTables},
        {"updates", "50/50 insert/update mix across schemes",
         updatesCases, updatesTables, updatesRun},
        {"sample", "small pinned sweep for quick CI runs", sampleCases,
         sampleTables},
        {"mcscale", "multi-core YCSB scalability (1/2/4/8 cores)",
         mcscaleCases, mcscaleTables},
        {"service", "sharded KV service scaling (shards x skew x mix)",
         serviceCases, serviceTables},
        {"logfree", "log-free-by-design indexes vs selective logging",
         logfreeCases, logfreeTables},
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
