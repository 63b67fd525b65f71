/**
 * @file
 * The experiment orchestrator: matrix expansion and cell keys, the
 * schedule-independence guarantee (byte-identical JSON regardless of
 * worker count, for matrix cells and figures' own cell runners alike),
 * cross-component stats invariants on every scheme,
 * agreement with a direct runExperiment() call, the JSON parser,
 * baseline regression diffing, and the figure table renderer
 * (FigureTable) over a hand-built sweep.
 */

#include <gtest/gtest.h>

#include "sim/figures.hh"

namespace slpmt
{
namespace
{

/** Small but non-trivial sweep used by several tests. */
MatrixSpec
smallSpec()
{
    MatrixSpec spec;
    spec.workloads = {"hashtable", "avl"};
    spec.schemes = {SchemeKind::FG, SchemeKind::SLPMT};
    spec.numOps = 120;
    MatrixSpec out = spec;
    out.valueSizes = {64};
    return out;
}

TEST(Orchestrator, CaseKeyShape)
{
    EXPECT_EQ(caseKey("hashtable", SchemeKind::FG), "hashtable/FG");
    EXPECT_EQ(caseKey("avl", SchemeKind::SLPMT_CL, "64B"),
              "avl/SLPMT-CL/64B");
}

TEST(Orchestrator, ExpandMatrixEnumerationAndSuffixes)
{
    // Single-point extra axes: short keys, workload-major enumeration
    // with the scheme innermost.
    const auto flat = expandMatrix(smallSpec());
    ASSERT_EQ(flat.size(), 4u);
    EXPECT_EQ(flat[0].key, "hashtable/FG");
    EXPECT_EQ(flat[1].key, "hashtable/SLPMT");
    EXPECT_EQ(flat[2].key, "avl/FG");
    EXPECT_EQ(flat[3].key, "avl/SLPMT");
    EXPECT_EQ(flat[0].cfg.ycsb.valueBytes, 64u);
    EXPECT_EQ(flat[0].cfg.ycsb.numOps, 120u);

    // A swept axis shows up in the key; the others stay hidden.
    MatrixSpec swept = smallSpec();
    swept.workloads = {"hashtable"};
    swept.schemes = {SchemeKind::FG};
    swept.valueSizes = {16, 256};
    swept.pmWriteLatenciesNs = {500, 1100};
    const auto cases = expandMatrix(swept);
    ASSERT_EQ(cases.size(), 4u);
    EXPECT_EQ(cases[0].key, "hashtable/FG/16B/500ns");
    EXPECT_EQ(cases[1].key, "hashtable/FG/16B/1100ns");
    EXPECT_EQ(cases[2].key, "hashtable/FG/256B/500ns");
    EXPECT_EQ(cases[3].key, "hashtable/FG/256B/1100ns");

    MatrixSpec empty = smallSpec();
    empty.schemes.clear();
    EXPECT_THROW(expandMatrix(empty), PanicError);
}

TEST(Orchestrator, MissingCellIsFatal)
{
    MatrixResult result;
    EXPECT_EQ(result.find("nope/FG"), nullptr);
    EXPECT_THROW(result.get("nope/FG"), FatalError);
}

TEST(Orchestrator, ReportIsIdenticalAcrossWorkerCounts)
{
    // A matrix sweep, and figures that bring their own cell runner.
    const FigureSpec small{"small", "",
                           [] { return expandMatrix(smallSpec()); }, {}};
    for (const FigureSpec *fig :
         {&small, findFigure("table1"), findFigure("fig4")}) {
        ASSERT_NE(fig, nullptr);
        const auto cases = fig->cases();
        const MatrixResult serial = runCases(cases, 1, fig->run);
        const MatrixResult parallel = runCases(cases, 4, fig->run);

        std::string failures;
        EXPECT_TRUE(serial.allVerified(&failures)) << failures;

        // Byte-for-byte: schedule must not leak into the report, with
        // or without the full stats blocks.
        EXPECT_EQ(reportJson(fig->name, serial, false),
                  reportJson(fig->name, parallel, false));
        EXPECT_EQ(reportJson(fig->name, serial, true),
                  reportJson(fig->name, parallel, true));
    }
}

TEST(Orchestrator, MatchesDirectRunExperiment)
{
    const MatrixResult swept = runMatrix(smallSpec(), 2);

    ExperimentConfig cfg;
    cfg.scheme = SchemeKind::SLPMT;
    cfg.ycsb.numOps = 120;
    cfg.ycsb.valueBytes = 64;
    const ExperimentResult direct = runExperiment("avl", cfg);

    const ExperimentResult &cell = swept.get("avl/SLPMT");
    EXPECT_EQ(cell.cycles, direct.cycles);
    EXPECT_EQ(cell.pmWriteBytes, direct.pmWriteBytes);
    EXPECT_EQ(cell.logRecords, direct.logRecords);
    EXPECT_EQ(cell.stats, direct.stats);
}

/** Cross-component invariants every scheme must satisfy. */
void
checkStatsInvariants(const std::string &key, const ExperimentResult &res,
                     SchemeKind scheme)
{
    const StatsSnapshot &s = res.stats;
    auto v = [&s](const char *name) {
        auto it = s.find(name);
        return it == s.end() ? std::uint64_t(0) : it->second;
    };

    EXPECT_TRUE(res.verified) << key << ": " << res.failure;

    // Every begun transaction ends exactly once.
    EXPECT_EQ(v("txn.begun"), v("txn.committed") + v("txn.aborted"))
        << key;

    // PM traffic splits exactly into data and log bytes.
    EXPECT_EQ(v("pm.bytesWritten"),
              v("pm.dataBytesWritten") + v("pm.logBytesWritten"))
        << key;

    // All log traffic flows through the undo-log area's accounting.
    EXPECT_EQ(v("pm.logBytesWritten"),
              v("undolog.wireBytes") + v("undolog.truncateBytes"))
        << key;

    // With the tiered buffer in front, every wire byte the area
    // accepts was drained from a buffer tier.
    if (SchemeConfig::forKind(scheme).useLogBuffer) {
        EXPECT_EQ(v("logbuf.drainedWireBytes"), v("undolog.wireBytes"))
            << key;
    } else {
        EXPECT_EQ(v("logbuf.inserts"), 0u) << key;
    }

    // The lazy-drain taxonomy decomposes the forced-persist total.
    EXPECT_EQ(v("txn.lazyForcedPersists"),
              v("txn.lazyDrain.sigHit") + v("txn.lazyDrain.lineOwner") +
                  v("txn.lazyDrain.idWrap") +
                  v("txn.lazyDrain.eviction") +
                  v("txn.lazyDrain.explicit") +
                  v("txn.lazyDrain.remoteSigHit") +
                  v("txn.lazyDrain.remoteIdObserved"))
        << key;

    // Histogram totals agree with their event counters.
    EXPECT_EQ(v("txn.commitCycles.count"), v("txn.committed")) << key;
    EXPECT_EQ(v("txn.storeBytes.count"),
              v("txn.stores") + v("txn.storeTs"))
        << key;
}

TEST(Orchestrator, StatsInvariantsHoldOnEveryScheme)
{
    MatrixSpec spec;
    spec.workloads = {"hashtable", "kv-btree"};
    spec.schemes = {SchemeKind::FG,    SchemeKind::FG_LG,
                    SchemeKind::FG_LZ, SchemeKind::SLPMT,
                    SchemeKind::SLPMT_CL, SchemeKind::ATOM,
                    SchemeKind::EDE};
    spec.valueSizes = {64};
    spec.numOps = 120;
    const MatrixResult result = runMatrix(spec, 0);

    for (std::size_t i = 0; i < result.cases.size(); ++i)
        checkStatsInvariants(result.cases[i].key, result.results[i],
                             result.cases[i].cfg.scheme);
}

TEST(Json, ParsesScalarsAndStructure)
{
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(
        "{\"a\": [1, -2.5, true, false, null], \"b\": {\"c\": \"x\\n\"}}",
        &doc, &error))
        << error;
    ASSERT_TRUE(doc.isObject());
    const JsonValue *a = doc.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->array.size(), 5u);
    EXPECT_EQ(a->array[0].number, 1.0);
    EXPECT_EQ(a->array[1].number, -2.5);
    EXPECT_TRUE(a->array[2].boolean);
    EXPECT_FALSE(a->array[3].boolean);
    EXPECT_EQ(a->array[4].type, JsonValue::Type::Null);
    const JsonValue *b = doc.find("b");
    ASSERT_NE(b, nullptr);
    const JsonValue *c = b->find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->string, "x\n");
}

TEST(Json, RejectsMalformedInput)
{
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(parseJson("", &doc, &error));
    EXPECT_FALSE(parseJson("{\"a\": }", &doc, &error));
    EXPECT_FALSE(parseJson("[1, 2,]", &doc, &error));
    EXPECT_FALSE(parseJson("{} trailing", &doc, &error));
    EXPECT_FALSE(parseJson("\"unterminated", &doc, &error));
    EXPECT_FALSE(error.empty());
}

TEST(Json, RoundTripsAnOrchestratorReport)
{
    MatrixSpec spec = smallSpec();
    spec.workloads = {"hashtable"};
    const MatrixResult result = runMatrix(spec, 2);
    const std::string json = reportJson("rt", result, true);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, &doc, &error)) << error;
    EXPECT_EQ(doc.find("schema")->string, "slpmt-bench-1");
    EXPECT_EQ(doc.find("report")->string, "rt");
    const JsonValue *cells = doc.find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_TRUE(cells->isObject());
    EXPECT_EQ(cells->object.size(), result.cases.size());

    const JsonValue *cell = cells->find("hashtable/SLPMT");
    ASSERT_NE(cell, nullptr);
    const ExperimentResult &res = result.get("hashtable/SLPMT");
    EXPECT_EQ(cell->find("cycles")->number,
              static_cast<double>(res.cycles));
    EXPECT_EQ(cell->find("verified")->boolean, true);
    const JsonValue *stats = cell->find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->object.size(), res.stats.size());
}

TEST(Orchestrator, BaselineDiffFlagsOnlyRealRegressions)
{
    const MatrixResult result = runMatrix(smallSpec(), 2);

    // Against its own report: clean.
    JsonValue self;
    std::string error;
    ASSERT_TRUE(
        parseJson(reportJson("small", result, false), &self, &error))
        << error;
    const BaselineDiff clean =
        diffAgainstBaseline(self, "small", result, 0.05);
    EXPECT_TRUE(clean.ok());
    EXPECT_EQ(clean.cellsCompared, result.cases.size());
    EXPECT_EQ(clean.cellsMissingInBaseline, 0u);

    // Shrink one baseline cycle count: the current run now exceeds
    // the 5% threshold on that one metric only.
    JsonValue tampered = self;
    JsonValue &cell =
        tampered.object.at("cells").object.at("hashtable/SLPMT");
    cell.object.at("cycles").number *= 0.5;
    const BaselineDiff diff =
        diffAgainstBaseline(tampered, "small", result, 0.05);
    ASSERT_EQ(diff.regressions.size(), 1u);
    EXPECT_EQ(diff.regressions[0].cell, "hashtable/SLPMT");
    EXPECT_EQ(diff.regressions[0].metric, "cycles");
    EXPECT_NEAR(diff.regressions[0].change(), 1.0, 0.01);

    // A generous threshold absorbs the same difference.
    EXPECT_TRUE(
        diffAgainstBaseline(tampered, "small", result, 1.5).ok());

    // Multi-report documents are searched by report name; a missing
    // name compares nothing instead of failing.
    JsonValue multi;
    ASSERT_TRUE(parseJson(
        "{\"schema\":\"slpmt-bench-1\",\"reports\":[" +
            reportJson("other", result, false) + "," +
            reportJson("small", result, false) + "]}",
        &multi, &error))
        << error;
    EXPECT_EQ(diffAgainstBaseline(multi, "small", result, 0.05)
                  .cellsCompared,
              result.cases.size());
    const BaselineDiff unmatched =
        diffAgainstBaseline(self, "absent", result, 0.05);
    EXPECT_EQ(unmatched.cellsCompared, 0u);
    EXPECT_EQ(unmatched.cellsMissingInBaseline, result.cases.size());
}

/**
 * A hand-built sweep for the table renderer, so every printed number
 * is known: workloads a and b under FG and SLPMT, plus workload w at
 * two value sizes. b/SLPMT failed verification.
 */
MatrixResult
tableResult()
{
    MatrixResult result;
    auto add = [&](const std::string &key, Cycles cycles, Bytes bytes,
                   std::uint64_t records, StatsSnapshot stats,
                   bool verified = true) {
        ExperimentResult cell;
        cell.cycles = cycles;
        cell.pmWriteBytes = bytes;
        cell.logRecords = records;
        cell.stats = std::move(stats);
        cell.verified = verified;
        result.cases.push_back({key, key.substr(0, key.find('/')), {}});
        result.results.push_back(std::move(cell));
    };
    add("a/FG", 1000, 4096, 10, {{"x", 3}, {"y", 4}});
    add("a/SLPMT", 500, 1024, 4, {{"x", 5}, {"y", 6}});
    add("b/FG", 900, 2048, 8, {{"x", 1}, {"y", 1}});
    add("b/SLPMT", 600, 1536, 2, {{"x", 0}, {"y", 2}}, false);
    add("w/FG/16B", 800, 0, 0, {});
    add("w/SLPMT/16B", 400, 0, 0, {});
    add("w/FG/32B", 900, 0, 0, {});
    add("w/SLPMT/32B", 600, 0, 0, {});
    return result;
}

/** Rows a and b, labelled and keyed by the workload. */
const std::vector<TableRow> tableRows = {{{"a"}, "a"}, {{"b"}, "b"}};

TEST(FigureTable, RendersEveryMetricAndFormat)
{
    const Metric both_verified{
        [](const ExperimentResult &c, const ExperimentResult &base) {
            return c.verified && base.verified;
        },
        NumberFormat::Check};
    const TableSpec spec{
        "metrics",
        {"bench"},
        tableRows,
        {{"speedup", "{}/SLPMT", "{}/FG", speedup()},
         {"cut", "{}/SLPMT", "{}/FG", trafficCut()},
         {"KB", "{}/SLPMT", "", kilobytes()},
         {"cycles", "{}/SLPMT", "", cycleCount()},
         {"records", "{}/SLPMT", "", logRecords()},
         {"x+y", "{}/SLPMT", "", statSum({"x", "y"})},
         {"ok", "{}/SLPMT", "{}/FG", both_verified}}};
    EXPECT_EQ(renderTable(spec, tableResult()),
              "\n== metrics ==\n"
              "bench  speedup  cut    KB     cycles  records  x+y  ok      \n"
              "------------------------------------------------------------\n"
              "a      2.00x    75.0%  1.000  500     4        11   ok      \n"
              "b      1.50x    25.0%  1.500  600     2        2    FAILED  \n");
}

TEST(FigureTable, FootersSummarizeTheirColumns)
{
    TableSpec spec{"footers",
                   {"bench"},
                   tableRows,
                   {{"geo", "{}/SLPMT", "{}/FG", speedup(), Footer::Geomean},
                    {"mean", "{}/SLPMT", "{}/FG", trafficCut(), Footer::Mean},
                    {"none", "{}/SLPMT", "", cycleCount()}}};
    EXPECT_EQ(renderTable(spec, tableResult()),
              "\n== footers ==\n"
              "bench         geo    mean   none  \n"
              "----------------------------------\n"
              "a             2.00x  75.0%  500   \n"
              "b             1.50x  25.0%  600   \n"
              "geomean/mean  1.73x  50.0%        \n");

    // One footer kind names the last row by itself.
    auto last_line = [](const std::string &text) {
        const std::size_t end = text.size() - 1;
        return text.substr(text.rfind('\n', end - 1) + 1);
    };
    spec.columns.pop_back();
    spec.columns.pop_back();
    EXPECT_EQ(last_line(renderTable(spec, tableResult())),
              "geomean  1.73x  \n");
    spec.columns = {{"mean", "{}/SLPMT", "{}/FG", trafficCut(),
                     Footer::Mean}};
    EXPECT_EQ(last_line(renderTable(spec, tableResult())),
              "mean   50.0%  \n");
}

TEST(FigureTable, RowKeyFillsTheColumnKeys)
{
    // "{}" as a key suffix, beside two label columns; the prefix form
    // ("{}/SLPMT") is in the tests above.
    const TableSpec spec{
        "keys",
        {"scheme", "size"},
        {{{"SLPMT", "16B"}, "16B"}, {{"SLPMT", "32B"}, "32B"}},
        {{"speedup", "w/SLPMT/{}", "w/FG/{}", speedup()}}};
    EXPECT_EQ(renderTable(spec, tableResult()),
              "\n== keys ==\n"
              "scheme  size  speedup  \n"
              "-----------------------\n"
              "SLPMT   16B   2.00x    \n"
              "SLPMT   32B   1.50x    \n");
}

TEST(FigureTable, LabelOnlyRows)
{
    const TableSpec spec{"ledger",
                         {"#", "kind"},
                         {{{"0", "log record"}}, {{"1", "marker"}}}};
    EXPECT_EQ(renderTable(spec, MatrixResult{}),
              "\n== ledger ==\n"
              "#  kind        \n"
              "---------------\n"
              "0  log record  \n"
              "1  marker      \n");
}

TEST(FigureTable, MissingCellOrStatIsFatal)
{
    const MatrixResult result = tableResult();
    const TableSpec no_cell{
        "t", {"bench"}, tableRows, {{"x", "{}/ATOM", "", cycleCount()}}};
    EXPECT_THROW(renderTable(no_cell, result), FatalError);
    const TableSpec no_base{
        "t", {"bench"}, tableRows, {{"x", "{}/SLPMT", "{}/EDE", speedup()}}};
    EXPECT_THROW(renderTable(no_base, result), FatalError);
    const TableSpec no_stat{"t",
                            {"bench"},
                            tableRows,
                            {{"x", "{}/SLPMT", "", statSum({"x", "z"})}}};
    EXPECT_THROW(renderTable(no_stat, result), FatalError);
}

TEST(FigureTable, RowWidthMismatchPanics)
{
    const TableSpec short_row{"t", {"scheme", "size"}, tableRows};
    EXPECT_THROW(renderTable(short_row, tableResult()), PanicError);
    const TableSpec long_row{"t", {}, tableRows};
    EXPECT_THROW(renderTable(long_row, tableResult()), PanicError);
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
