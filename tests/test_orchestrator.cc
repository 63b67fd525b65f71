/**
 * @file
 * The experiment orchestrator: matrix expansion and cell keys, the
 * schedule-independence guarantee (byte-identical JSON regardless of
 * worker count, for matrix cells and figures' own cell runners alike),
 * cross-component stats invariants on every scheme,
 * agreement with a direct runExperiment() call, the JSON parser, and
 * baseline regression diffing.
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

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
