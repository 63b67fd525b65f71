/**
 * @file
 * The stats registry: registration semantics (including the
 * wiring-bug panics), histogram bucket-edge behaviour, reset, the
 * flattened snapshot/delta algebra, the flat name and value dumps of
 * a registry and of whole machines, checkpoint restore, and the stable
 * JSON dump.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "core/pm_system.hh"
#include "sim/json.hh"
#include "stats/stats.hh"

namespace slpmt
{
namespace
{

TEST(Stats, CounterAccumulates)
{
    StatsRegistry reg;
    auto c = reg.counter("a.b");
    c++;
    c += 41;
    EXPECT_EQ(c.get(), 42u);
    EXPECT_EQ(reg.get("a.b"), 42u);
}

TEST(Stats, ReRegisteringSameKindSharesTheInstrument)
{
    StatsRegistry reg;
    auto c1 = reg.counter("shared");
    auto c2 = reg.counter("shared");
    c1 += 3;
    c2 += 4;
    EXPECT_EQ(reg.get("shared"), 7u);

    auto h1 = reg.histogram("hist", {1, 4});
    auto h2 = reg.histogram("hist", {1, 4});
    h1.record(2);
    h2.record(5);
    EXPECT_EQ(reg.get("hist.count"), 2u);
}

TEST(Stats, KindCollisionPanics)
{
    StatsRegistry reg;
    reg.counter("name");
    EXPECT_THROW(reg.gauge("name"), PanicError);
    EXPECT_THROW(reg.histogram("name", {1}), PanicError);

    reg.gauge("g");
    EXPECT_THROW(reg.counter("g"), PanicError);

    reg.histogram("h", {1, 2});
    EXPECT_THROW(reg.counter("h"), PanicError);
}

TEST(Stats, HistogramBoundsCollisionPanics)
{
    StatsRegistry reg;
    reg.histogram("h", {1, 2, 3});
    EXPECT_THROW(reg.histogram("h", {1, 2}), PanicError);
    EXPECT_THROW(reg.histogram("h", {1, 2, 4}), PanicError);
}

TEST(Stats, HistogramBoundsMustBeStrictlyIncreasing)
{
    StatsRegistry reg;
    EXPECT_THROW(reg.histogram("empty", {}), PanicError);
    EXPECT_THROW(reg.histogram("equal", {4, 4}), PanicError);
    EXPECT_THROW(reg.histogram("desc", {4, 2}), PanicError);
}

TEST(Stats, HistogramBucketEdgesAreInclusiveUpperBounds)
{
    StatsRegistry reg;
    auto h = reg.histogram("h", {10, 100});
    h.record(0);    // le10
    h.record(10);   // le10: bounds are inclusive
    h.record(11);   // le100
    h.record(100);  // le100
    h.record(101);  // inf
    EXPECT_EQ(reg.get("h.le10"), 2u);
    EXPECT_EQ(reg.get("h.le100"), 2u);
    EXPECT_EQ(reg.get("h.inf"), 1u);
    EXPECT_EQ(reg.get("h.count"), 5u);
    EXPECT_EQ(reg.get("h.sum"), 222u);
    EXPECT_EQ(h.get()->min, 0u);
    EXPECT_EQ(h.get()->max, 101u);
}

TEST(Stats, ResetZeroesValuesButKeepsRegistration)
{
    StatsRegistry reg;
    auto c = reg.counter("c");
    auto g = reg.gauge("g");
    auto h = reg.histogram("h", {8});
    c += 5;
    g.set(9);
    h.record(3);

    reg.reset();
    EXPECT_EQ(c.get(), 0u);
    EXPECT_EQ(g.get(), 0u);
    EXPECT_EQ(reg.get("h.count"), 0u);
    EXPECT_EQ(reg.get("h.le8"), 0u);

    // Handles stay live and the names still flatten.
    c += 2;
    h.record(1);
    const StatsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.at("c"), 2u);
    EXPECT_EQ(snap.at("h.count"), 1u);
    EXPECT_EQ(snap.count("g"), 1u);

    // Re-registering after reset still panics on a kind change.
    EXPECT_THROW(reg.counter("g"), PanicError);
}

TEST(Stats, SnapshotDeltaClampsAtZero)
{
    StatsRegistry reg;
    auto g = reg.gauge("g");
    auto c = reg.counter("c");
    g.set(10);
    const StatsSnapshot before = reg.snapshot();
    g.set(3);  // gauges may go down
    c += 7;
    const StatsSnapshot d = StatsRegistry::delta(before, reg.snapshot());
    EXPECT_EQ(d.at("g"), 0u);
    EXPECT_EQ(d.at("c"), 7u);
}

TEST(Stats, StatGroupPrefixesAndNests)
{
    StatsRegistry reg;
    StatGroup top(reg, "logbuf");
    StatGroup tier = top.group("tier0");
    auto c = tier.counter("records");
    c += 2;
    EXPECT_EQ(reg.get("logbuf.tier0.records"), 2u);
    EXPECT_EQ(tier.prefix(), "logbuf.tier0");
}

/** The flat name and value dumps of @p source zipped into one map;
 *  every name must be distinct. */
template <typename Source>
StatsSnapshot
zippedDumps(const Source &source)
{
    std::vector<std::string> names;
    std::vector<std::uint64_t> values;
    flatNames(source, names);
    flatValues(source, values);
    EXPECT_EQ(names.size(), values.size());
    StatsSnapshot zipped;
    for (std::size_t i = 0; i < std::min(names.size(), values.size()); ++i)
        EXPECT_TRUE(zipped.emplace(names[i], values[i]).second)
            << "stat '" << names[i] << "' dumped twice";
    return zipped;
}

TEST(Stats, FlatDumpsExpandHistogramsInWalkOrder)
{
    StatsRegistry reg;
    reg.counter("b") += 3;
    auto h = reg.histogram("a", {1, 4});
    h.record(1);
    h.record(9);
    std::vector<std::string> names;
    std::vector<std::uint64_t> values;
    flatNames(reg, names);
    flatValues(reg, values);
    EXPECT_EQ(names, (std::vector<std::string>{"a.le1", "a.le4", "a.inf",
                                               "a.count", "a.sum", "b"}));
    EXPECT_EQ(values, (std::vector<std::uint64_t>{1, 0, 1, 2, 10, 3}));
    EXPECT_EQ(zippedDumps(reg), reg.snapshot());
}

/** Four committed single-line transactions on @p ctx. */
void
commitFew(PmContext &ctx, std::uint64_t salt)
{
    const Addr base = ctx.heap().alloc(4 * cacheLineSize);
    for (std::uint64_t i = 0; i < 4; ++i) {
        ctx.txBegin();
        ctx.write<std::uint64_t>(base + i * cacheLineSize, salt + i);
        ctx.txCommit();
    }
}

TEST(Stats, PmSystemFlatDumpsZipToItsSnapshot)
{
    PmSystem sys;
    commitFew(sys, 1);
    const StatsSnapshot snap = sys.stats().snapshot();
    EXPECT_EQ(zippedDumps(sys.stats()), snap);
    EXPECT_EQ(snap.at("txn.committed"), 4u);
    EXPECT_GT(snap.at("txn.storeBytes.count"), 0u);
    EXPECT_GT(snap.at("pm.bytesWritten"), 0u);
    for (const auto &[name, value] : snap)
        EXPECT_FALSE(name.starts_with("multicore.")) << name;
}

TEST(Stats, McMachineFlatDumpsZipToItsSnapshot)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    McMachine machine(cfg);
    commitFew(machine.context(0), 1);
    commitFew(machine.context(1), 2);
    commitFew(machine.context(1), 3);
    const StatsSnapshot snap = machine.snapshot();
    EXPECT_EQ(zippedDumps(machine), snap);
    EXPECT_EQ(snap.at("core0.txn.committed"), 4u);
    EXPECT_EQ(snap.at("core1.txn.committed"), 8u);
    EXPECT_GT(snap.at("core1.txn.storeBytes.count"), 0u);
    EXPECT_TRUE(snap.count("multicore.probes"));
    EXPECT_GT(snap.at("pm.bytesWritten"), 0u);
}

/** Restore is by position: a state captured from a registry whose
 *  stats differ in name or number is rejected, though it holds no
 *  names, by the shape hash of the registrations. The order in which
 *  the stats were registered does not matter. */
TEST(Stats, RestoreNamesTheExpectedStat)
{
    StatsRegistry saved;
    saved.counter("a") += 1;
    saved.counter("b") += 2;
    saved.counter("c") += 3;
    const StatsRegistry::State state = saved.state();

    auto restoreInto = [&](std::initializer_list<const char *> names) {
        StatsRegistry reg;
        for (const char *name : names)
            reg.counter(name);
        try {
            reg.restore(state);
        } catch (const PanicError &e) {
            return std::string(e.what());
        }
        return "restored b=" + std::to_string(reg.get("b"));
    };
    const std::string rejected = "panic: stat registry shape mismatch";
    EXPECT_EQ(restoreInto({"a", "b", "c"}), "restored b=2");
    EXPECT_EQ(restoreInto({"c", "a", "b"}), "restored b=2");
    EXPECT_EQ(restoreInto({"a", "renamed", "c"}), rejected);
    EXPECT_EQ(restoreInto({"a", "b2", "c"}), rejected);
    EXPECT_EQ(restoreInto({"a", "c"}), rejected);
    EXPECT_EQ(restoreInto({"a", "b", "c", "d"}), rejected);
    EXPECT_EQ(restoreInto({"a", "b"}), rejected);
}

TEST(Stats, JsonKeysAreSortedAndStable)
{
    StatsRegistry reg;
    // Register out of order: the dump must sort.
    reg.counter("zeta") += 1;
    reg.histogram("mid.hist", {2}).record(1);
    reg.counter("alpha") += 3;

    const std::string json = reg.toJson();
    const std::size_t alpha = json.find("\"alpha\"");
    const std::size_t mid = json.find("\"mid.hist\"");
    const std::size_t zeta = json.find("\"zeta\"");
    ASSERT_NE(alpha, std::string::npos);
    ASSERT_NE(mid, std::string::npos);
    ASSERT_NE(zeta, std::string::npos);
    EXPECT_LT(alpha, mid);
    EXPECT_LT(mid, zeta);

    // Byte-identical across registries built in different orders.
    StatsRegistry reg2;
    reg2.counter("alpha") += 3;
    reg2.counter("zeta") += 1;
    reg2.histogram("mid.hist", {2}).record(1);
    EXPECT_EQ(json, reg2.toJson());

    // And the dump itself parses back.
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, &doc, &error)) << error;
    ASSERT_TRUE(doc.isObject());
    const JsonValue *a = doc.find("alpha");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->number, 3.0);
    const JsonValue *h = doc.find("mid.hist");
    ASSERT_NE(h, nullptr);
    EXPECT_TRUE(h->isObject());
    ASSERT_NE(h->find("count"), nullptr);
    EXPECT_EQ(h->find("count")->number, 1.0);
}

TEST(Stats, DefaultConstructedHandlesAreInert)
{
    StatsRegistry::Counter c;
    StatsRegistry::Gauge g;
    StatsRegistry::Histogram h;
    c += 5;
    g.set(2);
    h.record(1);
    EXPECT_EQ(c.get(), 0u);
    EXPECT_EQ(g.get(), 0u);
    EXPECT_EQ(h.get(), nullptr);
}

// ---- Percentile extraction ------------------------------------------
//
// Contract under test (stats.hh): percentile(num, den) returns the
// nearest-rank quantile interpolated within its holding bucket, and
// its error against the exact sorted-sample percentile is bounded by
// percentileErrorBound() — the width of the (min/max-clamped) bucket
// the quantile falls in. Geometric bounds with step factor f hence
// resolve any quantile to within a factor ~(f - 1) of its value;
// the service latency histograms use f = 1.25.

/** The exact nearest-rank percentile of a sample set. */
std::uint64_t
exactPercentile(std::vector<std::uint64_t> samples, std::uint64_t num,
                std::uint64_t den)
{
    std::sort(samples.begin(), samples.end());
    std::uint64_t rank = (samples.size() * num + den - 1) / den;
    rank = std::min<std::uint64_t>(
        std::max<std::uint64_t>(rank, 1), samples.size());
    return samples[rank - 1];
}

TEST(HistogramPercentile, EmptyHistogramReportsZero)
{
    StatsRegistry reg;
    auto h = reg.histogram("lat", {1, 2, 4});
    EXPECT_EQ(h.get()->percentile(99, 100), 0u);
    EXPECT_EQ(h.get()->percentileErrorBound(99, 100), 0u);
}

TEST(HistogramPercentile, ExactOnSingletonBuckets)
{
    // Consecutive-integer bounds make every bucket width zero, so
    // the estimate must equal the exact percentile.
    StatsRegistry reg;
    std::vector<std::uint64_t> bounds;
    for (std::uint64_t v = 0; v <= 64; ++v)
        bounds.push_back(v);
    auto h = reg.histogram("lat", bounds);

    Rng rng(mix64(99));
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t v = rng.below(64);
        samples.push_back(v);
        h.record(v);
    }
    for (const auto &[num, den] : std::vector<
             std::pair<std::uint64_t, std::uint64_t>>{
             {1, 100}, {50, 100}, {90, 100}, {99, 100}, {999, 1000}}) {
        EXPECT_EQ(h.get()->percentile(num, den),
                  exactPercentile(samples, num, den))
            << num << "/" << den;
        EXPECT_EQ(h.get()->percentileErrorBound(num, den), 0u);
    }
}

TEST(HistogramPercentile, ConstantSamplesCollapseTheBound)
{
    // min == max clamps the holding bucket to a point: every
    // percentile is exact with a zero bound.
    StatsRegistry reg;
    auto h = reg.histogram("lat", {10, 100, 1000});
    for (int i = 0; i < 32; ++i)
        h.record(500);
    EXPECT_EQ(h.get()->percentile(50, 100), 500u);
    EXPECT_EQ(h.get()->percentile(999, 1000), 500u);
    EXPECT_EQ(h.get()->percentileErrorBound(50, 100), 0u);
}

TEST(HistogramPercentile, WithinBucketBoundOnRandomizedInputs)
{
    // Geometric bounds (the service histogram shape) against exact
    // sorted-sample percentiles over several seeds and distributions.
    std::vector<std::uint64_t> bounds;
    for (std::uint64_t v = 64; v < 20'000'000; v += v / 4)
        bounds.push_back(v);

    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        StatsRegistry reg;
        auto h = reg.histogram("lat", bounds);
        Rng rng(mix64(seed));
        std::vector<std::uint64_t> samples;
        for (int i = 0; i < 4000; ++i) {
            // Log-uniform-ish: spans many buckets, like latencies.
            // Capped below the last bound — the overflow bucket's
            // width is the whole remaining range, so the relative
            // resolution claim below only holds for bounded buckets.
            const std::uint64_t v =
                (rng.next() % 1000) << (rng.next() % 14);
            samples.push_back(v);
            h.record(v);
        }
        for (const auto &[num, den] : std::vector<
                 std::pair<std::uint64_t, std::uint64_t>>{
                 {50, 100}, {90, 100}, {99, 100}, {999, 1000}}) {
            const std::uint64_t exact =
                exactPercentile(samples, num, den);
            const std::uint64_t est = h.get()->percentile(num, den);
            const std::uint64_t bound =
                h.get()->percentileErrorBound(num, den);
            const std::uint64_t diff =
                est > exact ? est - exact : exact - est;
            EXPECT_LE(diff, bound)
                << "seed " << seed << ", " << num << "/" << den
                << ": est " << est << " vs exact " << exact;
            // Geometric ~1.25x buckets: the bound itself stays within
            // ~30% of the estimated value (width/lo <= 0.27 for
            // interior buckets; clamping only shrinks it).
            if (est >= 64) {
                EXPECT_LE(static_cast<double>(bound),
                          0.30 * static_cast<double>(est))
                    << "seed " << seed << ", " << num << "/" << den;
            }
        }
    }
}

TEST(HistogramPercentile, EstimateIsMonotoneInTheQuantile)
{
    StatsRegistry reg;
    auto h = reg.histogram("lat", {10, 100, 1000, 10000});
    Rng rng(mix64(3));
    for (int i = 0; i < 1000; ++i)
        h.record(rng.below(20000));
    std::uint64_t prev = 0;
    for (std::uint64_t pct : {1, 10, 25, 50, 75, 90, 99}) {
        const std::uint64_t cur = h.get()->percentile(pct, 100);
        EXPECT_GE(cur, prev) << "p" << pct;
        prev = cur;
    }
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
