/**
 * @file
 * The verifier (multicore/verifier.hh) against wrong expected states.
 *
 * Each case builds a correct structure, gives the verifier an expected
 * state that is wrong in one way, and pins every line it writes, so
 * the wording the crash-sweep reports and the figure failures carry
 * cannot drift. The broken-recovery sweeps (CrashSweep suite) cover
 * the invariant line.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/pm_system.hh"
#include "multicore/verifier.hh"
#include "workloads/factory.hh"
#include "workloads/ycsb.hh"

namespace slpmt
{
namespace
{

/** Every line, in order. */
struct Lines final : VerifySink
{
    void add(const std::string &line) override { all.push_back(line); }
    std::vector<std::string> all;
};

std::vector<std::uint8_t>
valueOf(std::uint64_t key)
{
    return ycsbValueFor(key, 32);
}

/** A hashtable on one machine holding @p keys, each with valueOf(). */
struct Structure
{
    explicit Structure(const std::vector<std::uint64_t> &keys)
        : wl(makeWorkload("hashtable"))
    {
        wl->setup(sys);
        for (std::uint64_t key : keys) {
            wl->insert(sys, key, valueOf(key));
            held[key] = valueOf(key);
        }
    }

    /** Verify against @p want; the lines written. */
    std::vector<std::string>
    verify(const Shadow &want, const Unwritten &crash = {})
    {
        Lines lines;
        verifyStructure({sys, *wl}, want, lines, crash);
        return lines.all;
    }

    PmSystem sys{SystemConfig{}};
    std::unique_ptr<Workload> wl;
    Shadow held;  //!< the right expected state
};

constexpr std::uint64_t a = 0x11, b = 0x23, c = 0x35, d = 0x47;

TEST(Verifier, TheRightStateWritesNothing)
{
    Structure st({a, b, c});
    EXPECT_TRUE(st.verify(st.held, {std::vector<std::uint64_t>{a, b, c, d},
                                    "uncommitted"})
                    .empty());
}

TEST(Verifier, CountOffByOne)
{
    Structure st({a, b, c});
    Shadow want = st.held;
    want.erase(c);
    EXPECT_EQ(st.verify(want),
              std::vector<std::string>{
                  "count mismatch: structure holds 3, oracle expects 2"});
}

TEST(Verifier, AnInterruptedFreshKeyMayAddOne)
{
    Structure st({a, b, c});
    Shadow want = st.held;
    want.erase(c);
    const InterruptedWrite fresh{c, valueOf(c)};
    EXPECT_TRUE(st.verify(want, {{}, "", &fresh}).empty());

    // One extra key is all it allows, and the line says so.
    want.erase(b);
    EXPECT_EQ(st.verify(want, {{}, "", &fresh}),
              std::vector<std::string>{
                  "count mismatch: structure holds 3, oracle expects 1 "
                  "(+1 allowed)"});
}

TEST(Verifier, MissingKey)
{
    Structure st({a, b, c});
    Shadow want = st.held;
    want[d] = valueOf(d);
    EXPECT_EQ(st.verify(want),
              (std::vector<std::string>{
                  "count mismatch: structure holds 3, oracle expects 4",
                  "committed key 0x47 missing"}));
}

TEST(Verifier, WrongValue)
{
    Structure st({a, b, c});
    Shadow want = st.held;
    want[b] = valueOf(d);
    EXPECT_EQ(st.verify(want),
              std::vector<std::string>{
                  "value mismatch for committed key 0x23"});
}

TEST(Verifier, InterruptedKeyHoldsNeitherOldNorNew)
{
    Structure st({a, b, c});
    Shadow want = st.held;
    want[b] = valueOf(a);
    const InterruptedWrite neither{b, valueOf(c)};
    EXPECT_EQ(st.verify(want, {{}, "", &neither}),
              std::vector<std::string>{
                  "interrupted key 0x23 holds neither old nor new value"});

    // Either value passes.
    const InterruptedWrite now{b, valueOf(b)};
    EXPECT_TRUE(st.verify(want, {{}, "", &now}).empty());
    want[b] = valueOf(b);
    EXPECT_TRUE(st.verify(want, {{}, "", &neither}).empty());
}

TEST(Verifier, InterruptedKeyLostItsCommittedValue)
{
    Structure st({a, b});
    Shadow want = st.held;
    want[c] = valueOf(c);
    const InterruptedWrite lost{c, valueOf(d)};
    EXPECT_EQ(st.verify(want, {{}, "", &lost}),
              (std::vector<std::string>{
                  "count mismatch: structure holds 2, oracle expects 3",
                  "interrupted key 0x35 lost its committed value"}));
}

TEST(Verifier, InterruptedFreshKeyWithATornValue)
{
    Structure st({a, b, c});
    Shadow want = st.held;
    want.erase(c);
    const InterruptedWrite torn{c, valueOf(d)};
    EXPECT_EQ(st.verify(want, {{}, "", &torn}),
              std::vector<std::string>{
                  "interrupted fresh key 0x35 visible with a torn value"});
}

TEST(Verifier, VisibleKeyThatMustBeAbsent)
{
    Structure st({a, b, c});
    Shadow want = st.held;
    want.erase(c);
    want[d] = valueOf(d);
    const std::vector<std::uint64_t> run_keys{a, b, c, d};
    EXPECT_EQ(st.verify(want, {run_keys, "uncommitted or removed"}),
              (std::vector<std::string>{
                  "committed key 0x47 missing",
                  "uncommitted or removed key 0x35 visible"}));

    // The interrupted write's own key is spared.
    want.erase(d);
    const InterruptedWrite fresh{c, valueOf(c)};
    EXPECT_TRUE(st.verify(want, {run_keys, "uncommitted", &fresh}).empty());
}

/** A sharded structure's lines name the shard: a prefix on the
 *  per-shard checks, a suffix on the absent keys. */
TEST(Verifier, ShardedLinesNameTheShard)
{
    // Shard 0 holds b, shard 1 holds a and c.
    std::vector<std::unique_ptr<McMachine>> machines;
    std::vector<std::unique_ptr<Workload>> wls;
    for (const auto &keys : {std::vector{b}, std::vector{a, c}}) {
        machines.push_back(std::make_unique<McMachine>(SystemConfig{}));
        wls.push_back(makeWorkload("hashtable"));
        wls.back()->setup(machines.back()->context(0));
        for (std::uint64_t key : keys)
            wls.back()->insert(machines.back()->context(0), key,
                               valueOf(key));
    }
    const auto shard_of = [](std::uint64_t key) -> std::size_t {
        return key == b ? 0 : 1;
    };
    Shadow want{{a, valueOf(a)}, {b, valueOf(c)}};
    Lines lines;
    verifyStructure({machines, wls, shard_of}, want, lines,
                    {std::vector<std::uint64_t>{a, b, c}, "future"});
    EXPECT_EQ(lines.all,
              (std::vector<std::string>{
                  "shard 0 value mismatch for committed key 0x23",
                  "shard 1 count mismatch: structure holds 2, oracle "
                  "expects 1",
                  "future key 0x35 visible on shard 1"}));
}

TEST(Verifier, FirstFailureKeepsTheFirstLine)
{
    Structure st({a, b, c});
    FirstFailure verdict;
    verifyStructure({st.sys, *st.wl}, st.held, verdict);
    EXPECT_TRUE(verdict.passed());

    Shadow want = st.held;
    want[a] = valueOf(b);
    want[d] = valueOf(d);
    verifyStructure({st.sys, *st.wl}, want, verdict);
    EXPECT_FALSE(verdict.passed());
    EXPECT_EQ(verdict.first,
              "count mismatch: structure holds 3, oracle expects 4");
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
