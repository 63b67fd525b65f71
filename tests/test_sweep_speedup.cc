/**
 * @file
 * Wall-clock gate on the sweep's worker pool: on a host that really
 * runs four threads at once, the 4-worker sweep must be clearly
 * faster than the serial one. Registered under the perf-smoke label
 * with RUN_SERIAL, so it never shares the machine with other tests,
 * and only under `ctest -C perf`, so plain `ctest` never runs it.
 *
 * The reported hardware thread count says nothing about how many
 * cores a (possibly throttled or shared) host actually grants, so a
 * fixed-work calibration measures that first and the test skips
 * below 3x measured parallelism.
 */

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "validate/crash_explorer.hh"

namespace slpmt
{
namespace
{

/** Wall milliseconds for @p threads threads each running the same
 *  fixed CPU-bound loop at once; best of three. */
double
burnMs(std::size_t threads)
{
    auto burn = [] {
        std::uint64_t x = 0;
        for (std::uint64_t i = 0; i < (std::uint64_t{1} << 24); ++i)
            x = mix64(x + i);
        volatile std::uint64_t sink = x;
        (void)sink;
    };
    double best = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> pool;
        for (std::size_t t = 0; t < threads; ++t)
            pool.emplace_back(burn);
        for (auto &t : pool)
            t.join();
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        best = trial == 0 ? ms : std::min(best, ms);
    }
    return best;
}

/** Work four threads got done per unit of wall time, relative to one
 *  thread: 4.0 on four free cores, about 1.0 on one. */
double
measuredParallelism()
{
    return 4.0 * burnMs(1) / burnMs(4);
}

TEST(CrashSweep, ParallelSweepSpeedsUpOnMulticore)
{
    const double parallelism = measuredParallelism();
    if (parallelism < 3.0)
        GTEST_SKIP() << "host runs 4 threads at " << parallelism
                     << "x measured parallelism; the gate needs 3x";

    CrashSweepConfig cfg;
    cfg.workload = "rbtree";
    cfg.mix.numOps = 120;
    cfg.mix.valueBytes = 256;
    cfg.mix.seed = 42;
    cfg.mix.insertPct = 80;
    cfg.mix.updatePct = 12;
    cfg.mix.removePct = 8;
    cfg.maxPoints = 200;
    cfg.tinyCache = true;
    cfg.workers = 1;
    const auto serial = runCrashSweep(cfg);
    cfg.workers = 4;
    const auto parallel = runCrashSweep(cfg);
    EXPECT_EQ(serial.violationsText(), parallel.violationsText());
    EXPECT_GE(serial.wallMs / parallel.wallMs, 2.0)
        << "serial " << serial.wallMs << " ms vs parallel "
        << parallel.wallMs << " ms (calibrated parallelism "
        << parallelism << "x)";
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
