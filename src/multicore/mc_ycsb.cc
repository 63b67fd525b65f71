#include "multicore/mc_ycsb.hh"

#include <map>
#include <unordered_set>

#include "common/rng.hh"
#include "core/pm_system.hh"
#include "workloads/ycsb.hh"

namespace slpmt
{

namespace
{

/** Keys in the cross-core shared pool. */
constexpr std::size_t sharedKeys = 16;

} // namespace

std::vector<std::vector<McOpRecord>>
mcYcsbStreams(const McYcsbConfig &cfg)
{
    panicIfNot(cfg.numCores >= 1, "at least one core");

    // The shared key pool is drawn first so it is identical for every
    // core count with the same seed.
    Rng pool_rng(mix64(cfg.seed ^ 0x5a11ed'5a11ed5aULL));
    std::unordered_set<std::uint64_t> used;
    std::vector<std::uint64_t> shared;
    while (shared.size() < sharedKeys) {
        const std::uint64_t key = (pool_rng.next() >> 1) | 1ULL;
        if (used.insert(key).second)
            shared.push_back(key);
    }

    std::vector<std::vector<McOpRecord>> streams(cfg.numCores);
    for (std::size_t core = 0; core < cfg.numCores; ++core) {
        Rng rng(mix64(cfg.seed ^ (0x1000ULL + core)));
        auto &ops = streams[core];
        ops.reserve(cfg.opsPerCore);
        while (ops.size() < cfg.opsPerCore) {
            const bool hit_shared =
                !shared.empty() &&
                static_cast<unsigned>(rng.below(100)) < cfg.sharedPct;
            if (hit_shared) {
                const std::uint64_t key =
                    shared[rng.below(shared.size())];
                // A value unique to this (core, ordinal) touch, so the
                // final contents pin which upsert committed last.
                const std::uint64_t salt = mix64Salted(
                    (core << 32) | ops.size(), 0xc0deULL);
                ops.push_back({core, key,
                               ycsbValueFor(key ^ salt,
                                            cfg.valueBytes)});
            } else {
                const std::uint64_t key = (rng.next() >> 1) | 1ULL;
                if (!used.insert(key).second)
                    continue;  // keep private keys globally distinct
                ops.push_back({core, key,
                               ycsbValueFor(key, cfg.valueBytes)});
            }
        }
    }
    return streams;
}

namespace
{

/** Verify a structure against the last-write-wins image of a log. */
bool
verifyAgainstLog(Workload &wl, PmContext &ctx,
                 const std::vector<McOpRecord> &log, std::string *why)
{
    std::map<std::uint64_t, const std::vector<std::uint8_t> *> expected;
    for (const auto &op : log)
        expected[op.key] = &op.value;

    std::string inner;
    if (!wl.checkConsistency(ctx, &inner))
        return failCheck(why, "consistency: " + inner);
    std::vector<std::uint8_t> got;
    for (const auto &[key, value] : expected) {
        if (!wl.lookup(ctx, key, &got))
            return failCheck(why,
                             "missing key " + std::to_string(key));
        if (got != *value)
            return failCheck(why,
                             "value mismatch at key " +
                                 std::to_string(key));
    }
    if (wl.count(ctx) != expected.size())
        return failCheck(why, "count mismatch");
    return true;
}

} // namespace

McYcsbResult
runMcYcsb(const McYcsbConfig &cfg)
{
    SystemConfig sys_cfg = cfg.sys;
    sys_cfg.numCores = cfg.numCores;

    McMachine machine(sys_cfg);
    if (cfg.policy)
        machine.setAnnotationPolicy(cfg.policy);

    auto workload = makeWorkload(cfg.workload);
    workload->setup(machine.context(0));

    const auto streams = mcYcsbStreams(cfg);

    McYcsbResult result;
    std::vector<std::unique_ptr<McYcsbDriver>> drivers;
    std::vector<McCoreDriver *> ptrs;
    for (std::size_t i = 0; i < cfg.numCores; ++i) {
        drivers.push_back(std::make_unique<McYcsbDriver>(
            machine.context(i), *workload, streams[i],
            result.commitLog));
        ptrs.push_back(drivers.back().get());
    }

    // Setup ran on core 0, so per-core clocks are uneven; measure each
    // core's own delta and report the slowest (the makespan).
    std::vector<Cycles> start;
    for (std::size_t i = 0; i < cfg.numCores; ++i)
        start.push_back(machine.core(i).engine().now());
    result.statsBefore = machine.snapshot();

    const McScheduleResult run = runInterleaved(machine, ptrs,
                                                cfg.sched);
    result.quanta = run.quanta;
    result.crashed = run.crashed;
    result.statsAfter = machine.snapshot();
    for (std::size_t i = 0; i < cfg.numCores; ++i)
        result.makespan =
            std::max(result.makespan,
                     machine.core(i).engine().now() - start[i]);

    if (result.crashed) {
        result.failure = "crashed mid-stream";
        return result;
    }

    // Verification (outside the measured window). Lazy data stays
    // volatile — exactly as the single-core runner leaves it.
    result.verified = verifyAgainstLog(*workload, machine.context(0),
                                       result.commitLog,
                                       &result.failure);
    return result;
}

bool
replaySerialOracle(const McYcsbConfig &cfg,
                   const std::vector<McOpRecord> &commit_log,
                   std::string *why)
{
    SystemConfig sys_cfg = cfg.sys;
    sys_cfg.numCores = 1;

    PmSystem sys(sys_cfg);
    if (cfg.policy)
        sys.setAnnotationPolicy(cfg.policy);

    auto workload = makeWorkload(cfg.workload);
    workload->setup(sys);
    for (const auto &op : commit_log)
        if (!workload->update(sys, op.key, op.value))
            workload->insert(sys, op.key, op.value);
    return verifyAgainstLog(*workload, sys, commit_log, why);
}

} // namespace slpmt
