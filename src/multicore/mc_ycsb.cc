#include "multicore/mc_ycsb.hh"

#include <unordered_set>

#include "common/rng.hh"
#include "core/pm_system.hh"
#include "multicore/verifier.hh"
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

Shadow
shadowOf(const std::vector<McOpRecord> &log)
{
    Shadow shadow;
    for (const auto &op : log)
        shadow[op.key] = op.value;
    return shadow;
}

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

    // Verification (outside the measured window).
    FirstFailure verdict;
    verifyStructure({machine, *workload}, shadowOf(result.commitLog),
                    verdict);
    result.verified = verdict.passed();
    result.failure = verdict.first;
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
    FirstFailure verdict;
    verifyStructure({sys, *workload}, shadowOf(commit_log), verdict);
    if (why)
        *why = verdict.first;
    return verdict.passed();
}

} // namespace slpmt
