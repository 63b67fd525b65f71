/**
 * @file
 * crash-sweep: exhaustive checkpoint-and-fork crash sweeps on three
 * targets, all with tiny caches so mid-transaction evictions reach PM.
 *
 *  - core: hashtable SLPMT, insert/update mix 10/90/0, 500 ops, 256 B
 *    values (runCrashSweep);
 *  - mc: 2 cores x 40 interleaved upserts (runMcCrashSweep);
 *  - service: 2 shards, YCSB-A, 140 preload + 100 requests
 *    (runServiceCrashSweep).
 *
 * Every sweep runs with workers = 1 and explores every store. The core
 * and mc sweeps get a point budget above any store count instead of 0
 * ("all"): same points, same report, but the two-phase path, which runs
 * on the calling thread, where the pipelined exhaustive path would
 * overlap the master run with the tail worker on a second thread and
 * make the host time depend on a second free core. The set-up phase
 * dry-runs the core
 * trace and eleven more traces of the same shape under SLPMT and FG (the
 * simulated metrics; the swept trace's store count must match
 * countTraceStores) and counts the mc trace's stores. The
 * traced run also drives a sample of core points itself through
 * capture -> restore -> armCrashAfterStores -> tail replay ->
 * recoverHardware -> Workload::recover -> oracle, and checks each
 * against the sweep report. The mc and service sweeps expose no
 * per-phase entry point, so only their whole sweep call is timed.
 */

#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "bench.hh"
#include "checkpoint/checkpoint.hh"
#include "core/pm_system.hh"
#include "multicore/mc_crash.hh"
#include "service/service_crash.hh"
#include "validate/crash_explorer.hh"
#include "workloads/factory.hh"

namespace perfbench
{
namespace
{

constexpr std::size_t coreOps = 500;

/** A point budget no trace reaches: every store is a crash point. */
constexpr std::size_t everyStore = std::numeric_limits<std::size_t>::max();
constexpr std::size_t samplePoints = 48;

/** Core-shaped traces dry-run for the simulated metrics; the first is
 *  the swept one. Twelve give the p99 latency 60 samples beyond it and
 *  hold the seed-to-seed spread of the simulated metrics to 2% (with
 *  four it was 5% on latency_p50_cycles). */
constexpr std::size_t simTraces = 12;

using Shadow = std::map<std::uint64_t, std::vector<std::uint8_t>>;

slpmt::CrashSweepConfig
coreConfig(std::uint64_t seed, std::size_t trace = 0)
{
    slpmt::CrashSweepConfig cfg;
    cfg.scheme = slpmt::SchemeKind::SLPMT;
    cfg.workload = "hashtable";
    cfg.mix.numOps = coreOps;
    cfg.mix.valueBytes = 256;
    cfg.mix.seed = inputSeed(seed, trace == 0 ? 0 : 2 + trace);
    cfg.mix.insertPct = 10;
    cfg.mix.updatePct = 90;
    cfg.mix.removePct = 0;
    cfg.tinyCache = true;
    cfg.workers = 1;
    cfg.maxPoints = everyStore;
    return cfg;
}

slpmt::McCrashSweepConfig
mcConfig(std::uint64_t seed)
{
    slpmt::McCrashSweepConfig cfg;
    cfg.scheme = slpmt::SchemeKind::SLPMT;
    cfg.run.numCores = 2;
    cfg.run.opsPerCore = 40;
    cfg.run.seed = inputSeed(seed, 1);
    cfg.run.sched.seed = inputSeed(seed, 1);
    cfg.tinyCache = true;
    cfg.workers = 1;
    cfg.maxPoints = everyStore;
    return cfg;
}

slpmt::ServiceCrashConfig
serviceConfig(std::uint64_t seed)
{
    slpmt::ServiceCrashConfig cfg;
    cfg.scheme = slpmt::SchemeKind::SLPMT;
    cfg.numShards = 2;
    cfg.load.mix = slpmt::YcsbMix::A;
    // 140 records put both shards' hashtables past their first resize
    // (48 keys) for every seed. At 100 the shard split lands on either
    // side of 48, and the sweep is 1.2k or 1.6k points by seed.
    cfg.load.preloadRecords = 140;
    cfg.load.numOps = 100;
    cfg.load.seed = inputSeed(seed, 2);
    cfg.tinyCache = true;
    cfg.workers = 1;
    return cfg;
}

/** The sweeps' tiny-cache machine for the core target. */
slpmt::SystemConfig
tinySystem(slpmt::SchemeKind scheme)
{
    slpmt::SystemConfig sc;
    sc.scheme = slpmt::SchemeConfig::forKind(scheme);
    sc.hierarchy.l1 = slpmt::CacheConfig{"L1", 1024, 2, 4};
    sc.hierarchy.l2 = slpmt::CacheConfig{"L2", 2048, 2, 12};
    sc.hierarchy.l3 = slpmt::CacheConfig{"L3", 4096, 4, 40};
    return sc;
}

/** Apply one trace op, keeping the shadow in step (crash_explorer's
 *  rule: updates and removes count only when they took effect). */
void
applyOp(slpmt::PmSystem &sys, slpmt::Workload &wl,
        const slpmt::YcsbMixedOp &op, Shadow &shadow)
{
    switch (op.kind) {
      case slpmt::YcsbOpKind::Insert:
        wl.insert(sys, op.key, op.value);
        shadow[op.key] = op.value;
        break;
      case slpmt::YcsbOpKind::Update:
        if (wl.update(sys, op.key, op.value))
            shadow[op.key] = op.value;
        break;
      case slpmt::YcsbOpKind::Remove:
        if (wl.remove(sys, op.key))
            shadow.erase(op.key);
        break;
    }
}

/** What a dry run of the core trace on one scheme measured. */
struct DryRun
{
    slpmt::Cycles cycles = 0;
    double pmBytes = 0;
    std::uint64_t stores = 0;
    slpmt::StatsSnapshot delta;
};

DryRun
dryRun(const std::vector<slpmt::YcsbMixedOp> &trace,
       slpmt::SchemeKind scheme, Tracer &tr, std::vector<double> *latencies)
{
    DryRun out;
    slpmt::PmSystem sys(tinySystem(scheme));
    auto wl = slpmt::makeWorkload("hashtable");
    wl->setup(sys);
    const slpmt::StatsSnapshot before = sys.stats().snapshot();
    const slpmt::Cycles c0 = sys.cycles();
    const std::uint64_t s0 = sys.engine().storesExecuted();
    Shadow shadow;
    std::uint64_t id = 0;
    for (const slpmt::YcsbMixedOp &op : trace) {
        Tracer::Scope o(tr, "workload.op", id++);
        const slpmt::Cycles start = sys.cycles();
        applyOp(sys, *wl, op, shadow);
        if (latencies)
            latencies->push_back(static_cast<double>(sys.cycles() - start));
    }
    out.cycles = sys.cycles() - c0;
    out.stores = sys.engine().storesExecuted() - s0;
    out.delta = slpmt::StatsRegistry::delta(before, sys.stats().snapshot());
    out.pmBytes = sumStat(out.delta, "pm.bytesWritten");
    return out;
}

/** The sampled crash points: evenly spread over 1..stores. */
std::vector<std::uint64_t>
sampledPoints(std::uint64_t stores)
{
    std::set<std::uint64_t> points;
    for (std::size_t j = 0; j < samplePoints; ++j)
        points.insert(1 + j * stores / samplePoints);
    return {points.begin(), points.end()};
}

struct ChainEntry
{
    std::shared_ptr<const slpmt::MachineCheckpoint> machine;
    std::shared_ptr<const slpmt::Workload> workload;
    Shadow shadow;
    std::size_t nextOp = 0;
    std::uint64_t storesAt = 0;
};

/**
 * Drive the sampled core points through the public phase calls, timing
 * each phase, and compare every outcome with the sweep report's (kept
 * in @p ref.sim as "sample.K.*").
 */
void
driveSample(std::uint64_t seed, Tracer &tr, const PassResult &ref,
            PassResult &out)
{
    const slpmt::CrashSweepConfig cfg = coreConfig(seed);
    const auto trace = slpmt::ycsbMixedLoad(cfg.mix);
    const slpmt::SystemConfig sys_cfg = tinySystem(cfg.scheme);
    Tracer::Scope root(tr, "sample");

    // The master run with its checkpoint chain (buildCheckpointChain's
    // drop rule).
    std::vector<ChainEntry> chain;
    double pages_held = 0;
    {
        slpmt::PmSystem sys(sys_cfg);
        auto wl = slpmt::makeWorkload(cfg.workload);
        wl->setup(sys);
        const std::uint64_t base = sys.engine().storesExecuted();
        Shadow shadow;
        auto drop = [&](std::size_t next_op) {
            ChainEntry e;
            {
                Tracer::Scope c(tr, "checkpoint.capture", chain.size());
                e.machine = std::make_shared<const slpmt::MachineCheckpoint>(
                    slpmt::MachineCheckpoint::capture(sys));
            }
            pages_held += static_cast<double>(e.machine->pagesHeld());
            e.workload = wl->clone();
            e.shadow = shadow;
            e.nextOp = next_op;
            e.storesAt = sys.engine().storesExecuted() - base;
            chain.push_back(std::move(e));
        };
        drop(0);
        for (std::size_t i = 0; i < trace.size(); ++i) {
            applyOp(sys, *wl, trace[i], shadow);
            const std::uint64_t stores = sys.engine().storesExecuted() - base;
            if (i + 1 < trace.size() &&
                stores - chain.back().storesAt >= cfg.checkpointInterval)
                drop(i + 1);
        }
    }
    out.counts["checkpoint.captures"] = static_cast<double>(chain.size());
    out.counts["checkpoint.pages_held"] = pages_held;

    std::set<std::uint64_t> trace_keys;
    for (const auto &op : trace)
        trace_keys.insert(op.key);

    const auto stores = static_cast<std::uint64_t>(
        ref.sim.at("sweep.points.core") - 1);
    for (std::uint64_t k : sampledPoints(stores)) {
        Tracer::Scope p(tr, "sample.point", k);
        const ChainEntry *base = &chain.front();
        for (const ChainEntry &e : chain)
            if (e.storesAt < k)
                base = &e;
        slpmt::PmSystem sys(sys_cfg);
        std::unique_ptr<slpmt::Workload> wl;
        {
            Tracer::Scope r(tr, "checkpoint.restore", k);
            base->machine->restore(sys);
            wl = base->workload->clone();
        }
        Shadow shadow = base->shadow;
        std::size_t committed = base->nextOp;
        bool crashed = false;
        {
            Tracer::Scope t(tr, "sweep.tail_replay", k);
            sys.armCrashAfterStores(k - base->storesAt);
            for (std::size_t i = base->nextOp; i < trace.size(); ++i) {
                try {
                    applyOp(sys, *wl, trace[i], shadow);
                } catch (const slpmt::CrashInjected &) {
                    crashed = true;
                    break;
                }
                ++committed;
            }
            sys.armCrashAfterStores(0);
            if (!crashed)
                sys.crash();
        }
        std::size_t replayed;
        {
            Tracer::Scope h(tr, "sweep.recover_hw", k);
            replayed = sys.recoverHardware();
        }
        {
            Tracer::Scope u(tr, "sweep.recover_user", k);
            wl->recover(sys);
        }
        bool ok;
        {
            Tracer::Scope o(tr, "sweep.oracle", k);
            std::string why;
            ok = wl->checkConsistency(sys, &why) &&
                 wl->count(sys) == shadow.size();
            std::vector<std::uint8_t> got;
            for (const auto &[key, value] : shadow) {
                if (!ok)
                    break;
                ok = wl->lookup(sys, key, &got) && got == value;
            }
            for (std::uint64_t key : trace_keys)
                if (ok && !shadow.count(key))
                    ok = !wl->lookup(sys, key, nullptr);
        }

        const std::string key = "sample." + std::to_string(k);
        ++out.attempted;
        if (!ok)
            out.fail("sampled core point " + std::to_string(k) +
                     " failed the oracle");
        else if (ref.sim.at(key + ".replayed") !=
                     static_cast<double>(replayed) ||
                 ref.sim.at(key + ".committed") !=
                     static_cast<double>(committed) ||
                 ref.sim.at(key + ".fired") != (crashed ? 1.0 : 0.0))
            out.fail("sampled core point " + std::to_string(k) +
                     " differs from the runCrashSweep report");
    }
}

} // namespace

PassResult
crashSweepPass(std::uint64_t seed, Tracer &tr)
{
    PassResult pass;
    const double t0 = wallSeconds();
    const double cpu0 = cpuSeconds();
    const slpmt::CrashSweepConfig core_cfg = coreConfig(seed);
    const slpmt::McCrashSweepConfig mc_cfg = mcConfig(seed);
    const slpmt::ServiceCrashConfig svc_cfg = serviceConfig(seed);

    std::uint64_t core_stores = 0;
    std::uint64_t mc_stores = 0;
    {
        Tracer::Scope pass_span(tr, "pass");
        double slpmt_cycles = 0;
        double slpmt_bytes = 0;
        double log_speedup = 0;
        slpmt::StatsSnapshot slpmt_delta;
        {
            SetupTimer setup(pass);
            Tracer::Scope s(tr, "setup");
            pass.latencies.reserve(simTraces * coreOps);
            for (std::size_t i = 0; i < simTraces; ++i) {
                std::vector<slpmt::YcsbMixedOp> trace;
                {
                    Tracer::Scope g(tr, "loadgen.generate", i);
                    trace = slpmt::ycsbMixedLoad(coreConfig(seed, i).mix);
                }
                Tracer::Scope d(tr, "sweep.dry_run", i);
                const DryRun fg =
                    dryRun(trace, slpmt::SchemeKind::FG, tr, nullptr);
                const DryRun sl = dryRun(trace, slpmt::SchemeKind::SLPMT, tr,
                                         &pass.latencies);
                slpmt_cycles += static_cast<double>(sl.cycles);
                slpmt_bytes += sl.pmBytes;
                log_speedup += std::log(static_cast<double>(fg.cycles) /
                                        static_cast<double>(sl.cycles));
                accumulate(slpmt_delta, sl.delta);
                if (i == 0) {
                    core_stores = slpmt::countTraceStores(core_cfg);
                    if (sl.stores != core_stores)
                        pass.fail("dry run counted " +
                                  std::to_string(sl.stores) +
                                  " stores, countTraceStores " +
                                  std::to_string(core_stores));
                }
            }
            Tracer::Scope d(tr, "sweep.dry_run");
            mc_stores = slpmt::countMcTraceStores(mc_cfg);
        }
        const auto ops = static_cast<double>(simTraces * coreOps);
        pass.sim["sim_cycles_per_op"] = slpmt_cycles / ops;
        pass.sim["pm_write_bytes_per_op"] = slpmt_bytes / ops;
        pass.sim["slpmt_speedup_vs_fg"] =
            std::exp(log_speedup / static_cast<double>(simTraces));
        addLayerMetrics(slpmt_delta, ops, pass.sim);

        // Measured window: the three sweeps, each timed on its own.
        Tracer::Scope m(tr, "measured");
        MeasuredWindow window;
        double log_pps = 0;
        double points_total = 0;
        double replayed_total = 0;
        auto finish = [&](const char *target, std::size_t points,
                          std::size_t violations, std::uint64_t replayed,
                          double cpu_s, std::uint64_t expect_points) {
            const std::string t = target;
            pass.sim["sweep.points." + t] = static_cast<double>(points);
            pass.host["sweep.points_per_s." + t] =
                static_cast<double>(points) / cpu_s;
            log_pps += std::log(static_cast<double>(points) / cpu_s);
            points_total += static_cast<double>(points);
            replayed_total += static_cast<double>(replayed);
            pass.attempted += points;
            if (violations) {
                pass.failed += violations;
                pass.failures.push_back(t + " sweep reported " +
                                        std::to_string(violations) +
                                        " violations");
            }
            if (points != expect_points)
                pass.fail(t + " sweep explored " + std::to_string(points) +
                          " points, expected " +
                          std::to_string(expect_points));
        };

        slpmt::CrashSweepReport core;
        {
            Tracer::Scope s(tr, "sweep.core");
            const double c0 = cpuSeconds();
            core = slpmt::runCrashSweep(core_cfg);
            finish("core", core.pointsExplored(), core.violationCount(),
                   core.replayedRecordsTotal(), cpuSeconds() - c0,
                   core_stores + 1);
        }
        {
            Tracer::Scope s(tr, "sweep.mc");
            const double c0 = cpuSeconds();
            const slpmt::McCrashSweepReport mc = slpmt::runMcCrashSweep(mc_cfg);
            finish("mc", mc.pointsExplored(), mc.violationCount(),
                   mc.replayedRecordsTotal(), cpuSeconds() - c0,
                   mc_stores + 1);
        }
        {
            Tracer::Scope s(tr, "sweep.service");
            const double c0 = cpuSeconds();
            const slpmt::ServiceCrashSweepReport svc =
                slpmt::runServiceCrashSweep(svc_cfg);
            finish("service", svc.pointsExplored(), svc.violationCount(),
                   svc.replayedRecordsTotal(), cpuSeconds() - c0,
                   svc.traceStores + 1);
        }
        window.close(pass);
        pass.host["measured_ops"] = points_total;
        pass.host["host_ops_per_s"] = std::exp(log_pps / 3.0);
        pass.sim["sweep.replayed_records_per_point"] =
            replayed_total / points_total;

        // The sampled points' report outcomes, for driveSample.
        for (std::uint64_t k : sampledPoints(core_stores)) {
            const slpmt::CrashPointOutcome &p = core.points.at(k - 1);
            const std::string key = "sample." + std::to_string(k);
            if (p.crashPoint != k)
                pass.fail("core report point order broken at " + key);
            pass.sim[key + ".replayed"] =
                static_cast<double>(p.replayedRecords);
            pass.sim[key + ".committed"] =
                static_cast<double>(p.committedOps);
            pass.sim[key + ".fired"] = p.fired ? 1.0 : 0.0;
        }
    }
    pass.host["run_s"] = wallSeconds() - t0;
    pass.host["host.cpu_s"] = cpuSeconds() - cpu0;

    // The phase-by-phase sample is an extra probe of the traced run,
    // kept outside run_s.
    if (tr.enabled())
        driveSample(seed, tr, pass, pass);
    return pass;
}

void
crashSweepCheck(std::uint64_t seed, const PassResult &pass, PassResult &check)
{
    // Every run checks the sampled points once, untimed; traced passes
    // drive them again for their phase times.
    Tracer off(false);
    driveSample(seed, off, pass, check);
}

} // namespace perfbench
