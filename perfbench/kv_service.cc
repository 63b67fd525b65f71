/**
 * @file
 * kv-service: the sharded KV service with reads beside writes,
 * re-driven by the benchmark so each layer call can be timed.
 *
 * Two McMachine shards x two cores serve YCSB-A (50% read / 50%
 * update), Zipfian theta 0.99 with hot-key churn every 5000 requests
 * and 64-256 B values: 40k preloaded records, then 40k requests, for
 * FG and for SLPMT. One caller walks the generator's fixed arrival
 * order (a closed loop). Each pass follows runService step for step:
 * svcGenerate, routeOps, construction, setup and preload on core 0,
 * then per shard the key-pinned core slices under runInterleaved, the
 * PM image fingerprint, and the last-write-wins oracle.
 *
 * The latency percentiles cover the mutations (the durable
 * transactions, what service.commitLatency histograms). Over all
 * requests, YCSB-A's even read/update split puts the median on the edge
 * between the read and the update latency modes, so it jumps by about
 * 9% from one seed to the next.
 */

#include <algorithm>
#include <map>

#include "bench.hh"
#include "multicore/machine.hh"
#include "multicore/scheduler.hh"
#include "service/service.hh"
#include "workloads/factory.hh"

namespace perfbench
{
namespace
{

constexpr std::size_t numShards = 2;
constexpr std::size_t coresPerShard = 2;
constexpr std::size_t records = 40'000;
constexpr std::size_t requests = 40'000;

/** runService's salt for dealing a shard's keys over its cores. */
constexpr std::uint64_t coreSalt = 0xc0de'5a17'dea1ULL;

const slpmt::SchemeKind schemes[] = {slpmt::SchemeKind::FG,
                                     slpmt::SchemeKind::SLPMT};

slpmt::ServiceConfig
serviceConfig(std::uint64_t seed, slpmt::SchemeKind scheme)
{
    slpmt::ServiceConfig cfg;
    cfg.workload = "hashtable";
    cfg.numShards = numShards;
    cfg.coresPerShard = coresPerShard;
    cfg.load.mix = slpmt::YcsbMix::A;
    cfg.load.skew = slpmt::KeySkew::Zipfian;
    cfg.load.zipfThetaBp = 9900;
    cfg.load.preloadRecords = records;
    cfg.load.numOps = requests;
    cfg.load.valueBytesMin = 64;
    cfg.load.valueBytesMax = 256;
    cfg.load.churnInterval = 5000;
    cfg.load.seed = inputSeed(seed, 0);
    cfg.sched.seed = inputSeed(seed, 0);
    cfg.sys.scheme = slpmt::SchemeConfig::forKind(scheme);
    cfg.sys.numCores = coresPerShard;
    return cfg;
}

/** One core's slice of a shard's stream; records each request's
 *  simulated latency (mutations only) and read hits. */
class TimedShardDriver : public slpmt::McCoreDriver
{
  public:
    TimedShardDriver(slpmt::PmContext &ctx, slpmt::Workload &wl,
                     std::vector<slpmt::ShardOp> ops, Tracer &tr,
                     std::uint64_t id_base, std::vector<double> *latencies)
        : ctx(ctx), wl(wl), ops(std::move(ops)), tr(tr), idBase(id_base),
          latencies(latencies)
    {
    }

    bool done() const override { return cursor >= ops.size(); }

    void
    step() override
    {
        const slpmt::ShardOp &op = ops[cursor];
        Tracer::Scope s(tr, "workload.op", idBase + cursor);
        const slpmt::ShardOpOutcome out = slpmt::applyShardOp(ctx, wl, op);
        if (latencies && op.isMutation())
            latencies->push_back(static_cast<double>(out.cycles));
        if (op.kind == slpmt::SvcOpKind::Read) {
            ++reads;
            readHits += out.hit ? 1 : 0;
        }
        ++cursor;
    }

    std::uint64_t reads = 0;
    std::uint64_t readHits = 0;

  private:
    slpmt::PmContext &ctx;
    slpmt::Workload &wl;
    std::vector<slpmt::ShardOp> ops;
    Tracer &tr;
    std::uint64_t idBase;
    std::vector<double> *latencies;
    std::size_t cursor = 0;
};

/** Store a 64-bit identity exactly in a double-valued map. */
void
putU64(std::map<std::string, double> &m, const std::string &key,
       std::uint64_t v)
{
    m[key + ".hi"] = static_cast<double>(v >> 32);
    m[key + ".lo"] = static_cast<double>(v & 0xffff'ffffULL);
}

/** The last-write-wins value recipe of every key of the load. */
std::map<std::uint64_t, std::pair<std::uint64_t, std::uint32_t>>
expectedState(const slpmt::SvcLoad &load)
{
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint32_t>> exp;
    for (const slpmt::SvcOp &op : load.preload)
        exp[op.key] = {op.valueSalt, op.valueBytes};
    for (const slpmt::SvcOp &op : load.ops)
        if (op.isMutation())
            exp[op.key] = {op.valueSalt, op.valueBytes};
    return exp;
}

} // namespace

PassResult
kvServicePass(std::uint64_t seed, Tracer &tr)
{
    PassResult pass;
    const double t0 = wallSeconds();
    const double cpu0 = cpuSeconds();
    Tracer::Scope pass_span(tr, "pass");
    pass.latencies.reserve(requests);

    slpmt::Cycles makespan[2] = {0, 0};
    for (std::size_t k = 0; k < 2; ++k) {
        const slpmt::SchemeKind scheme = schemes[k];
        const std::string sname = slpmt::schemeName(scheme);
        const slpmt::ServiceConfig cfg = serviceConfig(seed, scheme);
        const slpmt::ShardRouter router(cfg.numShards, cfg.routerSalt);

        slpmt::SvcLoad load;
        std::vector<std::vector<slpmt::ShardOp>> preload, streams;
        std::vector<std::unique_ptr<slpmt::McMachine>> shards;
        std::vector<std::unique_ptr<slpmt::Workload>> workloads;
        {
            SetupTimer setup(pass);
            Tracer::Scope s(tr, "setup");
            {
                Tracer::Scope g(tr, "loadgen.generate");
                load = slpmt::svcGenerate(cfg.load);
            }
            {
                Tracer::Scope r(tr, "service.route");
                preload = slpmt::routeOps(router, load.preload, load.keySalt);
                streams = slpmt::routeOps(router, load.ops, load.keySalt);
            }
            for (std::size_t s = 0; s < cfg.numShards; ++s) {
                {
                    Tracer::Scope c(tr, "phase.construct", s);
                    shards.push_back(
                        std::make_unique<slpmt::McMachine>(cfg.sys));
                }
                {
                    Tracer::Scope w(tr, "workload.setup", s);
                    workloads.push_back(slpmt::makeWorkload(cfg.workload));
                    workloads[s]->setup(shards[s]->context(0));
                }
                Tracer::Scope p(tr, "phase.preload", s);
                for (const slpmt::ShardOp &op : preload[s])
                    slpmt::applyShardOp(shards[s]->context(0), *workloads[s],
                                        op);
            }
        }

        std::vector<double> shard_cycles;
        slpmt::StatsSnapshot delta_sum;
        std::uint64_t reads = 0;
        std::uint64_t read_hits = 0;
        for (std::size_t s = 0; s < cfg.numShards; ++s) {
            slpmt::McMachine &machine = *shards[s];
            const slpmt::StatsSnapshot before = machine.snapshot();
            std::vector<slpmt::Cycles> start;
            for (std::size_t c = 0; c < cfg.coresPerShard; ++c)
                start.push_back(machine.core(c).engine().now());

            std::vector<std::vector<slpmt::ShardOp>> slices(cfg.coresPerShard);
            for (const slpmt::ShardOp &op : streams[s])
                slices[slpmt::mix64Salted(op.key, coreSalt) %
                       cfg.coresPerShard]
                    .push_back(op);
            std::vector<std::unique_ptr<TimedShardDriver>> drivers;
            std::vector<slpmt::McCoreDriver *> ptrs;
            for (std::size_t c = 0; c < cfg.coresPerShard; ++c) {
                drivers.push_back(std::make_unique<TimedShardDriver>(
                    machine.context(c), *workloads[s], std::move(slices[c]),
                    tr, (s * cfg.coresPerShard + c) << 32,
                    scheme == slpmt::SchemeKind::SLPMT ? &pass.latencies
                                                       : nullptr));
                ptrs.push_back(drivers.back().get());
            }
            slpmt::McSchedConfig sched = cfg.sched;
            sched.seed = slpmt::mix64Salted(cfg.sched.seed, s + 1);
            {
                Tracer::Scope m(tr, "measured", s);
                MeasuredWindow window;
                slpmt::runInterleaved(machine, ptrs, sched);
                window.close(pass);
            }

            slpmt::Cycles cycles = 0;
            for (std::size_t c = 0; c < cfg.coresPerShard; ++c)
                cycles = std::max(cycles,
                                  machine.core(c).engine().now() - start[c]);
            makespan[k] = std::max(makespan[k], cycles);
            shard_cycles.push_back(static_cast<double>(cycles));
            const std::string prefix = sname + ".shard" + std::to_string(s);
            pass.sim[prefix + ".cycles"] = static_cast<double>(cycles);
            accumulate(delta_sum, slpmt::StatsRegistry::delta(
                                      before, machine.snapshot()));
            for (const auto &d : drivers) {
                reads += d->reads;
                read_hits += d->readHits;
            }
            Tracer::Scope f(tr, "service.fingerprint", s);
            putU64(pass.sim, prefix + ".fp", slpmt::pmImageFingerprint(machine));
        }
        pass.host["measured_ops"] += static_cast<double>(load.ops.size());
        pass.sim[sname + ".makespan"] = static_cast<double>(makespan[k]);
        pass.sim[sname + ".pm_bytes"] = sumStat(delta_sum, "pm.bytesWritten");

        if (scheme == slpmt::SchemeKind::SLPMT) {
            const auto ops = static_cast<double>(load.ops.size());
            pass.sim["sim_cycles_per_op"] =
                static_cast<double>(makespan[k]) / ops;
            pass.sim["pm_write_bytes_per_op"] =
                sumStat(delta_sum, "pm.bytesWritten") / ops;
            addLayerMetrics(delta_sum, ops, pass.sim);
            double mean = 0;
            for (double c : shard_cycles)
                mean += c / static_cast<double>(shard_cycles.size());
            pass.sim["service.shard_imbalance"] =
                static_cast<double>(makespan[k]) / mean;
            pass.sim["service.read_hit_ratio"] =
                reads ? static_cast<double>(read_hits) /
                            static_cast<double>(reads)
                      : 0.0;
        }

        // Verification: every shard against the last-write-wins oracle
        // of the arrival-ordered load.
        Tracer::Scope v(tr, "phase.verify");
        const auto expected = expectedState(load);
        for (std::size_t s = 0; s < cfg.numShards; ++s) {
            slpmt::PmContext &ctx = shards[s]->context(0);
            slpmt::Workload &wl = *workloads[s];
            pass.attempted += streams[s].size();
            std::string why;
            bool ok;
            {
                Tracer::Scope c(tr, "workload.check", s);
                ok = wl.checkConsistency(ctx, &why);
            }
            std::size_t expected_count = 0;
            std::vector<std::uint8_t> got;
            for (const auto &[key, value] : expected) {
                if (!ok)
                    break;
                if (router.shardOf(key) != s)
                    continue;
                ++expected_count;
                Tracer::Scope l(tr, "workload.lookup", key);
                ok = wl.lookup(ctx, key, &got) &&
                     got == slpmt::svcValueFor(key, value.first, value.second);
                if (!ok)
                    why = "lookup mismatch at key " + std::to_string(key);
            }
            if (ok && wl.count(ctx) != expected_count) {
                ok = false;
                why = "count mismatch";
            }
            if (!ok) {
                pass.failed += streams[s].size();
                pass.failures.push_back(sname + " shard " +
                                        std::to_string(s) + ": " + why);
            }
        }
    }
    pass.sim["slpmt_speedup_vs_fg"] = static_cast<double>(makespan[0]) /
                                      static_cast<double>(makespan[1]);

    pass.host["run_s"] = wallSeconds() - t0;
    pass.host["host.cpu_s"] = cpuSeconds() - cpu0;
    return pass;
}

void
kvServiceCheck(std::uint64_t seed, const PassResult &pass, PassResult &check)
{
    // The re-driven service must equal runService bit for bit: shard
    // cycles, makespan, PM bytes and PM image fingerprints.
    for (slpmt::SchemeKind scheme : schemes) {
        const std::string sname = slpmt::schemeName(scheme);
        const slpmt::KvServiceResult r =
            slpmt::runService(serviceConfig(seed, scheme));
        check.attempted += requests;
        if (!r.verified) {
            check.fail("runService " + sname + ": " + r.failure);
            continue;
        }
        std::map<std::string, double> want;
        want[sname + ".makespan"] = static_cast<double>(r.makespan);
        want[sname + ".pm_bytes"] = sumStat(r.stats, "pm.bytesWritten");
        for (std::size_t s = 0; s < r.shardCycles.size(); ++s) {
            const std::string prefix = sname + ".shard" + std::to_string(s);
            want[prefix + ".cycles"] = static_cast<double>(r.shardCycles[s]);
            putU64(want, prefix + ".fp", r.shardImageFp[s]);
        }
        for (const auto &[key, value] : want) {
            const auto it = pass.sim.find(key);
            if (it == pass.sim.end() || it->second != value)
                check.fail("re-driven service " + key +
                           " differs from runService");
        }
    }
}

} // namespace perfbench
