#include "service/service.hh"

#include <algorithm>
#include <map>
#include <memory>

#include "mem/paged_memory.hh"
#include "workloads/factory.hh"

namespace slpmt
{
namespace
{

/** Last-write-wins value identity of one key: the recompute recipe. */
struct ExpectedValue
{
    std::uint64_t valueSalt = 0;
    std::uint32_t valueBytes = 0;
};

/** Expected final KV state of the whole service: every mutation of
 *  the arrival-ordered load folded last-write-wins. */
std::map<std::uint64_t, ExpectedValue>
expectedState(const SvcLoad &load)
{
    std::map<std::uint64_t, ExpectedValue> expected;
    for (const SvcOp &op : load.preload)
        expected[op.key] = {op.valueSalt, op.valueBytes};
    for (const SvcOp &op : load.ops) {
        if (op.isMutation())
            expected[op.key] = {op.valueSalt, op.valueBytes};
    }
    return expected;
}

/** Per-op service instrument handles. */
struct ServiceCounters
{
    StatsRegistry::Counter shardOps;
    StatsRegistry::Counter reads;
    StatsRegistry::Counter readHits;
    StatsRegistry::Counter inserts;
    StatsRegistry::Counter updates;
    StatsRegistry::Counter rmws;
    StatsRegistry::Counter scannedKeys;
    StatsRegistry::Counter upsertFallbacks;
    StatsRegistry::Histogram latency;
    StatsRegistry::Histogram commitLatency;

    explicit ServiceCounters(StatsRegistry &reg)
    {
        const StatGroup g(reg, "service");
        shardOps = g.counter("shardOps");
        reads = g.counter("reads");
        readHits = g.counter("readHits");
        inserts = g.counter("inserts");
        updates = g.counter("updates");
        rmws = g.counter("rmws");
        scannedKeys = g.counter("scannedKeys");
        upsertFallbacks = g.counter("upsertFallbacks");
        latency = g.histogram("latency", serviceLatencyBounds());
        commitLatency =
            g.histogram("commitLatency", serviceLatencyBounds());
    }

    void
    note(const ShardOp &op, const ShardOpOutcome &out)
    {
        shardOps++;
        latency.record(out.cycles);
        if (op.isMutation())
            commitLatency.record(out.cycles);
        if (out.fallbackInsert)
            upsertFallbacks++;
        switch (op.kind) {
          case SvcOpKind::Insert:
            inserts++;
            break;
          case SvcOpKind::Update:
            updates++;
            break;
          case SvcOpKind::ReadModifyWrite:
            rmws++;
            break;
          case SvcOpKind::Scan:
            scannedKeys++;
            [[fallthrough]];
          case SvcOpKind::Read:
            reads++;
            if (out.hit)
                readHits++;
            break;
        }
    }
};

/** A core's slice of one shard's op stream (multicore shards). */
class ShardCoreDriver : public McCoreDriver
{
  public:
    ShardCoreDriver(PmContext &ctx, Workload &wl,
                    std::vector<ShardOp> ops, ServiceCounters &ctrs)
        : ctx(ctx), wl(wl), ops(std::move(ops)), counters(ctrs)
    {
    }

    bool done() const override { return cursor >= ops.size(); }

    void
    step() override
    {
        const ShardOp &op = ops[cursor];
        counters.note(op, applyShardOp(ctx, wl, op));
        ++cursor;
    }

  private:
    PmContext &ctx;
    Workload &wl;
    std::vector<ShardOp> ops;
    ServiceCounters &counters;
    std::size_t cursor = 0;
};

} // namespace

ShardOpOutcome
applyShardOp(PmContext &ctx, Workload &wl, const ShardOp &op)
{
    ShardOpOutcome out;
    const Cycles start = ctx.cycles();
    switch (op.kind) {
      case SvcOpKind::Insert:
        wl.insert(ctx, op.key,
                  svcValueFor(op.key, op.valueSalt, op.valueBytes));
        break;
      case SvcOpKind::Update:
      case SvcOpKind::ReadModifyWrite: {
        if (op.kind == SvcOpKind::ReadModifyWrite)
            wl.lookup(ctx, op.key, nullptr);  // the read half
        const auto value =
            svcValueFor(op.key, op.valueSalt, op.valueBytes);
        out.hit = wl.update(ctx, op.key, value);
        if (!out.hit) {
            wl.insert(ctx, op.key, value);
            out.fallbackInsert = true;
        }
        break;
      }
      case SvcOpKind::Read:
      case SvcOpKind::Scan:
        out.hit = wl.lookup(ctx, op.key, nullptr);
        break;
    }
    out.cycles = ctx.cycles() - start;
    return out;
}

std::vector<std::uint64_t>
serviceLatencyBounds()
{
    std::vector<std::uint64_t> bounds;
    for (std::uint64_t v = 64; v < 20'000'000; v += v / 4)
        bounds.push_back(v);
    return bounds;
}

std::uint64_t
pmImageFingerprint(const McMachine &machine)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    machine.pm().memory().forEachPageSorted(
        [&](Addr page, const PagedMemory::Page &data) {
            fold(page);
            for (std::uint8_t byte : data) {
                h ^= byte;
                h *= 0x100000001b3ULL;
            }
        });
    return h;
}

KvServiceResult
runService(const ServiceConfig &cfg)
{
    panicIfNot(cfg.numShards >= 1, "service needs at least one shard");
    panicIfNot(cfg.coresPerShard >= 1,
               "service shards need at least one core");

    KvServiceResult res;
    const SvcLoad load = svcGenerate(cfg.load);
    const ShardRouter router(cfg.numShards, cfg.routerSalt);
    const auto preload = routeOps(router, load.preload, load.keySalt);
    const auto streams = routeOps(router, load.ops, load.keySalt);

    SystemConfig sys_cfg = cfg.sys;
    sys_cfg.numCores = cfg.coresPerShard;

    StatsRegistry svc_stats;
    ServiceCounters counters(svc_stats);

    std::vector<std::unique_ptr<McMachine>> shards;
    std::vector<std::unique_ptr<Workload>> workloads;
    for (std::size_t s = 0; s < cfg.numShards; ++s) {
        shards.push_back(std::make_unique<McMachine>(sys_cfg));
        if (cfg.policy)
            shards.back()->setAnnotationPolicy(cfg.policy);
        workloads.push_back(makeWorkload(cfg.workload));
        workloads.back()->setup(shards.back()->context(0));
        // Preload (outside the measured window): arrival order on
        // core 0, like every driver's setup phase.
        for (const ShardOp &op : preload[s])
            applyShardOp(shards.back()->context(0), *workloads[s], op);
    }

    // Measured window: the request phase, shard by shard. Shards
    // share no simulated state, so serial execution here is
    // observationally identical to any parallel interleaving; the
    // makespan (slowest shard) is the service-level wall time.
    const StatsSnapshot svc_before = svc_stats.snapshot();
    res.shardCycles.resize(cfg.numShards, 0);
    res.shardOps.resize(cfg.numShards, 0);
    std::vector<StatsSnapshot> shard_before(cfg.numShards);
    for (std::size_t s = 0; s < cfg.numShards; ++s) {
        McMachine &machine = *shards[s];
        shard_before[s] = machine.snapshot();
        std::vector<Cycles> start;
        for (std::size_t c = 0; c < cfg.coresPerShard; ++c)
            start.push_back(machine.core(c).engine().now());

        res.shardOps[s] = streams[s].size();
        if (cfg.coresPerShard == 1) {
            for (const ShardOp &op : streams[s])
                counters.note(op, applyShardOp(machine.context(0),
                                               *workloads[s], op));
        } else {
            // Deal the shard's stream over its cores *by key* — the
            // last-write-wins oracle needs every key's mutations to
            // stay program-ordered, and a key's insert must precede
            // its updates; pinning each key to one core preserves
            // both while cross-key interleaving stays free. Then
            // interleave with the seeded scheduler (a distinct seed
            // per shard so shards do not replay each other's draws).
            constexpr std::uint64_t core_salt = 0xc0de'5a17'dea1ULL;
            std::vector<std::vector<ShardOp>> slices(
                cfg.coresPerShard);
            for (const ShardOp &op : streams[s])
                slices[mix64Salted(op.key, core_salt) %
                       cfg.coresPerShard]
                    .push_back(op);
            std::vector<std::unique_ptr<ShardCoreDriver>> drivers;
            std::vector<McCoreDriver *> ptrs;
            for (std::size_t c = 0; c < cfg.coresPerShard; ++c) {
                drivers.push_back(std::make_unique<ShardCoreDriver>(
                    machine.context(c), *workloads[s],
                    std::move(slices[c]), counters));
                ptrs.push_back(drivers.back().get());
            }
            McSchedConfig sched = cfg.sched;
            sched.seed = mix64Salted(cfg.sched.seed, s + 1);
            runInterleaved(machine, ptrs, sched);
        }

        for (std::size_t c = 0; c < cfg.coresPerShard; ++c)
            res.shardCycles[s] =
                std::max(res.shardCycles[s],
                         machine.core(c).engine().now() - start[c]);
        res.makespan = std::max(res.makespan, res.shardCycles[s]);

        // Capture the bit-for-bit identities before verification
        // perturbs caches and clocks.
        res.shardSnapshots.push_back(machine.snapshot());
        res.shardImageFp.push_back(pmImageFingerprint(machine));
    }

    // Merge the measured-window deltas: service instruments under
    // their own names, shard machine deltas under "shardN.".
    res.stats = StatsRegistry::delta(svc_before, svc_stats.snapshot());
    for (std::size_t s = 0; s < cfg.numShards; ++s) {
        const StatsSnapshot delta = StatsRegistry::delta(
            shard_before[s], res.shardSnapshots[s]);
        const std::string prefix =
            "shard" + std::to_string(s) + ".";
        for (const auto &[name, value] : delta)
            res.stats[prefix + name] = value;
    }

    // Derived integer gauges the figure table reads.
    const StatsRegistry::HistogramData &lat =
        *counters.latency.get();
    const StatsRegistry::HistogramData &commit =
        *counters.commitLatency.get();
    res.stats["service.latency.p50"] = lat.percentile(50, 100);
    res.stats["service.latency.p99"] = lat.percentile(99, 100);
    res.stats["service.latency.p999"] = lat.percentile(999, 1000);
    res.stats["service.commitLatency.p50"] =
        commit.percentile(50, 100);
    res.stats["service.commitLatency.p99"] =
        commit.percentile(99, 100);
    res.stats["service.commitLatency.p999"] =
        commit.percentile(999, 1000);
    res.stats["service.requests"] = load.ops.size();
    res.stats["service.makespanCycles"] = res.makespan;
    if (res.makespan > 0)
        res.stats["service.opsPerGcycle"] =
            load.ops.size() * 1'000'000'000ULL / res.makespan;

    // Verification (outside the measured window): every shard against
    // the last-write-wins oracle of the arrival-ordered load.
    const auto expected = expectedState(load);
    std::vector<std::size_t> expected_counts(cfg.numShards, 0);
    for (const auto &[key, value] : expected)
        expected_counts[router.shardOf(key)]++;

    res.verified = true;
    for (std::size_t s = 0; s < cfg.numShards && res.verified; ++s) {
        PmContext &ctx = shards[s]->context(0);
        Workload &wl = *workloads[s];
        std::string why;
        if (!wl.checkConsistency(ctx, &why)) {
            res.verified = false;
            res.failure =
                "shard " + std::to_string(s) + " consistency: " + why;
            break;
        }
        if (wl.count(ctx) != expected_counts[s]) {
            res.verified = false;
            res.failure = "shard " + std::to_string(s) +
                          " count mismatch: holds " +
                          std::to_string(wl.count(ctx)) +
                          ", oracle expects " +
                          std::to_string(expected_counts[s]);
            break;
        }
        std::vector<std::uint8_t> got;
        for (const auto &[key, value] : expected) {
            if (router.shardOf(key) != s)
                continue;
            if (!wl.lookup(ctx, key, &got) ||
                got != svcValueFor(key, value.valueSalt,
                                   value.valueBytes)) {
                res.verified = false;
                res.failure = "shard " + std::to_string(s) +
                              " lookup mismatch at key " +
                              std::to_string(key);
                break;
            }
        }
    }
    return res;
}

} // namespace slpmt
