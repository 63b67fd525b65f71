/**
 * @file
 * The sharded KV service front-end (ROADMAP item 1).
 *
 * A KvService composes N independent McMachine shards — each its own
 * simulated machine with its own durable structure — behind the
 * deterministic hash router (router.hh), and drives them with the
 * seeded load generator (workloads/loadgen.hh). This is the first
 * layer where the simulator behaves like a serving system rather than
 * a benchmark loop: requests arrive in one global order, are routed
 * to their shard, and execute there as durable transactions while the
 * service records per-request latency into fine-grained histograms
 * (p50/p99/p999) and per-shard engine/memory statistics.
 *
 * Determinism contract: the run is a pure function of ServiceConfig.
 * The generator, the router, and per-shard execution are all seeded
 * and single-threaded per shard (shards share no simulated state, so
 * executing them one after the other equals any interleaving of
 * independent machines); reports are byte-identical across reruns and
 * orchestrator worker counts. A 1-shard service run is bit-identical
 * to executing the same routed stream on a plain McMachine — the
 * differential anchor tests/test_service.cc pins.
 */

#ifndef SLPMT_SERVICE_SERVICE_HH
#define SLPMT_SERVICE_SERVICE_HH

#include <string>
#include <vector>

#include "multicore/machine.hh"
#include "multicore/scheduler.hh"
#include "service/router.hh"
#include "workloads/loadgen.hh"
#include "workloads/workload.hh"

namespace slpmt
{

/** Everything configurable about one service run. */
struct ServiceConfig
{
    std::string workload = "hashtable";
    std::size_t numShards = 2;

    /** Simulated cores per shard machine; > 1 interleaves each
     *  shard's stream across its cores with the seeded scheduler. */
    std::size_t coresPerShard = 1;

    LoadGenConfig load;
    std::uint64_t routerSalt = ShardRouter::defaultSalt;

    /** Per-shard machine configuration (numCores is overridden from
     *  coresPerShard). */
    SystemConfig sys;

    /** Scheduler knobs for multicore shards. */
    McSchedConfig sched;

    /** Annotation policy (non-owning; nullptr = manual). */
    const AnnotationPolicy *policy = nullptr;
};

/** What one shard op did. */
struct ShardOpOutcome
{
    Cycles cycles = 0;  //!< core cycles the op spent
    bool hit = true;    //!< key found (reads/updates/rmw)
    bool fallbackInsert = false;  //!< upsert fell back to insert
};

/**
 * Execute one shard op on a context: Insert/Update/ReadModifyWrite as
 * durable upsert transactions, Read/Scan as lookups. The shared
 * executor of the service, the crash sweep, and the differential
 * tests, so "service run" and "plain machine run" mean the same
 * instruction sequence by construction.
 */
ShardOpOutcome applyShardOp(PmContext &ctx, Workload &wl,
                            const ShardOp &op);

/**
 * Bucket bounds of the service latency histograms: geometric with
 * ~1.25x steps from 64 cycles to 20M cycles, so percentile extraction
 * (HistogramData::percentile) resolves any quantile to within ~25% of
 * its value — the engine's coarse txn.commitCycles buckets cannot
 * support a p999.
 */
std::vector<std::uint64_t> serviceLatencyBounds();

/** FNV-1a over the machine's materialised PM pages (sorted order):
 *  the bit-for-bit durable-image identity used by the differential
 *  and determinism tests. */
std::uint64_t pmImageFingerprint(const McMachine &machine);

/** Outcome of one service run. */
struct KvServiceResult
{
    /** Slowest shard's measured op-phase cycles (service makespan —
     *  shards are independent machines serving in parallel). */
    Cycles makespan = 0;

    std::vector<Cycles> shardCycles;      //!< per-shard op-phase cycles
    std::vector<std::size_t> shardOps;    //!< executed shard ops each

    /** Post-run (pre-verification) full machine snapshots and PM
     *  image fingerprints, for the differential/determinism tests. */
    std::vector<StatsSnapshot> shardSnapshots;
    std::vector<std::uint64_t> shardImageFp;

    /**
     * Merged measured-window statistics: the service's own counters
     * and latency histograms under "service.", each shard's machine
     * delta under "shardN.", plus derived integer gauges
     * (service.latency.p50/p99/p999, service.commitLatency.*,
     * service.opsPerGcycle, service.makespanCycles).
     */
    StatsSnapshot stats;

    bool verified = false;  //!< oracle lookups + invariants passed
    std::string failure;    //!< diagnostic when !verified
};

/** Run one service load to completion and verify every shard against
 *  the last-write-wins oracle of the request stream. */
KvServiceResult runService(const ServiceConfig &cfg);

} // namespace slpmt

#endif // SLPMT_SERVICE_SERVICE_HH
