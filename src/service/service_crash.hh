/**
 * @file
 * Service-level crash-point sweep: power-fail the sharded KV service
 * mid-load and validate every shard's recovery. The service target of
 * the sweep engine (validate/sweep_engine.hh), built into
 * slpmt_validate.
 *
 * The generated request stream is lowered to its arrival-ordered
 * (shard, op) dispatch list; a master run executes it once across the
 * shard machines, counting store/storeT instructions in one *global*
 * ordinal space (the sum over shards). Its bases sit at request
 * boundaries and hold one MachineCheckpoint plus one workload clone
 * per shard, and the oracle's shadow of the requests before the
 * boundary. A walker replays the dispatch list from a base, arming the
 * store-level countdown on the shard executing each request; at a
 * point's store it forks every shard into the point, which
 * power-fails the *whole service* — every shard machine — at exactly
 * that store. Each mutation's value bytes are built once per sweep.
 *
 * Recovery then runs per shard (hardware log replay + the workload's
 * user-level recovery) and is validated against the last-write-wins
 * oracle of the completed request prefix: completed mutations
 * readable with their final values, the interrupted request atomic
 * (its key holds entirely the old or entirely the new value), keys
 * only written by future requests absent, structure invariants
 * intact on every shard, recovery idempotent, and every shard still
 * writable afterwards.
 */

#ifndef SLPMT_SERVICE_SERVICE_CRASH_HH
#define SLPMT_SERVICE_SERVICE_CRASH_HH

#include <cstdint>
#include <string>

#include "service/service.hh"
#include "validate/sweep_engine.hh"

namespace slpmt
{

/** Everything configurable about one service sweep. */
struct ServiceCrashConfig : SweepOptions
{
    /** Global stores between master-run bases default to 256 here. */
    ServiceCrashConfig() { checkpointInterval = 256; }

    std::string workload = "hashtable";
    std::size_t numShards = 2;
    LoadGenConfig load;
    std::uint64_t routerSalt = ShardRouter::defaultSalt;
};

/** A service point's committedOps counts completed dispatch ops and
 *  crashShard names the shard whose store fired; traceStores is the
 *  global (summed) store count and traceOps the dispatch-list length. */
using ServiceCrashPointOutcome = CrashPointOutcome;
using ServiceCrashSweepReport = CrashSweepReport;

/** Run one sweep: master run, enumerate, explore (possibly parallel). */
ServiceCrashSweepReport runServiceCrashSweep(const ServiceCrashConfig &cfg);

/** Re-run a single point in isolation (the repro handle). */
ServiceCrashPointOutcome runServiceCrashPoint(const ServiceCrashConfig &cfg,
                                              std::uint64_t crash_point);

} // namespace slpmt

#endif // SLPMT_SERVICE_SERVICE_CRASH_HH
