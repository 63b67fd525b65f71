/**
 * @file
 * Deterministic hash-based request router of the sharded KV service.
 *
 * Every request key maps to exactly one shard via a salted stateless
 * hash of the key — no routing tables, no migration state — so two
 * routers constructed with the same (shards, salt) pair partition any
 * op stream identically, and re-partitioning an already-partitioned
 * stream with the same router moves nothing (the N -> N re-shard
 * no-op the service tests pin).
 *
 * Lowering turns generator-level requests (SvcOp) into execution ops
 * in arrival order (lowerOps), and routing splits them into per-shard
 * streams (routeOps): a Scan over a record range scatters into one
 * Read-like sub-op per swept record, routed by that record's own key,
 * so every key still lives on exactly one shard and shards never
 * coordinate.
 */

#ifndef SLPMT_SERVICE_ROUTER_HH
#define SLPMT_SERVICE_ROUTER_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "workloads/loadgen.hh"

namespace slpmt
{

/** Stateless key -> shard map. */
class ShardRouter
{
  public:
    static constexpr std::uint64_t defaultSalt = 0x50a7'ed'2077ULL;

    explicit ShardRouter(std::size_t num_shards,
                         std::uint64_t salt = defaultSalt)
        : shards(num_shards), routeSalt(salt)
    {
        panicIfNot(num_shards >= 1, "router needs at least one shard");
    }

    std::size_t numShards() const { return shards; }
    std::uint64_t salt() const { return routeSalt; }

    std::size_t
    shardOf(std::uint64_t key) const
    {
        return static_cast<std::size_t>(mix64Salted(key, routeSalt) %
                                        shards);
    }

  private:
    std::size_t shards;
    std::uint64_t routeSalt;
};

/**
 * One op of a shard's execution stream. Scans arrive pre-scattered:
 * each swept record becomes its own Scan-kind entry (executed as a
 * lookup) carrying the record's key.
 */
struct ShardOp
{
    SvcOpKind kind = SvcOpKind::Read;
    std::uint64_t key = 0;
    std::uint32_t valueBytes = 0;
    std::uint64_t valueSalt = 0;

    bool
    isMutation() const
    {
        return kind == SvcOpKind::Insert || kind == SvcOpKind::Update ||
               kind == SvcOpKind::ReadModifyWrite;
    }

    bool
    operator==(const ShardOp &o) const
    {
        return kind == o.kind && key == o.key &&
               valueBytes == o.valueBytes && valueSalt == o.valueSalt;
    }
};

/**
 * Lower an arrival-ordered request stream to its execution ops, still
 * in arrival order: a request becomes one op, and a scan scatters into
 * one Scan-kind op per swept record (needs @p key_salt to derive the
 * swept records' keys). Each op runs on its own key's shard.
 */
inline std::vector<ShardOp>
lowerOps(const std::vector<SvcOp> &ops, std::uint64_t key_salt)
{
    std::vector<ShardOp> lowered;
    lowered.reserve(ops.size());
    for (const SvcOp &op : ops) {
        if (op.kind != SvcOpKind::Scan) {
            lowered.push_back({op.kind, op.key, op.valueBytes, op.valueSalt});
            continue;
        }
        for (std::uint32_t j = 0; j < op.scanLen; ++j)
            lowered.push_back(
                {SvcOpKind::Scan, svcKeyForRecord(op.record + j, key_salt)});
    }
    return lowered;
}

/**
 * Partition an arrival-ordered request stream into per-shard
 * execution streams: its lowered ops, split by shard in arrival order.
 */
inline std::vector<std::vector<ShardOp>>
routeOps(const ShardRouter &router, const std::vector<SvcOp> &ops,
         std::uint64_t key_salt)
{
    std::vector<std::vector<ShardOp>> streams(router.numShards());
    for (const ShardOp &op : lowerOps(ops, key_salt))
        streams[router.shardOf(op.key)].push_back(op);
    return streams;
}

} // namespace slpmt

#endif // SLPMT_SERVICE_ROUTER_HH
