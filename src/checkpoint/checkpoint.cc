#include "checkpoint/checkpoint.hh"

#include <cstring>

#include "common/rng.hh"
#include "multicore/machine.hh"

namespace slpmt
{

namespace
{

/** "SLPC" little-endian. */
constexpr std::uint32_t blobMagic = 0x43504c53u;

std::uint64_t
fpMix(std::uint64_t h, std::uint64_t v)
{
    return mix64(h ^ v);
}

std::uint64_t
fpCache(std::uint64_t h, const CacheConfig &c)
{
    h = fpMix(h, c.sizeBytes);
    h = fpMix(h, c.ways);
    h = fpMix(h, c.hitLatency);
    return h;
}

/** Hash every configuration knob that shapes the serialized layout or
 *  the machine's behaviour; a checkpoint only restores into a machine
 *  whose fingerprint matches. */
std::uint64_t
fingerprintOf(const SystemConfig &cfg)
{
    std::uint64_t h = 0x5150'4d54'434b'5054ULL;
    h = fpMix(h, static_cast<std::uint64_t>(cfg.scheme.kind));
    h = fpMix(h, (cfg.scheme.fineGrainLogging ? 1u : 0u) |
                     (cfg.scheme.allowLogFree ? 2u : 0u) |
                     (cfg.scheme.allowLazy ? 4u : 0u) |
                     (cfg.scheme.useLogBuffer ? 8u : 0u) |
                     (cfg.scheme.speculativeRounding ? 16u : 0u));
    h = fpMix(h, cfg.scheme.storeFenceCycles);
    h = fpMix(h, cfg.scheme.softwareLogCycles);
    h = fpMix(h, cfg.scheme.softwareLogHeaderBytes);
    h = fpMix(h, cfg.scheme.numTxnIds);
    h = fpMix(h, static_cast<std::uint64_t>(cfg.style));
    h = fpMix(h, cfg.numCores);
    h = fpMix(h, cfg.map.dramBase);
    h = fpMix(h, cfg.map.dramSize);
    h = fpMix(h, cfg.map.pmBase);
    h = fpMix(h, cfg.map.pmSize);
    h = fpMix(h, cfg.pm.wpqBytes);
    h = fpMix(h, cfg.pm.wpqLatencyNs);
    h = fpMix(h, cfg.pm.readLatencyNs);
    h = fpMix(h, cfg.pm.writeLatencyNs);
    h = fpMix(h, cfg.pm.mediaBanks);
    h = fpMix(h, cfg.pm.sequentialFactor);
    h = fpMix(h, cfg.dram.rowHitNs);
    h = fpMix(h, cfg.dram.rowMissNs);
    h = fpMix(h, cfg.dram.rowBytes);
    h = fpCache(h, cfg.hierarchy.l1);
    h = fpCache(h, cfg.hierarchy.l2);
    h = fpCache(h, cfg.hierarchy.l3);
    return h;
}

/** Tag byte at the head of the state blob. Value 1 marked a retired
 *  single-core layout, so such blobs fail the tag check. */
constexpr std::uint8_t machineTag = 2;

void
saveSites(BlobWriter &w, const StoreSiteRegistry &sites)
{
    w.u<std::uint64_t>(sites.size());
    for (const StoreSiteInfo &s : sites.all()) {
        w.str(s.name);
        w.b(s.manual.lazy);
        w.b(s.manual.logFree);
        w.u<std::uint8_t>(static_cast<std::uint8_t>(s.origin));
        w.b(s.targetsFreshAlloc);
        w.b(s.targetsDeadRegion);
        w.b(s.rebuildable);
        w.b(s.requiresDeepSemantics);
        w.u<std::uint64_t>(s.defUseDepth);
    }
}

void
restoreSites(BlobReader &r, StoreSiteRegistry &sites)
{
    // Re-adding in serialized order reproduces the identical SiteId
    // assignment; workload setup is not re-run on restored machines.
    sites.clear();
    const std::size_t n = r.count(1);
    for (std::size_t i = 0; i < n; ++i) {
        StoreSiteInfo s;
        s.name = r.str();
        s.manual.lazy = r.b();
        s.manual.logFree = r.b();
        const std::uint8_t origin = r.u<std::uint8_t>();
        if (origin > static_cast<std::uint8_t>(ValueOrigin::Computed))
            throw CheckpointError("bad store-site origin");
        s.origin = static_cast<ValueOrigin>(origin);
        s.targetsFreshAlloc = r.b();
        s.targetsDeadRegion = r.b();
        s.rebuildable = r.b();
        s.requiresDeepSemantics = r.b();
        s.defUseDepth = r.u<std::uint64_t>();
        sites.add(std::move(s));
    }
}

void
savePages(BlobWriter &w, const PagedMemory::Snapshot &snap)
{
    std::vector<Addr> nums;
    nums.reserve(snap.size());
    for (const auto &kv : snap)
        nums.push_back(kv.first);
    std::sort(nums.begin(), nums.end());
    w.u<std::uint64_t>(nums.size());
    for (Addr num : nums) {
        w.u<Addr>(num);
        const auto &page = *snap.at(num);
        w.bytes(page.data(), page.size());
    }
}

PagedMemory::Snapshot
restorePages(BlobReader &r)
{
    PagedMemory::Snapshot snap;
    const std::size_t n =
        r.count(sizeof(Addr) + PagedMemory::pageSize);
    snap.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Addr num = r.u<Addr>();
        auto page = std::make_shared<PagedMemory::Page>();
        r.bytes(page->data(), page->size());
        if (!snap.emplace(num, std::move(page)).second)
            throw CheckpointError("duplicate page in blob");
    }
    return snap;
}

} // namespace

std::uint64_t
checkpointFingerprint(const McMachine &machine)
{
    return fingerprintOf(machine.cfg());
}

MachineCheckpoint
MachineCheckpoint::capture(McMachine &machine)
{
    MachineCheckpoint ckpt;
    ckpt.fingerprint = checkpointFingerprint(machine);

    BlobWriter w;
    w.u<std::uint8_t>(machineTag);
    w.u<std::uint64_t>(machine.numCores());
    w.u<std::uint64_t>(machine.sharedSeqCounter());
    w.u<std::uint64_t>(machine.sharedCrashCountdown());
    machine.sharedStats().saveState(w);
    saveSites(w, machine.sites());
    machine.heap().saveState(w);
    machine.pm().saveState(w);
    machine.dram().saveState(w);
    machine.l3().saveState(w);
    for (std::size_t i = 0; i < machine.numCores(); ++i) {
        McCore &core = machine.core(i);
        core.stats().saveState(w);
        core.hierarchy().l1().saveState(w);
        core.hierarchy().l2().saveState(w);
        core.engine().saveState(w);
    }
    ckpt.blob = w.data();

    ckpt.pmPages = machine.pm().memory().snapshot();
    ckpt.dramPages = machine.dram().memory().snapshot();
    return ckpt;
}

void
MachineCheckpoint::restore(McMachine &machine) const
{
    if (fingerprint != checkpointFingerprint(machine))
        throw CheckpointError("machine configuration mismatch");

    BlobReader r(blob);
    if (r.u<std::uint8_t>() != machineTag)
        throw CheckpointError("not a machine checkpoint");
    const std::uint64_t cores = r.u<std::uint64_t>();
    if (cores != machine.numCores())
        throw CheckpointError("core count mismatch");
    machine.setSharedSeqCounter(r.u<std::uint64_t>());
    machine.armCrashAfterStores(r.u<std::uint64_t>());
    machine.sharedStats().restoreState(r);
    restoreSites(r, machine.sites());
    machine.heap().restoreState(r);
    machine.pm().restoreState(r);
    machine.dram().restoreState(r);
    machine.l3().restoreState(r);
    for (std::size_t i = 0; i < machine.numCores(); ++i) {
        McCore &core = machine.core(i);
        core.stats().restoreState(r);
        core.hierarchy().l1().restoreState(r);
        core.hierarchy().l2().restoreState(r);
        core.engine().restoreState(r);
    }
    if (!r.atEnd())
        throw CheckpointError("trailing bytes in blob");

    machine.pm().memory().restore(pmPages);
    machine.dram().memory().restore(dramPages);
}

std::vector<std::uint8_t>
MachineCheckpoint::toBytes() const
{
    BlobWriter w;
    w.u<std::uint32_t>(blobMagic);
    w.u<std::uint32_t>(formatVersion);
    w.u<std::uint64_t>(fingerprint);
    w.u<std::uint64_t>(blob.size());
    w.bytes(blob.data(), blob.size());
    savePages(w, pmPages);
    savePages(w, dramPages);
    std::vector<std::uint8_t> out = w.data();
    const std::uint32_t crc = crc32c(out.data(), out.size());
    for (std::size_t i = 0; i < 4; ++i)
        out.push_back(
            static_cast<std::uint8_t>((crc >> (8 * i)) & 0xff));
    return out;
}

MachineCheckpoint
MachineCheckpoint::fromBytes(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < 4)
        throw CheckpointError("truncated blob");
    const std::size_t body = bytes.size() - 4;
    std::uint32_t stored = 0;
    for (std::size_t i = 0; i < 4; ++i)
        stored |= static_cast<std::uint32_t>(bytes[body + i])
                  << (8 * i);
    if (crc32c(bytes.data(), body) != stored)
        throw CheckpointError("CRC mismatch (corrupt blob)");

    BlobReader r(bytes.data(), body);
    if (r.u<std::uint32_t>() != blobMagic)
        throw CheckpointError("bad magic");
    const std::uint32_t version = r.u<std::uint32_t>();
    if (version != formatVersion)
        throw CheckpointError("unsupported format version " +
                              std::to_string(version));
    MachineCheckpoint ckpt;
    ckpt.fingerprint = r.u<std::uint64_t>();
    const std::size_t blob_len = r.count(1);
    ckpt.blob.resize(blob_len);
    r.bytes(ckpt.blob.data(), blob_len);
    ckpt.pmPages = restorePages(r);
    ckpt.dramPages = restorePages(r);
    if (!r.atEnd())
        throw CheckpointError("trailing bytes after pages");
    return ckpt;
}

} // namespace slpmt
