/**
 * @file
 * Machine checkpoint/restore correctness.
 *
 * The contract under test is bit-exactness: restoring a checkpoint
 * into a freshly constructed machine and continuing the run must be
 * indistinguishable — byte-identical PM and DRAM images, identical
 * stats registries — from the run that never checkpointed. The fuzz
 * crosses all seven schemes with both logging styles on the
 * one-core PmSystem, and 1/2/4-core interleaved runs on the
 * McMachine (checkpointed at a scheduler quantum boundary and resumed
 * through runInterleavedFrom; a PmSystem master must resume on a
 * plain one-core McMachine). The portable encoding must round-trip
 * through bytes and through a file, and reject corruption,
 * truncation, version skew, configuration mismatches, and the retired
 * single-core blob tag.
 *
 * The CheckpointAudit suite is the cross-mode oracle the
 * checkpoint-audit ctest preset runs: a checkpointed sweep's JSON
 * report must be byte-identical to the --no-checkpoint audit sweep's
 * on every target (core, mc, service), at any worker count, on the
 * sampled path and on the pipelined exhaustive tail-replay path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "core/pm_system.hh"
#include "multicore/machine.hh"
#include "multicore/mc_crash.hh"
#include "multicore/mc_ycsb.hh"
#include "multicore/scheduler.hh"
#include "service/service_crash.hh"
#include "validate/crash_explorer.hh"
#include "workloads/factory.hh"
#include "workloads/ycsb.hh"

namespace slpmt
{
namespace
{

SystemConfig
tinySystem(SchemeKind scheme, LoggingStyle style)
{
    SystemConfig sc;
    sc.scheme = SchemeConfig::forKind(scheme);
    sc.style = style;
    sc.hierarchy.l1 = CacheConfig{"L1", 1024, 2, 4};
    sc.hierarchy.l2 = CacheConfig{"L2", 2048, 2, 12};
    sc.hierarchy.l3 = CacheConfig{"L3", 4096, 4, 40};
    return sc;
}

void
applyOp(PmContext &ctx, Workload &wl, const YcsbMixedOp &op)
{
    switch (op.kind) {
      case YcsbOpKind::Insert:
        wl.insert(ctx, op.key, op.value);
        break;
      case YcsbOpKind::Update:
        wl.update(ctx, op.key, op.value);
        break;
      case YcsbOpKind::Remove:
        wl.remove(ctx, op.key);
        break;
    }
}

using Image = std::vector<std::pair<Addr, PagedMemory::Page>>;

Image
imageOf(const PagedMemory &mem)
{
    Image img;
    mem.forEachPageSorted([&](Addr num, const PagedMemory::Page &p) {
        img.emplace_back(num, p);
    });
    return img;
}

/** All scheme kinds, paired with the workload exercising them (one
 *  run per scheme also covers every workload's clone()). */
const std::pair<SchemeKind, const char *> schemeWorkloads[] = {
    {SchemeKind::FG, "hashtable"},  {SchemeKind::FG_LG, "avl"},
    {SchemeKind::FG_LZ, "rbtree"},  {SchemeKind::SLPMT, "kv-btree"},
    {SchemeKind::SLPMT_CL, "kv-ctree"}, {SchemeKind::ATOM, "kv-rtree"},
    {SchemeKind::EDE, "heap"},
};

/**
 * One single-core fuzz round: run a mixed trace, checkpointing at
 * one third and two thirds; continue to the end for the reference
 * state; then restore each checkpoint into a fresh machine, replay
 * its tail, and demand identical final images and stats.
 */
void
fuzzSingleCore(SchemeKind scheme, const std::string &workload,
               LoggingStyle style, std::uint64_t seed)
{
    YcsbMixConfig mix;
    mix.numOps = 18;
    mix.valueBytes = 48;
    mix.seed = seed;
    mix.insertPct = 70;
    mix.updatePct = 20;
    mix.removePct = 10;
    const auto trace = ycsbMixedLoad(mix);

    const SystemConfig sc = tinySystem(scheme, style);
    PmSystem master(sc);
    auto wl = makeWorkload(workload);
    wl->setup(master);

    struct Mark
    {
        MachineCheckpoint ckpt;
        std::unique_ptr<Workload> wl;
        std::size_t nextOp;
    };
    std::vector<Mark> marks;

    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (i == trace.size() / 3 || i == 2 * trace.size() / 3)
            marks.push_back(Mark{MachineCheckpoint::capture(master),
                                 wl->clone(), i});
        applyOp(master, *wl, trace[i]);
    }

    const Image ref_pm = imageOf(master.pm().memory());
    const Image ref_dram = imageOf(master.dram().memory());
    const StatsSnapshot ref_stats = master.stats().snapshot();
    ASSERT_FALSE(ref_pm.empty());

    for (const Mark &mark : marks) {
        PmSystem forked(sc);
        mark.ckpt.restore(forked);
        auto fwl = mark.wl->clone();
        for (std::size_t i = mark.nextOp; i < trace.size(); ++i)
            applyOp(forked, *fwl, trace[i]);

        EXPECT_TRUE(imageOf(forked.pm().memory()) == ref_pm)
            << "PM image diverged after restore at op " << mark.nextOp;
        EXPECT_TRUE(imageOf(forked.dram().memory()) == ref_dram)
            << "DRAM image diverged after restore at op "
            << mark.nextOp;
        EXPECT_EQ(forked.stats().snapshot(), ref_stats);
    }
}

/**
 * One multicore fuzz round: interleave per-core YCSB streams,
 * checkpointing (machine + cursors + commit log + scheduler
 * registers) at a quantum boundary; run the master out for the
 * reference; then restore into a fresh McMachine, resume with
 * runInterleavedFrom, and demand identical final images and merged
 * stats. With @p pm_system_master the one-core master is a PmSystem,
 * whose checkpoint must resume on the plain McMachine.
 */
void
fuzzMultiCore(SchemeKind scheme, LoggingStyle style,
              std::size_t cores, std::uint64_t seed,
              bool pm_system_master = false)
{
    McYcsbConfig rc;
    rc.workload = "hashtable";
    rc.numCores = cores;
    rc.opsPerCore = 10;
    rc.valueBytes = 32;
    rc.seed = seed;
    rc.sharedPct = 25;
    rc.sys = tinySystem(scheme, style);

    SystemConfig sys_cfg = rc.sys;
    sys_cfg.numCores = cores;
    const auto streams = mcYcsbStreams(rc);

    std::optional<PmSystem> sys;
    std::optional<McMachine> plain;
    McMachine &master = pm_system_master ? sys.emplace(sys_cfg)
                                         : plain.emplace(sys_cfg);
    auto wl = makeWorkload(rc.workload);
    wl->setup(master.context(0));

    std::vector<McOpRecord> commit_log;
    std::vector<std::unique_ptr<McYcsbDriver>> drivers;
    std::vector<McCoreDriver *> ptrs;
    for (std::size_t i = 0; i < cores; ++i) {
        drivers.push_back(std::make_unique<McYcsbDriver>(
            master.context(i), *wl, streams[i], commit_log));
        ptrs.push_back(drivers.back().get());
    }

    struct Mark
    {
        MachineCheckpoint ckpt;
        std::unique_ptr<Workload> wl;
        std::vector<std::size_t> cursors;
        std::size_t logSize = 0;
        McScheduleState sched;
    };
    std::vector<Mark> marks;

    runInterleaved(master, ptrs, rc.sched,
                   [&](const McScheduleState &st) {
                       if (st.quanta != 2)
                           return;
                       Mark m{MachineCheckpoint::capture(master),
                              wl->clone(),
                              {},
                              commit_log.size(),
                              st};
                       for (const auto &d : drivers)
                           m.cursors.push_back(d->position());
                       marks.push_back(std::move(m));
                   });
    ASSERT_EQ(marks.size(), 1u) << "run too short to hit quantum 2";

    const Image ref_pm = imageOf(master.pm().memory());
    const StatsSnapshot ref_stats = master.snapshot();
    const std::size_t ref_log = commit_log.size();

    const Mark &mark = marks.front();
    McMachine forked(sys_cfg);
    auto fwl = mark.wl->clone();
    mark.ckpt.restore(forked);

    std::vector<McOpRecord> flog(commit_log.begin(),
                                 commit_log.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         mark.logSize));
    std::vector<std::unique_ptr<McYcsbDriver>> fdrivers;
    std::vector<McCoreDriver *> fptrs;
    for (std::size_t i = 0; i < cores; ++i) {
        fdrivers.push_back(std::make_unique<McYcsbDriver>(
            forked.context(i), *fwl, streams[i], flog));
        fdrivers.back()->resumeAt(mark.cursors[i]);
        fptrs.push_back(fdrivers.back().get());
    }
    runInterleavedFrom(forked, fptrs, rc.sched, mark.sched);

    EXPECT_EQ(flog.size(), ref_log);
    EXPECT_TRUE(imageOf(forked.pm().memory()) == ref_pm)
        << "PM image diverged after multicore resume";
    EXPECT_EQ(forked.snapshot(), ref_stats);
}

TEST(CheckpointFuzz, AllSchemesUndoRestoreBitExact)
{
    for (const auto &[scheme, workload] : schemeWorkloads)
        fuzzSingleCore(scheme, workload, LoggingStyle::Undo,
                       1000 + static_cast<std::uint64_t>(scheme));
}

TEST(CheckpointFuzz, AllSchemesRedoRestoreBitExact)
{
    for (const auto &[scheme, workload] : schemeWorkloads)
        fuzzSingleCore(scheme, workload, LoggingStyle::Redo,
                       2000 + static_cast<std::uint64_t>(scheme));
}

TEST(CheckpointFuzz, MultiCoreResumeBitExact)
{
    for (const std::size_t cores : {1u, 2u, 4u}) {
        fuzzMultiCore(SchemeKind::SLPMT, LoggingStyle::Undo, cores,
                      3000 + cores);
        fuzzMultiCore(SchemeKind::FG, LoggingStyle::Redo, cores,
                      4000 + cores);
    }
    fuzzMultiCore(SchemeKind::SLPMT, LoggingStyle::Undo, 1, 5001,
                  /*pm_system_master=*/true);
}

/** A small machine with known content, for the encoding tests. */
MachineCheckpoint
sampleCheckpoint(PmSystem &sys)
{
    auto wl = makeWorkload("hashtable");
    wl->setup(sys);
    for (std::uint64_t k = 1; k <= 9; ++k)
        wl->insert(sys, 2 * k + 1, std::vector<std::uint8_t>(40, 7));
    return MachineCheckpoint::capture(sys);
}

TEST(CheckpointEncoding, ByteRoundTripRestoresIdentically)
{
    const SystemConfig sc =
        tinySystem(SchemeKind::SLPMT, LoggingStyle::Undo);
    PmSystem sys(sc);
    const MachineCheckpoint ckpt = sampleCheckpoint(sys);

    const auto bytes = ckpt.toBytes();
    const MachineCheckpoint back = MachineCheckpoint::fromBytes(bytes);
    EXPECT_EQ(back.configFingerprint(), ckpt.configFingerprint());
    EXPECT_EQ(back.pagesHeld(), ckpt.pagesHeld());

    PmSystem a(sc), b(sc);
    ckpt.restore(a);
    back.restore(b);
    EXPECT_TRUE(imageOf(a.pm().memory()) == imageOf(b.pm().memory()));
    EXPECT_TRUE(imageOf(a.dram().memory()) ==
                imageOf(b.dram().memory()));
    EXPECT_EQ(a.stats().snapshot(), b.stats().snapshot());
}

TEST(CheckpointEncoding, FileRoundTrip)
{
    const SystemConfig sc =
        tinySystem(SchemeKind::SLPMT_CL, LoggingStyle::Redo);
    PmSystem sys(sc);
    const MachineCheckpoint ckpt = sampleCheckpoint(sys);
    const auto bytes = ckpt.toBytes();

    const char *path = "checkpoint_roundtrip.ckpt.tmp";
    {
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    std::vector<std::uint8_t> read_back;
    {
        std::ifstream in(path, std::ios::binary);
        read_back.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
    }
    std::remove(path);
    ASSERT_EQ(read_back, bytes);

    PmSystem restored(sc);
    MachineCheckpoint::fromBytes(read_back).restore(restored);
    EXPECT_EQ(restored.stats().snapshot(), sys.stats().snapshot());
}

TEST(CheckpointEncoding, CorruptedBlobRejected)
{
    PmSystem sys(tinySystem(SchemeKind::SLPMT, LoggingStyle::Undo));
    auto bytes = sampleCheckpoint(sys).toBytes();
    bytes[bytes.size() / 2] ^= 0x5a;
    EXPECT_THROW(MachineCheckpoint::fromBytes(bytes), CheckpointError);
}

TEST(CheckpointEncoding, TruncatedBlobRejected)
{
    PmSystem sys(tinySystem(SchemeKind::SLPMT, LoggingStyle::Undo));
    auto bytes = sampleCheckpoint(sys).toBytes();
    for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                   bytes.size() / 2,
                                   bytes.size() - 5}) {
        std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              keep));
        EXPECT_THROW(MachineCheckpoint::fromBytes(cut),
                     CheckpointError);
    }
}

/** Recompute the CRC trailer after editing a blob's body. */
void
resealCrc(std::vector<std::uint8_t> &bytes)
{
    const std::size_t body = bytes.size() - 4;
    const std::uint32_t crc = crc32c(bytes.data(), body);
    for (std::size_t i = 0; i < 4; ++i)
        bytes[body + i] =
            static_cast<std::uint8_t>((crc >> (8 * i)) & 0xff);
}

TEST(CheckpointEncoding, VersionMismatchRejected)
{
    PmSystem sys(tinySystem(SchemeKind::SLPMT, LoggingStyle::Undo));
    const auto bytes = sampleCheckpoint(sys).toBytes();
    ASSERT_EQ(bytes[4], MachineCheckpoint::formatVersion);
    // Rewrite the format version field (bytes 4..7 after the magic) and
    // re-seal the CRC so only the version check can object: to the next
    // version, and to version 1, whose engine state still carried its
    // own sequence counter and crash countdown.
    for (const std::uint32_t version :
         {MachineCheckpoint::formatVersion + 1, std::uint32_t{1}}) {
        auto edited = bytes;
        edited[4] = static_cast<std::uint8_t>(version);
        resealCrc(edited);
        EXPECT_THROW(MachineCheckpoint::fromBytes(edited), CheckpointError)
            << "version " << version;
    }
}

TEST(CheckpointEncoding, MachineKindMismatchRejected)
{
    // The state blob opens with the machine tag, right after the
    // 24-byte header (magic, version, fingerprint, blob length). Tag 1
    // marked the retired single-core layout: re-sealed, such a blob
    // decodes but must not restore.
    const SystemConfig sc =
        tinySystem(SchemeKind::SLPMT, LoggingStyle::Undo);
    PmSystem sys(sc);
    auto bytes = sampleCheckpoint(sys).toBytes();
    ASSERT_EQ(bytes[24], 2u);
    bytes[24] = 1;
    resealCrc(bytes);
    const MachineCheckpoint old = MachineCheckpoint::fromBytes(bytes);
    PmSystem target(sc);
    EXPECT_THROW(old.restore(target), CheckpointError);
}

TEST(CheckpointEncoding, ConfigFingerprintMismatchRejected)
{
    PmSystem sys(tinySystem(SchemeKind::SLPMT, LoggingStyle::Undo));
    const MachineCheckpoint ckpt = sampleCheckpoint(sys);

    PmSystem other_scheme(
        tinySystem(SchemeKind::FG, LoggingStyle::Undo));
    EXPECT_THROW(ckpt.restore(other_scheme), CheckpointError);

    PmSystem other_style(
        tinySystem(SchemeKind::SLPMT, LoggingStyle::Redo));
    EXPECT_THROW(ckpt.restore(other_style), CheckpointError);
}

/** Shared sampled sweep configuration for the audit tests. */
CrashSweepConfig
auditSweepConfig()
{
    CrashSweepConfig cfg;
    cfg.scheme = SchemeKind::SLPMT;
    cfg.style = LoggingStyle::Undo;
    cfg.workload = "hashtable";
    cfg.tinyCache = true;
    cfg.mix.numOps = 10;
    cfg.mix.valueBytes = 48;
    cfg.mix.insertPct = 70;
    cfg.mix.updatePct = 20;
    cfg.mix.removePct = 10;
    cfg.maxPoints = 10;
    cfg.checkpointInterval = 24;
    return cfg;
}

/** A target's checkpointed sweep against its audit sweep, each at
 *  its own worker count: byte-identical JSON reports, and the same
 *  victim shard at every point. Returns the checkpointed report. */
template <class Config>
CrashSweepReport
expectCheckpointedMatchesAudit(Config cfg,
                               CrashSweepReport (*sweep)(const Config &),
                               std::size_t ckpt_workers,
                               std::size_t audit_workers)
{
    cfg.useCheckpoints = true;
    cfg.workers = ckpt_workers;
    const CrashSweepReport checkpointed = sweep(cfg);

    cfg.useCheckpoints = false;
    cfg.workers = audit_workers;
    const CrashSweepReport audit = sweep(cfg);

    EXPECT_EQ(checkpointed.toJson(), audit.toJson());
    // The victim shard is not part of the JSON report.
    auto shards = [](const CrashSweepReport &report) {
        std::vector<std::size_t> out;
        for (const auto &point : report.points)
            out.push_back(point.crashShard);
        return out;
    };
    EXPECT_EQ(shards(checkpointed), shards(audit));
    return checkpointed;
}

/**
 * maxPoints == 0 with checkpoints and two or more workers takes the
 * pipelined tail-replay path: the master publishes bases while tail
 * threads fork and replay points concurrently. The from-scratch audit
 * sweep of the same target is the reference.
 */
template <class Config>
void
expectPipelinedMatchesAudit(Config cfg,
                            CrashSweepReport (*sweep)(const Config &),
                            std::size_t workers)
{
    cfg.maxPoints = 0;
    const CrashSweepReport pipelined =
        expectCheckpointedMatchesAudit(cfg, sweep, workers, workers);
    EXPECT_EQ(pipelined.violationCount(), 0u)
        << pipelined.violationsText();
    EXPECT_GT(pipelined.pointsExplored(), 10u);
}

TEST(CheckpointAudit, SingleCoreReportMatchesNoCheckpointMode)
{
    expectCheckpointedMatchesAudit(auditSweepConfig(), runCrashSweep, 3,
                                   1);
}

TEST(CheckpointAudit, SingleCoreRedoReportMatchesNoCheckpointMode)
{
    CrashSweepConfig cfg = auditSweepConfig();
    cfg.style = LoggingStyle::Redo;
    cfg.scheme = SchemeKind::FG_LZ;
    cfg.workload = "kv-ctree";
    expectCheckpointedMatchesAudit(cfg, runCrashSweep, 2, 4);
}

TEST(CheckpointAudit, MultiCoreReportMatchesNoCheckpointMode)
{
    McCrashSweepConfig cfg;
    cfg.scheme = SchemeKind::SLPMT;
    cfg.style = LoggingStyle::Undo;
    cfg.tinyCache = true;
    cfg.run.workload = "hashtable";
    cfg.run.numCores = 2;
    cfg.run.opsPerCore = 6;
    cfg.run.valueBytes = 32;
    cfg.maxPoints = 8;
    cfg.checkpointInterval = 24;
    expectCheckpointedMatchesAudit(cfg, runMcCrashSweep, 3, 1);
}

TEST(CheckpointAudit, ServiceReportMatchesNoCheckpointMode)
{
    ServiceCrashConfig cfg;
    cfg.tinyCache = true;
    cfg.numShards = 3;
    cfg.load.keySpace = std::size_t{1} << 14;
    cfg.load.preloadRecords = 24;
    cfg.load.numOps = 32;
    cfg.maxPoints = 12;
    cfg.checkpointInterval = 48;
    expectCheckpointedMatchesAudit(cfg, runServiceCrashSweep, 3, 1);
}

TEST(CheckpointAudit, PipelinedExhaustiveSweepMatchesFromScratch)
{
    CrashSweepConfig cfg;
    cfg.scheme = SchemeKind::SLPMT;
    cfg.style = LoggingStyle::Undo;
    cfg.workload = "rbtree";
    cfg.mix.numOps = 24;
    cfg.mix.valueBytes = 256;
    cfg.mix.seed = 42;
    cfg.mix.insertPct = 80;
    cfg.mix.updatePct = 12;
    cfg.mix.removePct = 8;
    cfg.tinyCache = true;
    cfg.checkpointInterval = 16;
    expectPipelinedMatchesAudit(cfg, runCrashSweep, 3);
}

TEST(CheckpointAudit, McPipelinedExhaustiveSweepMatchesFromScratch)
{
    McCrashSweepConfig cfg;
    cfg.scheme = SchemeKind::SLPMT;
    cfg.style = LoggingStyle::Undo;
    cfg.run.workload = "hashtable";
    cfg.run.numCores = 2;
    cfg.run.opsPerCore = 12;
    cfg.run.valueBytes = 128;
    cfg.run.seed = 42;
    cfg.run.sharedPct = 25;
    cfg.tinyCache = true;
    cfg.checkpointInterval = 16;
    expectPipelinedMatchesAudit(cfg, runMcCrashSweep, 2);
}

TEST(CheckpointAudit, ServicePipelinedExhaustiveSweepMatchesFromScratch)
{
    ServiceCrashConfig cfg;
    cfg.numShards = 2;
    cfg.tinyCache = true;
    cfg.checkpointInterval = 16;
    cfg.load.keySpace = std::size_t{1} << 14;
    cfg.load.preloadRecords = 8;
    cfg.load.numOps = 16;
    cfg.load.valueBytesMin = 48;
    cfg.load.valueBytesMax = 96;
    cfg.load.seed = 5;
    expectPipelinedMatchesAudit(cfg, runServiceCrashSweep, 3);
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
