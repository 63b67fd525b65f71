/**
 * @file
 * Machine checkpoint/restore correctness.
 *
 * The contract under test is bit-exactness: restoring a checkpoint
 * into a freshly constructed machine, or into a used one, and
 * continuing the run must be indistinguishable — byte-identical PM
 * and DRAM images, identical stats registries — from the run that
 * never checkpointed. The fuzz crosses all seven schemes with both
 * logging styles on the one-core PmSystem, and 1/2/4-core interleaved
 * runs on the McMachine (checkpointed at scheduler quantum boundaries
 * and resumed through runInterleavedFrom; a PmSystem master must
 * resume on a plain one-core McMachine), on tiny caches and on a few
 * rounds at the Table III geometry. Every mark is restored into a
 * fresh machine and into one used machine (usedHistory()), and a
 * capture of the restored machine must equal the mark's checkpoint. A
 * checkpoint holds typed state values, not bytes: it must refuse to
 * restore into a machine of any other configuration.
 *
 * The CheckpointAudit suite is the cross-mode oracle the
 * checkpoint-audit ctest preset runs: a checkpointed sweep's JSON
 * report must be byte-identical to the --no-checkpoint audit sweep's
 * on every target (core, mc, service), at any worker count, for
 * sampled and for exhaustive multi-worker sweeps.
 */

#include <gtest/gtest.h>

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

/** A machine of @p scheme and @p style at the Table III geometry,
 *  whose large arrays stay mostly empty. */
SystemConfig
tableIIISystem(SchemeKind scheme, LoggingStyle style)
{
    SystemConfig sc;
    sc.scheme = SchemeConfig::forKind(scheme);
    sc.style = style;
    return sc;
}

SystemConfig
tinySystem(SchemeKind scheme, LoggingStyle style)
{
    SystemConfig sc = tableIIISystem(scheme, style);
    sc.hierarchy.l1 = CacheConfig{"L1", 1024, 2, 4};
    sc.hierarchy.l2 = CacheConfig{"L2", 2048, 2, 12};
    sc.hierarchy.l3 = CacheConfig{"L3", 4096, 4, 40};
    return sc;
}

/** Builds a round's machine configuration. */
using Geometry = SystemConfig (*)(SchemeKind, LoggingStyle);

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
 * What a sweep point leaves in its machine, finished on @p machine
 * after a tail that crashed mid-transaction (the armed countdown
 * fired): recovery and a fresh insert on core @p core; junk made
 * durable in a PM page no run touches (the heap's last line); then one
 * more transaction, left open with a logged store in flight. A
 * restore into this machine must leave none of it behind.
 */
void
usedHistory(McMachine &machine, Workload &wl, std::size_t core)
{
    machine.armCrashAfterStores(0);
    machine.recover();
    wl.recover(machine.context(core));
    PmContext &ctx = machine.context(core);
    wl.insert(ctx, 2 * 0x5eed, std::vector<std::uint8_t>(40, 0xa5));

    const std::vector<std::uint8_t> junk(cacheLineSize, 0x3c);
    const PersistentHeap &heap = machine.heap();
    ctx.txBegin();
    ctx.writeBytes(heap.base() + heap.size() - cacheLineSize, junk.data(),
                   junk.size());
    ctx.txCommit();
    machine.quiesce();
    ctx.txBegin();
    ctx.writeBytes(heap.base(), junk.data(), junk.size());
}

/**
 * One single-core fuzz round: run a mixed trace, checkpointing at
 * one third and two thirds; continue to the end for the reference
 * state; then restore each checkpoint into a fresh machine, replay
 * its tail, and demand identical final images and stats. Then restore
 * each checkpoint again into one used machine (usedHistory()) and
 * demand the same.
 */
void
fuzzSingleCore(SchemeKind scheme, const std::string &workload,
               LoggingStyle style, std::uint64_t seed,
               Geometry geometry = tinySystem)
{
    YcsbMixConfig mix;
    mix.numOps = 18;
    mix.valueBytes = 48;
    mix.seed = seed;
    mix.insertPct = 70;
    mix.updatePct = 20;
    mix.removePct = 10;
    const auto trace = ycsbMixedLoad(mix);

    const SystemConfig sc = geometry(scheme, style);
    PmSystem master(sc);
    auto wl = makeWorkload(workload);
    wl->setup(master);

    struct Mark
    {
        MachineCheckpoint ckpt;
        std::unique_ptr<Workload> wl;
        std::size_t nextOp;
        std::uint64_t stores;  //!< stores executed at capture
    };
    std::vector<Mark> marks;

    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (i == trace.size() / 3 || i == 2 * trace.size() / 3)
            marks.push_back(Mark{MachineCheckpoint::capture(master),
                                 wl->clone(), i,
                                 master.engine().storesExecuted()});
        applyOp(master, *wl, trace[i]);
    }

    const Image ref_pm = imageOf(master.pm().memory());
    const Image ref_dram = imageOf(master.dram().memory());
    const StatsSnapshot ref_stats = master.stats().snapshot();
    const std::uint64_t ref_stores = master.engine().storesExecuted();
    ASSERT_FALSE(ref_pm.empty());

    // Restore @p mark into @p machine, replay its tail and compare.
    auto expectTail = [&](PmSystem &machine, const Mark &mark,
                          const char *into) {
        mark.ckpt.restore(machine);
        EXPECT_TRUE(MachineCheckpoint::capture(machine) == mark.ckpt)
            << "restore into a " << into << " machine lost state";
        auto fwl = mark.wl->clone();
        for (std::size_t i = mark.nextOp; i < trace.size(); ++i)
            applyOp(machine, *fwl, trace[i]);

        EXPECT_TRUE(imageOf(machine.pm().memory()) == ref_pm)
            << "PM image diverged after restore at op " << mark.nextOp
            << " into a " << into << " machine";
        EXPECT_TRUE(imageOf(machine.dram().memory()) == ref_dram)
            << "DRAM image diverged after restore at op " << mark.nextOp
            << " into a " << into << " machine";
        EXPECT_EQ(machine.stats().snapshot(), ref_stats) << into;
    };

    for (const Mark &mark : marks) {
        PmSystem forked(sc);
        expectTail(forked, mark, "fresh");
    }

    PmSystem used(sc);
    for (std::size_t m = 0; m < marks.size(); ++m) {
        const Mark &other = marks[(m + 1) % marks.size()];
        other.ckpt.restore(used);
        auto owl = other.wl->clone();
        used.armCrashAfterStores((ref_stores - other.stores) / 2 + 1);
        try {
            for (std::size_t i = other.nextOp; i < trace.size(); ++i)
                applyOp(used, *owl, trace[i]);
        } catch (const CrashInjected &) {
        }
        usedHistory(used, *owl, 0);
        expectTail(used, marks[m], "used");
    }
}

/**
 * One multicore fuzz round: interleave per-core YCSB streams,
 * checkpointing (machine + cursors + commit log + scheduler
 * registers) at two quantum boundaries; run the master out for the
 * reference; then restore each into a fresh McMachine, resume with
 * runInterleavedFrom, and demand identical final images and merged
 * stats. Then restore each again into one used machine
 * (usedHistory()) and demand the same. With @p pm_system_master the
 * one-core master is a PmSystem, whose checkpoint must resume on the
 * plain McMachine.
 */
void
fuzzMultiCore(SchemeKind scheme, LoggingStyle style,
              std::size_t cores, std::uint64_t seed,
              bool pm_system_master = false,
              Geometry geometry = tinySystem)
{
    McYcsbConfig rc;
    rc.workload = "hashtable";
    rc.numCores = cores;
    rc.opsPerCore = 10;
    rc.valueBytes = 32;
    rc.seed = seed;
    rc.sharedPct = 25;
    rc.sys = geometry(scheme, style);

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
        std::uint64_t stores = 0;  //!< stores executed at capture
    };
    std::vector<Mark> marks;

    runInterleaved(master, ptrs, rc.sched,
                   [&](const McScheduleState &st) {
                       if (st.quanta != 1 && st.quanta != 2)
                           return;
                       Mark m{MachineCheckpoint::capture(master),
                              wl->clone(),
                              {},
                              commit_log.size(),
                              st,
                              master.storesExecuted()};
                       for (const auto &d : drivers)
                           m.cursors.push_back(d->position());
                       marks.push_back(std::move(m));
                   });
    ASSERT_EQ(marks.size(), 2u) << "run too short to hit quantum 2";

    const Image ref_pm = imageOf(master.pm().memory());
    const Image ref_dram = imageOf(master.dram().memory());
    const StatsSnapshot ref_stats = master.snapshot();
    const std::size_t ref_log = commit_log.size();
    const std::uint64_t ref_stores = master.storesExecuted();

    // Restore @p mark into @p machine and resume its interleaving with
    // @p arm stores to go (0: none); returns the workload clone.
    std::vector<McOpRecord> flog;
    auto resume = [&](McMachine &machine, const Mark &mark,
                      std::uint64_t arm) {
        auto fwl = mark.wl->clone();
        mark.ckpt.restore(machine);
        EXPECT_TRUE(MachineCheckpoint::capture(machine) == mark.ckpt);
        flog.assign(commit_log.begin(),
                    commit_log.begin() +
                        static_cast<std::ptrdiff_t>(mark.logSize));
        std::vector<std::unique_ptr<McYcsbDriver>> fdrivers;
        std::vector<McCoreDriver *> fptrs;
        for (std::size_t i = 0; i < cores; ++i) {
            fdrivers.push_back(std::make_unique<McYcsbDriver>(
                machine.context(i), *fwl, streams[i], flog));
            fdrivers.back()->resumeAt(mark.cursors[i]);
            fptrs.push_back(fdrivers.back().get());
        }
        machine.armCrashAfterStores(arm);
        runInterleavedFrom(machine, fptrs, rc.sched, mark.sched);
        return fwl;
    };
    auto expectSame = [&](McMachine &machine, const char *into) {
        EXPECT_EQ(flog.size(), ref_log) << into;
        EXPECT_TRUE(imageOf(machine.pm().memory()) == ref_pm)
            << "PM image diverged after multicore resume into a " << into
            << " machine";
        EXPECT_TRUE(imageOf(machine.dram().memory()) == ref_dram)
            << "DRAM image diverged after multicore resume into a "
            << into << " machine";
        EXPECT_EQ(machine.snapshot(), ref_stats) << into;
    };

    for (const Mark &mark : marks) {
        McMachine forked(sys_cfg);
        resume(forked, mark, 0);
        expectSame(forked, "fresh");
    }

    McMachine used(sys_cfg);
    for (std::size_t m = 0; m < marks.size(); ++m) {
        const Mark &other = marks[(m + 1) % marks.size()];
        auto owl = resume(used, other, (ref_stores - other.stores) / 2 + 1);
        usedHistory(used, *owl, cores - 1);
        resume(used, marks[m], 0);
        expectSame(used, "used");
    }
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

/**
 * The same rounds at the Table III geometry: every capture walks
 * large, mostly empty arrays, and every restore into the used machine
 * must clear exactly the sets that machine filled.
 */
TEST(CheckpointFuzz, TableIIIRestoreBitExact)
{
    fuzzSingleCore(SchemeKind::SLPMT, "kv-btree", LoggingStyle::Undo, 6001,
                   tableIIISystem);
    fuzzSingleCore(SchemeKind::FG, "hashtable", LoggingStyle::Redo, 6002,
                   tableIIISystem);
    fuzzMultiCore(SchemeKind::SLPMT, LoggingStyle::Undo, 2, 6003,
                  /*pm_system_master=*/false, tableIIISystem);
}

/** A small machine with known content, for the configuration test. */
MachineCheckpoint
sampleCheckpoint(PmSystem &sys)
{
    auto wl = makeWorkload("hashtable");
    wl->setup(sys);
    for (std::uint64_t k = 1; k <= 9; ++k)
        wl->insert(sys, 2 * k + 1, std::vector<std::uint8_t>(40, 7));
    return MachineCheckpoint::capture(sys);
}

/** A checkpoint restores only into a machine whose configuration
 *  equals the one it was captured from. */
TEST(CheckpointRestore, ConfigMismatchRejected)
{
    const SystemConfig sc =
        tinySystem(SchemeKind::SLPMT, LoggingStyle::Undo);
    PmSystem sys(sc);
    const MachineCheckpoint ckpt = sampleCheckpoint(sys);
    McMachine same(sc);
    EXPECT_NO_THROW(ckpt.restore(same));

    SystemConfig two_cores = sc;
    two_cores.numCores = 2;
    SystemConfig wider_l2 = sc;
    wider_l2.hierarchy.l2.ways = 4;
    SystemConfig slower_pm = sc;
    slower_pm.pm.writeLatencyNs = 2300;
    const std::pair<const char *, SystemConfig> others[] = {
        {"scheme", tinySystem(SchemeKind::FG, LoggingStyle::Undo)},
        {"style", tinySystem(SchemeKind::SLPMT, LoggingStyle::Redo)},
        {"core count", two_cores},
        {"L2 geometry", wider_l2},
        {"PM write latency", slower_pm},
    };
    for (const auto &[what, cfg] : others) {
        McMachine other(cfg);
        EXPECT_THROW(ckpt.restore(other), CheckpointError) << what;
    }
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
 * maxPoints == 0: every store, forked by @p workers threads at once,
 * each walking its chunks from the finished master's bases. (These
 * tests once covered a path that overlapped the points with the master
 * run; their names keep it.) The from-scratch audit sweep of the same
 * target is the reference.
 */
template <class Config>
void
expectExhaustiveMatchesAudit(Config cfg,
                             CrashSweepReport (*sweep)(const Config &),
                             std::size_t workers)
{
    cfg.maxPoints = 0;
    const CrashSweepReport exhaustive =
        expectCheckpointedMatchesAudit(cfg, sweep, workers, workers);
    EXPECT_EQ(exhaustive.violationCount(), 0u)
        << exhaustive.violationsText();
    EXPECT_GT(exhaustive.pointsExplored(), 10u);
}

TEST(CheckpointAudit, SingleCoreReportMatchesNoCheckpointMode)
{
    expectCheckpointedMatchesAudit(auditSweepConfig(), runCrashSweep, 3,
                                   1);
}

TEST(CheckpointAudit, TableIIISingleCoreReportMatchesNoCheckpointMode)
{
    // Table III geometry: every walker restore, fork and crash copies
    // and flushes arrays far larger than the lines they hold.
    CrashSweepConfig cfg = auditSweepConfig();
    cfg.tinyCache = false;
    cfg.mix.numOps = 200;
    cfg.maxPoints = 60;
    expectCheckpointedMatchesAudit(cfg, runCrashSweep, 3, 1);
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
    expectExhaustiveMatchesAudit(cfg, runCrashSweep, 3);
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
    expectExhaustiveMatchesAudit(cfg, runMcCrashSweep, 2);
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
    expectExhaustiveMatchesAudit(cfg, runServiceCrashSweep, 3);
}

// ---------------------------------------------------------------------
// The walk against the audit on sweeps past the hashtable's first
// resize (48 keys): a resize is one op of a few hundred stores, and
// bases land only between ops, so far more points share a base than
// one chunk of the walk holds. Each point inside the resize forks from
// the walker at its own store; the audit walks from setup to each
// point and crashes in place.
// ---------------------------------------------------------------------

/** @p cfg checkpointed at one worker and at four against one audit at
 *  four workers: byte-identical JSON reports and victim shards. */
template <class Config>
void
expectWalkMatchesAudit(Config cfg, CrashSweepReport (*sweep)(const Config &))
{
    cfg.useCheckpoints = false;
    cfg.workers = 4;
    const CrashSweepReport audit = sweep(cfg);
    EXPECT_EQ(audit.violationCount(), 0u) << audit.violationsText();
    for (const std::size_t workers : {1u, 4u}) {
        cfg.useCheckpoints = true;
        cfg.workers = workers;
        const CrashSweepReport walked = sweep(cfg);
        EXPECT_EQ(walked.toJson(), audit.toJson()) << workers;
        for (std::size_t i = 0; i < walked.points.size(); ++i)
            EXPECT_EQ(walked.points[i].crashShard,
                      audit.points[i].crashShard);
    }
}

TEST(SweepWalk, CoreResizeSweepMatchesTheAudit)
{
    // The 70-op 80/20 trace of CrashSweepDigest's resize pin.
    CrashSweepConfig cfg;
    cfg.workload = "hashtable";
    cfg.tinyCache = true;
    cfg.mix.numOps = 70;
    cfg.mix.valueBytes = 32;
    cfg.mix.seed = 42;
    cfg.mix.insertPct = 80;
    cfg.mix.updatePct = 20;
    cfg.mix.removePct = 0;
    cfg.maxPoints = 0;
    expectWalkMatchesAudit(cfg, runCrashSweep);
}

TEST(SweepWalk, McResizeSweepMatchesTheAudit)
{
    McCrashSweepConfig cfg;
    cfg.tinyCache = true;
    cfg.run.workload = "hashtable";
    cfg.run.numCores = 2;
    cfg.run.opsPerCore = 40;
    cfg.run.valueBytes = 32;
    cfg.run.seed = 42;
    cfg.maxPoints = 0;
    expectWalkMatchesAudit(cfg, runMcCrashSweep);
}

TEST(SweepWalk, ServiceResizeSweepMatchesTheAudit)
{
    // Over 100 preload records per shard, and one base per 1,024
    // stores: hundreds of points per base.
    ServiceCrashConfig cfg;
    cfg.numShards = 2;
    cfg.tinyCache = true;
    cfg.checkpointInterval = 1024;
    cfg.load.mix = YcsbMix::A;
    cfg.load.keySpace = std::size_t{1} << 14;
    cfg.load.preloadRecords = 220;
    cfg.load.numOps = 8;
    cfg.load.valueBytesMin = 48;
    cfg.load.valueBytesMax = 96;
    cfg.load.seed = 5;
    cfg.maxPoints = 600;
    expectWalkMatchesAudit(cfg, runServiceCrashSweep);
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
