/**
 * @file
 * The multicore machine: topology validation, the coherence directory
 * (invalidations, downgrades, remote-forced lazy drains, conflict
 * aborts), the Section V-C context-switch drain, scheduler
 * determinism, the merged per-core statistics namespace, and the
 * oracle view (newest copies, no side effects, refused mutations).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "core/pm_system.hh"
#include "multicore/machine.hh"
#include "multicore/mc_ycsb.hh"
#include "multicore/oracle_view.hh"
#include "multicore/scheduler.hh"
#include "test_util.hh"

namespace slpmt
{
namespace
{

SystemConfig
mcConfig(std::size_t cores,
         SchemeKind kind = SchemeKind::SLPMT,
         LoggingStyle style = LoggingStyle::Undo)
{
    SystemConfig cfg;
    cfg.scheme = SchemeConfig::forKind(kind);
    cfg.style = style;
    cfg.numCores = cores;
    return cfg;
}

/** One committed transaction writing @p words distinct lines. */
void
commitLines(PmContext &ctx, Addr base, std::size_t lines,
            std::uint64_t salt, StoreFlags flags = {})
{
    ctx.txBegin();
    for (std::size_t i = 0; i < lines; ++i)
        ctx.writeT<std::uint64_t>(base + i * cacheLineSize,
                                  mix64Salted(i, salt), flags);
    ctx.txCommit();
}

// ---------------------------------------------------------------------
// Topology validation
// ---------------------------------------------------------------------

TEST(McTopology, PmSystemRejectsMultipleCores)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    EXPECT_THROW(PmSystem sys(cfg), PanicError);
}

TEST(McTopology, McMachineValidatesCoreCount)
{
    EXPECT_THROW(McMachine m(mcConfig(0)), PanicError);
    EXPECT_THROW(McMachine m(mcConfig(17)), PanicError);
    McMachine ok(mcConfig(1));
    EXPECT_EQ(ok.numCores(), 1u);
    McMachine wide(mcConfig(16));
    EXPECT_EQ(wide.numCores(), 16u);
}

// ---------------------------------------------------------------------
// Coherence directory: MESI side
// ---------------------------------------------------------------------

TEST(McCoherence, RemoteWriteInvalidatesAndTransfersDirtyData)
{
    McMachine m(mcConfig(2));
    const Addr base = m.heap().alloc(4 * cacheLineSize);

    // Core 0 dirties a line inside a committed transaction.
    commitLines(m.context(0), base, 1, 0xaa);
    const std::uint64_t expected = mix64Salted(0, 0xaa);
    EXPECT_EQ(m.context(0).read<std::uint64_t>(base), expected);

    const StatsSnapshot before = m.snapshot();

    // Core 1 overwrites the same line: the directory must find core
    // 0's private copy, surrender it, and invalidate it there.
    m.context(1).txBegin();
    m.context(1).write<std::uint64_t>(base, 99u);
    m.context(1).txCommit();

    const StatsSnapshot after = m.snapshot();
    EXPECT_GT(after.at("multicore.probes"), before.at("multicore.probes"));
    EXPECT_GT(after.at("multicore.remoteHits"),
              before.at("multicore.remoteHits"));
    EXPECT_GT(after.at("multicore.invalidations"),
              before.at("multicore.invalidations"));

    // Both cores agree on the new value (coherent transfer).
    EXPECT_EQ(m.context(1).read<std::uint64_t>(base), 99u);
    EXPECT_EQ(m.context(0).read<std::uint64_t>(base), 99u);
}

TEST(McCoherence, RemoteReadDowngradesDirtyLine)
{
    McMachine m(mcConfig(2));
    const Addr base = m.heap().alloc(4 * cacheLineSize);

    // A non-transactional store leaves the line dirty in core 0's
    // private cache (an eager commit would have persisted and cleaned
    // it, and clean metadata-free copies stay put on remote loads).
    m.context(0).write<std::uint64_t>(base, 0xbeefu);

    const StatsSnapshot before = m.snapshot();
    EXPECT_EQ(m.context(1).read<std::uint64_t>(base), 0xbeefu);
    const StatsSnapshot after = m.snapshot();

    EXPECT_GT(after.at("multicore.downgrades"),
              before.at("multicore.downgrades"));
    EXPECT_EQ(after.at("multicore.invalidations"),
              before.at("multicore.invalidations"));
}

// ---------------------------------------------------------------------
// Coherence directory: the paper's cross-transaction observation rules
// ---------------------------------------------------------------------

TEST(McCoherence, RemoteStoreSignatureHitForcesLazyDrain)
{
    McMachine m(mcConfig(2));
    const Addr base = m.heap().alloc(4 * cacheLineSize);

    // Core 0 commits a lazy transaction: data stays volatile, the
    // signature remembers its lines.
    commitLines(m.context(0), base, 2, 0xcc, StoreFlags{.lazy = true});
    ASSERT_GT(m.core(0).engine().lazyOutstandingCount(), 0u);

    // Core 1 *stores* to one of those lines: the store-triggered
    // signature check (Section III-C3) fires across the directory.
    m.context(1).txBegin();
    m.context(1).write<std::uint64_t>(base, 7u);
    m.context(1).txCommit();

    const StatsSnapshot s = m.snapshot();
    EXPECT_GE(s.at("multicore.remoteDrains.sigHit"), 1u);
    EXPECT_GE(s.at("core0.txn.lazyDrain.remoteSigHit"), 1u);
    EXPECT_EQ(m.core(0).engine().lazyOutstandingCount(), 0u);
}

TEST(McCoherence, RemoteReadOfOwnedLineForcesLazyDrain)
{
    McMachine m(mcConfig(2));
    const Addr base = m.heap().alloc(4 * cacheLineSize);

    commitLines(m.context(0), base, 2, 0xdd, StoreFlags{.lazy = true});
    ASSERT_GT(m.core(0).engine().lazyOutstandingCount(), 0u);

    // Core 1 *loads* one of those lines: loads skip the signature
    // check, but the line-owner txn-ID check still observes the
    // committed transaction's metadata on the transferred line.
    EXPECT_EQ(m.context(1).read<std::uint64_t>(base),
              mix64Salted(0, 0xdd));

    const StatsSnapshot s = m.snapshot();
    EXPECT_GE(s.at("multicore.remoteDrains.idObserved"), 1u);
    EXPECT_GE(s.at("core0.txn.lazyDrain.remoteIdObserved"), 1u);
    EXPECT_EQ(s.at("multicore.remoteDrains.sigHit"), 0u);
    EXPECT_EQ(m.core(0).engine().lazyOutstandingCount(), 0u);
}

TEST(McCoherence, ProbeAbortsConflictingInFlightTransaction)
{
    McMachine m(mcConfig(2));
    const Addr base = m.heap().alloc(4 * cacheLineSize);

    std::vector<std::size_t> aborted;
    m.setConflictHandler([&](std::size_t core) {
        aborted.push_back(core);
    });

    // Core 0 holds an in-flight transaction over the line.
    m.context(0).txBegin();
    m.context(0).write<std::uint64_t>(base, 1u);
    ASSERT_TRUE(m.context(0).inTransaction());

    // Core 1 writes the same line: requester wins, the suspended
    // transaction aborts, the handler hears about it.
    m.context(1).txBegin();
    m.context(1).write<std::uint64_t>(base, 2u);
    m.context(1).txCommit();

    EXPECT_FALSE(m.context(0).inTransaction());
    ASSERT_EQ(aborted.size(), 1u);
    EXPECT_EQ(aborted[0], 0u);

    const StatsSnapshot s = m.snapshot();
    EXPECT_EQ(s.at("multicore.conflictAborts"), 1u);
    EXPECT_EQ(s.at("core0.txn.aborted"), 1u);
    EXPECT_EQ(s.at("core1.txn.committed"), 1u);

    // The winner's value survives; the aborted store was undone.
    EXPECT_EQ(m.context(0).read<std::uint64_t>(base), 2u);
}

// ---------------------------------------------------------------------
// Section V-C: the context-switch drain
// ---------------------------------------------------------------------

/** In-flight transaction with a few buffered log records. */
void
beginBuffered(PmContext &ctx, Addr base, std::size_t lines,
              std::uint64_t salt)
{
    ctx.txBegin();
    for (std::size_t i = 0; i < lines; ++i)
        ctx.write<std::uint64_t>(base + i * cacheLineSize,
                                 mix64Salted(i, salt));
}

TEST(McContextSwitch, QuantumExpiryDrainMatchesPmSystemOrder)
{
    const SystemConfig cfg = mcConfig(1);

    // Reference: the engine's Section V-C contextSwitch(), called
    // directly on the one-core PmSystem.
    PmSystem sys(cfg);
    const Addr base = sys.heap().alloc(8 * cacheLineSize);
    beginBuffered(sys, base, 5, 0x51);
    ASSERT_GT(sys.engine().buffer().size(), 0u);
    sys.engine().contextSwitch();
    const auto want = sys.engine().logArea().scanValid();
    ASSERT_GT(want.size(), 0u);

    // The machine path: noteQuantumExpiry() on the departing core.
    McMachine m(cfg);
    const Addr mc_base = m.heap().alloc(8 * cacheLineSize);
    ASSERT_EQ(mc_base, base);
    beginBuffered(m.context(0), mc_base, 5, 0x51);
    m.noteQuantumExpiry(0);
    const auto got = m.core(0).engine().logArea().scanValid();

    // Same records, same log order: the drain order is pinned.
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].base, want[i].base) << i;
        EXPECT_EQ(got[i].words, want[i].words) << i;
        EXPECT_EQ(got[i].txnSeq, want[i].txnSeq) << i;
    }
    EXPECT_EQ(m.core(0).engine().buffer().size(), 0u);
    EXPECT_EQ(m.snapshot().at("multicore.ctxSwitchDrains"), 1u);

    m.context(0).txCommit();
    sys.txCommit();
}

TEST(McContextSwitch, DrainIsPerCoreOnly)
{
    McMachine m(mcConfig(2));
    const Addr base = m.heap().alloc(16 * cacheLineSize);

    // Both cores hold buffered records on disjoint lines.
    beginBuffered(m.context(0), base, 4, 0x61);
    beginBuffered(m.context(1), base + 8 * cacheLineSize, 4, 0x62);
    ASSERT_GT(m.core(0).engine().buffer().size(), 0u);
    const std::size_t peer = m.core(1).engine().buffer().size();
    ASSERT_GT(peer, 0u);

    // Only the departing core drains; the peer keeps batching.
    m.noteQuantumExpiry(0);
    EXPECT_EQ(m.core(0).engine().buffer().size(), 0u);
    EXPECT_EQ(m.core(1).engine().buffer().size(), peer);
    EXPECT_EQ(m.snapshot().at("multicore.ctxSwitchDrains"), 1u);

    m.context(0).txCommit();
    m.context(1).txCommit();
}

// ---------------------------------------------------------------------
// Statistics namespace
// ---------------------------------------------------------------------

TEST(McStats, SnapshotMergesSharedAndPrefixedPerCoreCounters)
{
    McMachine m(mcConfig(4));
    const Addr base = m.heap().alloc(8 * cacheLineSize);
    for (std::size_t c = 0; c < 4; ++c)
        commitLines(m.context(c), base + c * cacheLineSize, 1, c);

    const StatsSnapshot s = m.snapshot();

    // Shared counters appear bare, per-core ones prefixed, and every
    // core contributes the same instrument set.
    EXPECT_TRUE(s.count("pm.bytesWritten"));
    EXPECT_TRUE(s.count("multicore.probes"));
    std::size_t percore[4] = {0, 0, 0, 0};
    for (const auto &[key, value] : s) {
        for (std::size_t c = 0; c < 4; ++c) {
            const std::string prefix = "core" + std::to_string(c) + ".";
            if (key.compare(0, prefix.size(), prefix) == 0)
                ++percore[c];
        }
    }
    EXPECT_GT(percore[0], 0u);
    EXPECT_EQ(percore[0], percore[1]);
    EXPECT_EQ(percore[0], percore[2]);
    EXPECT_EQ(percore[0], percore[3]);

    // No bare engine-level counter leaks into the merged view: all
    // txn.* live under coreN. prefixes.
    for (const auto &[key, value] : s)
        EXPECT_NE(key.compare(0, 4, "txn."), 0) << key;

    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_EQ(s.at("core" + std::to_string(c) + ".txn.committed"),
                  1u);
}

TEST(McStats, SharedSequenceCounterKeepsTxnTagsGloballyUnique)
{
    McMachine m(mcConfig(2));
    const Addr base = m.heap().alloc(8 * cacheLineSize);

    // Interleave begins so both engines pull from the shared source.
    std::set<std::uint64_t> seqs;
    for (int round = 0; round < 3; ++round) {
        for (std::size_t c = 0; c < 2; ++c) {
            m.context(c).txBegin();
            EXPECT_TRUE(
                seqs.insert(m.core(c).engine().currentTxnSeq()).second);
        }
        for (std::size_t c = 0; c < 2; ++c) {
            m.context(c).write<std::uint64_t>(
                base + (round * 2 + c) * cacheLineSize, round);
            m.context(c).txCommit();
        }
    }
    EXPECT_EQ(seqs.size(), 6u);
}

// ---------------------------------------------------------------------
// Scheduler determinism
// ---------------------------------------------------------------------

McYcsbConfig
smallYcsb(std::size_t cores, bool weighted)
{
    McYcsbConfig cfg;
    cfg.numCores = cores;
    cfg.opsPerCore = 20;
    cfg.valueBytes = 32;
    cfg.seed = 1234;
    cfg.sharedPct = 30;
    cfg.sched.seed = 99;
    cfg.sched.weighted = weighted;
    cfg.sys = mcConfig(cores);
    return cfg;
}

void
expectIdenticalRuns(const McYcsbConfig &cfg)
{
    const McYcsbResult a = runMcYcsb(cfg);
    const McYcsbResult b = runMcYcsb(cfg);

    ASSERT_TRUE(a.verified) << a.failure;
    ASSERT_TRUE(b.verified) << b.failure;
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.quanta, b.quanta);
    ASSERT_EQ(a.commitLog.size(), b.commitLog.size());
    for (std::size_t i = 0; i < a.commitLog.size(); ++i) {
        EXPECT_EQ(a.commitLog[i].core, b.commitLog[i].core) << i;
        EXPECT_EQ(a.commitLog[i].key, b.commitLog[i].key) << i;
    }
    EXPECT_EQ(a.statsAfter, b.statsAfter);
}

TEST(McScheduler, RoundRobinRunsAreBitIdentical)
{
    expectIdenticalRuns(smallYcsb(3, /*weighted=*/false));
}

TEST(McScheduler, WeightedRunsAreBitIdentical)
{
    expectIdenticalRuns(smallYcsb(3, /*weighted=*/true));
}

TEST(McScheduler, DifferentSeedsChangeTheInterleaving)
{
    McYcsbConfig cfg = smallYcsb(3, /*weighted=*/true);
    const McYcsbResult a = runMcYcsb(cfg);
    cfg.sched.seed = 100;
    const McYcsbResult b = runMcYcsb(cfg);

    // Same ops, different scheduler-commit order.
    ASSERT_EQ(a.commitLog.size(), b.commitLog.size());
    bool differs = false;
    for (std::size_t i = 0; i < a.commitLog.size() && !differs; ++i)
        differs = a.commitLog[i].core != b.commitLog[i].core ||
                  a.commitLog[i].key != b.commitLog[i].key;
    EXPECT_TRUE(differs);
}

TEST(McScheduler, ThrowingDriverLeavesNoConflictHandler)
{
    McMachine m(mcConfig(2));
    const Addr base = m.heap().alloc(4 * cacheLineSize);

    struct Throwing : McCoreDriver
    {
        bool done() const override { return false; }
        void step() override { throw std::runtime_error("driver fault"); }
    };
    struct Counting : McCoreDriver
    {
        std::size_t heard = 0;
        bool done() const override { return true; }
        void step() override {}
        void onConflictAbort() override { ++heard; }
    };
    Throwing thrower;
    Counting counter;
    const std::vector<McCoreDriver *> drivers = {&thrower, &counter};
    EXPECT_THROW(runInterleaved(m, drivers, McSchedConfig{}),
                 std::runtime_error);

    // Core 0 writes over core 1's in-flight transaction: the run is
    // over, so no driver of it may hear of the abort.
    m.context(1).txBegin();
    m.context(1).write<std::uint64_t>(base, 1u);
    m.context(0).txBegin();
    m.context(0).write<std::uint64_t>(base, 2u);
    m.context(0).txCommit();
    EXPECT_FALSE(m.context(1).inTransaction());
    EXPECT_EQ(m.snapshot().at("multicore.conflictAborts"), 1u);
    EXPECT_EQ(counter.heard, 0u);
}

// ---------------------------------------------------------------------
// Op streams
// ---------------------------------------------------------------------

TEST(McStreams, PrivateKeysAreGloballyDisjoint)
{
    McYcsbConfig cfg = smallYcsb(4, false);
    cfg.opsPerCore = 50;
    const auto streams = mcYcsbStreams(cfg);
    ASSERT_EQ(streams.size(), 4u);

    // Collect the shared pool: keys touched by more than one core.
    std::map<std::uint64_t, std::set<std::size_t>> owners;
    for (const auto &stream : streams)
        for (const auto &op : stream)
            owners[op.key].insert(op.core);

    std::size_t shared_ops = 0;
    for (const auto &stream : streams) {
        EXPECT_EQ(stream.size(), cfg.opsPerCore);
        for (const auto &op : stream)
            if (owners.at(op.key).size() > 1)
                ++shared_ops;
    }
    // A 30% shared fraction over 200 ops lands well inside (0, 200).
    EXPECT_GT(shared_ops, 0u);
    EXPECT_LT(shared_ops, 4 * cfg.opsPerCore);
}

// ---------------------------------------------------------------------
// OracleView: the newest copy of every line, and no side effects
// ---------------------------------------------------------------------

/** The sweeps' tiny geometry: dirty lines overflow mid-transaction. */
void
shrinkCaches(SystemConfig &cfg)
{
    cfg.hierarchy.l1 = CacheConfig{"L1", 1024, 2, 4};
    cfg.hierarchy.l2 = CacheConfig{"L2", 2048, 2, 12};
    cfg.hierarchy.l3 = CacheConfig{"L3", 4096, 4, 40};
}

/** One interleaved upsert run on a machine the test keeps. */
struct ViewRun
{
    explicit ViewRun(const McYcsbConfig &cfg)
        : machine(cfg.sys), wl(makeWorkload(cfg.workload))
    {
        wl->setup(machine.context(0));
        streams = mcYcsbStreams(cfg);
        for (std::size_t i = 0; i < cfg.numCores; ++i) {
            drivers.push_back(std::make_unique<McYcsbDriver>(
                machine.context(i), *wl, streams[i], log));
            ptrs.push_back(drivers.back().get());
        }
    }

    McMachine machine;
    std::unique_ptr<Workload> wl;
    std::vector<std::vector<McOpRecord>> streams;
    std::vector<McOpRecord> log;
    std::vector<std::unique_ptr<McYcsbDriver>> drivers;
    std::vector<McCoreDriver *> ptrs;
};

/**
 * The root directory and every live allocation of @p m read through a
 * view must equal timed reads, spread over the cores, on a
 * checkpoint-restored clone.
 */
void
expectNewestCopies(McMachine &m, const SystemConfig &cfg)
{
    McMachine clone(cfg);
    MachineCheckpoint::capture(m).restore(clone);
    OracleView view(m);
    std::vector<std::uint8_t> seen;
    std::vector<std::uint8_t> timed;
    std::size_t n = 0;
    auto compare = [&](Addr base, Bytes size) {
        seen.assign(size, 0xa5);
        timed.assign(size, 0x5a);
        view.readBytes(base, seen.data(), size);
        clone.context(n++ % clone.numCores())
            .readBytes(base, timed.data(), size);
        EXPECT_EQ(seen, timed) << "allocation at " << base;
    };
    compare(m.map().heapBase(), numRootSlots * wordSize);
    m.heap().forEachLive(compare);
    EXPECT_GT(n, 1u);
}

/** Everything the machine would checkpoint or count. */
std::pair<MachineCheckpoint, StatsSnapshot>
machineState(McMachine &m)
{
    return {MachineCheckpoint::capture(m), m.snapshot()};
}

/**
 * The view's checker calls leave @p m bit-for-bit as they found it,
 * and they see the committed state of @p log.
 */
void
expectUntouched(McMachine &m, Workload &wl,
                const std::vector<McOpRecord> &log)
{
    std::map<std::uint64_t, std::vector<std::uint8_t>> expected;
    for (const auto &op : log)
        expected[op.key] = op.value;

    const auto before = machineState(m);
    OracleView view(m);
    std::string why;
    EXPECT_TRUE(wl.checkConsistency(view, &why)) << why;
    EXPECT_EQ(wl.count(view), expected.size());
    std::vector<std::uint8_t> got;
    for (const auto &[key, value] : expected) {
        got.clear();
        EXPECT_TRUE(wl.lookup(view, key, &got) && got == value) << key;
    }
    EXPECT_FALSE(wl.lookup(view, 2, nullptr));  // streams' keys are odd
    EXPECT_TRUE(machineState(m) == before);
}

class OracleViewCase : public ::testing::TestWithParam<const char *>
{};

/** Every scheme family, logging style, core count and geometry: after
 *  a run, and after a crash at half the run's stores and recovery. */
TEST_P(OracleViewCase, ReadsTheNewestCopyAndTouchesNothing)
{
    for (SchemeKind scheme : {SchemeKind::SLPMT, SchemeKind::FG})
        for (LoggingStyle style : {LoggingStyle::Undo, LoggingStyle::Redo})
            for (std::size_t cores : {1u, 2u, 4u})
                for (bool tiny : {false, true}) {
                    McYcsbConfig cfg;
                    cfg.workload = GetParam();
                    cfg.numCores = cores;
                    cfg.opsPerCore = 16;
                    cfg.valueBytes = 96;
                    cfg.sys = mcConfig(cores, scheme, style);
                    if (tiny)
                        shrinkCaches(cfg.sys);
                    SCOPED_TRACE(schemeName(scheme) +
                                 (style == LoggingStyle::Undo ? " undo"
                                                              : " redo") +
                                 " cores=" + std::to_string(cores) +
                                 (tiny ? " tiny" : " table3"));

                    ViewRun run(cfg);
                    const std::uint64_t start =
                        run.machine.storesExecuted();
                    runInterleaved(run.machine, run.ptrs, cfg.sched);
                    expectNewestCopies(run.machine, cfg.sys);
                    expectUntouched(run.machine, *run.wl, run.log);

                    ViewRun crashed(cfg);
                    crashed.machine.armCrashAfterStores(
                        (run.machine.storesExecuted() - start) / 2);
                    ASSERT_TRUE(runInterleaved(crashed.machine,
                                               crashed.ptrs, cfg.sched)
                                    .crashed);
                    crashed.machine.armCrashAfterStores(0);
                    crashed.machine.recover();
                    crashed.wl->recover(crashed.machine.context(0));
                    expectNewestCopies(crashed.machine, cfg.sys);
                }
}

INSTANTIATE_TEST_SUITE_P(Structures, OracleViewCase,
                         ::testing::Values("hashtable", "rbtree",
                                           "skiplist", "kv-btree"),
                         [](const auto &info) {
                             std::string name = info.param;
                             std::replace(name.begin(), name.end(), '-',
                                          '_');
                             return name;
                         });

TEST(OracleView, RefusesEveryMutation)
{
    McMachine m(mcConfig(2));
    OracleView view(m);
    const Addr root = view.rootSlotAddr(0);
    EXPECT_THROW(view.write<std::uint64_t>(root, 1), PanicError);
    EXPECT_THROW(view.writeT<std::uint64_t>(root, 1, {}), PanicError);
    EXPECT_THROW(view.txBegin(), PanicError);
    EXPECT_THROW(view.txCommit(), PanicError);
    EXPECT_THROW(view.txAbort(), PanicError);
    EXPECT_THROW(view.quiesce(), PanicError);
}

TEST(OracleView, RefusesAMachineWithATransactionInFlight)
{
    McMachine m(mcConfig(2));
    m.context(1).txBegin();
    EXPECT_THROW(OracleView view(m), PanicError);
    m.context(1).txCommit();
    EXPECT_NO_THROW(OracleView view(m));
}

/** A dirty line in one core's L1 is the newest copy even though the
 *  L3 and PM hold older data, and an untouched page reads as zeros. */
TEST(OracleView, PrivateDirtyCopyWinsOverSharedAndDurable)
{
    McMachine m(mcConfig(2));
    const Addr line = m.heap().alloc(cacheLineSize);
    commitLines(m.context(0), line, 1, 7);
    m.quiesce();
    m.context(1).write<std::uint64_t>(line, 0xfeed);
    ASSERT_NE(m.core(1).hierarchy().findPrivate(line), nullptr);
    std::uint64_t durable = 0;
    m.pm().peek(line, &durable, sizeof(durable));
    ASSERT_NE(durable, 0xfeedu);

    OracleView view(m);
    EXPECT_EQ(view.read<std::uint64_t>(line), 0xfeedu);
    EXPECT_EQ(view.peek<std::uint64_t>(line), durable);
    EXPECT_EQ(view.read<std::uint64_t>(m.map().heapBase() +
                                       m.map().heapSize() - cacheLineSize),
              0u);
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
