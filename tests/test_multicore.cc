/**
 * @file
 * The multicore machine: topology validation, the coherence directory
 * (invalidations, downgrades, remote-forced lazy drains, conflict
 * aborts), the Section V-C context-switch drain, scheduler
 * determinism, and the merged per-core statistics namespace.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/pm_system.hh"
#include "multicore/machine.hh"
#include "multicore/mc_ycsb.hh"
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
    m.noteQuantumExpiry(0, /*drain=*/true);
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
    m.noteQuantumExpiry(0, /*drain=*/true);
    EXPECT_EQ(m.core(0).engine().buffer().size(), 0u);
    EXPECT_EQ(m.core(1).engine().buffer().size(), peer);

    // drain=false (the knob tests use) is a no-op.
    m.noteQuantumExpiry(1, /*drain=*/false);
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
                seqs.insert(m.context(c).currentTxnSeq()).second);
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

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
