/**
 * @file
 * Crash-recovery property tests over every workload and scheme.
 *
 * Three families:
 *  - Crash *between* transactions after N inserts (possibly with lazy
 *    data still volatile): recovery must restore a consistent
 *    structure containing exactly the committed keys.
 *  - Crash *inside* a transaction after K stores (fault injection):
 *    the interrupted insert must roll back completely — undo replay
 *    plus the workload's log-free/lazy recovery — and the heap GC
 *    must reclaim the leaked allocations.
 *  - Crash during a structural reorganisation (hashtable resize, heap
 *    growth, btree splits) — exercised by choosing N/K around those
 *    events.
 */

#include <gtest/gtest.h>

#include <map>

#include "sim/experiment.hh"
#include "test_util.hh"
#include "workloads/factory.hh"
#include "workloads/hashtable.hh"
#include "workloads/ycsb.hh"

namespace slpmt
{
namespace
{

SystemConfig
configFor(SchemeKind kind)
{
    SystemConfig cfg;
    cfg.scheme = SchemeConfig::forKind(kind);
    return cfg;
}

void
verifyContents(PmSystem &sys, Workload &workload,
               const std::vector<YcsbOp> &ops, std::size_t committed)
{
    std::string why;
    ASSERT_TRUE(workload.checkConsistency(sys, &why)) << why;
    EXPECT_EQ(workload.count(sys), committed);
    std::vector<std::uint8_t> got;
    for (std::size_t i = 0; i < committed; ++i) {
        ASSERT_TRUE(workload.lookup(sys, ops[i].key, &got))
            << "committed key " << i << " missing";
        EXPECT_EQ(got, ops[i].value) << "value mismatch for key " << i;
    }
    for (std::size_t i = committed; i < ops.size(); ++i) {
        EXPECT_FALSE(workload.lookup(sys, ops[i].key, nullptr))
            << "uncommitted key " << i << " present";
    }
}

class CrashBetweenTxns
    : public ::testing::TestWithParam<
          std::tuple<std::string, SchemeKind, std::size_t>>
{
};

TEST_P(CrashBetweenTxns, RecoversCommittedState)
{
    const auto &[name, scheme, crash_after] = GetParam();
    PmSystem sys(configFor(scheme));
    auto workload = makeWorkload(name);
    workload->setup(sys);

    YcsbConfig ycsb;
    ycsb.numOps = 120;
    ycsb.valueBytes = 48;
    const auto ops = ycsbLoad(ycsb);

    for (std::size_t i = 0; i < crash_after; ++i)
        workload->insert(sys, ops[i].key, ops[i].value);

    sys.crash();
    sys.recoverHardware();
    workload->recover(sys);
    verifyContents(sys, *workload, ops, crash_after);

    // The structure keeps working after recovery.
    for (std::size_t i = crash_after; i < ops.size(); ++i)
        workload->insert(sys, ops[i].key, ops[i].value);
    verifyContents(sys, *workload, ops, ops.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashBetweenTxns,
    ::testing::Combine(
        ::testing::ValuesIn(allWorkloads()),
        ::testing::Values(SchemeKind::FG, SchemeKind::SLPMT),
        // 49/50 straddle the hashtable's first resize; 64/65 straddle
        // the heap's first growth.
        ::testing::Values(std::size_t{0}, std::size_t{1},
                          std::size_t{49}, std::size_t{50},
                          std::size_t{64}, std::size_t{65},
                          std::size_t{120})),
    [](const auto &info) {
        return testName(std::get<0>(info.param)) + "_" +
               testName(std::get<1>(info.param)) + "_n" +
               std::to_string(std::get<2>(info.param));
    });

class CrashMidTxn
    : public ::testing::TestWithParam<
          std::tuple<std::string, SchemeKind, std::size_t>>
{
};

TEST_P(CrashMidTxn, InterruptedInsertRollsBack)
{
    const auto &[name, scheme, kill_store] = GetParam();
    PmSystem sys(configFor(scheme));
    auto workload = makeWorkload(name);
    workload->setup(sys);

    YcsbConfig ycsb;
    ycsb.numOps = 60;
    ycsb.valueBytes = 48;
    const auto ops = ycsbLoad(ycsb);

    const std::size_t committed = 40;
    for (std::size_t i = 0; i < committed; ++i)
        workload->insert(sys, ops[i].key, ops[i].value);

    // Crash after kill_store more stores, inside insert #41. Some
    // workloads finish an insert in fewer stores; the crash then
    // fires inside the following insert — still a valid mid-txn
    // crash point, just one transaction later.
    sys.armCrashAfterStores(kill_store);
    std::size_t committed_now = committed;
    bool crashed = false;
    while (!crashed && committed_now < ops.size()) {
        try {
            workload->insert(sys, ops[committed_now].key,
                             ops[committed_now].value);
            ++committed_now;
        } catch (const CrashInjected &) {
            crashed = true;
        }
    }
    ASSERT_TRUE(crashed) << "armed crash never fired";

    sys.recoverHardware();
    workload->recover(sys);
    verifyContents(sys, *workload, ops, committed_now);

    // Leaked allocations were reclaimed: re-running the remaining
    // inserts succeeds and the structure stays consistent.
    for (std::size_t i = committed_now; i < ops.size(); ++i)
        workload->insert(sys, ops[i].key, ops[i].value);
    verifyContents(sys, *workload, ops, ops.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashMidTxn,
    ::testing::Combine(
        ::testing::ValuesIn(allWorkloads()),
        ::testing::Values(SchemeKind::FG, SchemeKind::SLPMT),
        ::testing::Values(std::size_t{1}, std::size_t{3},
                          std::size_t{6}, std::size_t{10})),
    [](const auto &info) {
        return testName(std::get<0>(info.param)) + "_" +
               testName(std::get<1>(info.param)) + "_k" +
               std::to_string(std::get<2>(info.param));
    });

/** Crash inside the hashtable's resize transaction specifically. */
class CrashDuringResize : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CrashDuringResize, ResizeRollsBackOrCompletes)
{
    const std::size_t kill_store = GetParam();
    PmSystem sys(configFor(SchemeKind::SLPMT));
    auto workload = makeWorkload("hashtable");
    workload->setup(sys);

    YcsbConfig ycsb;
    ycsb.numOps = 60;
    ycsb.valueBytes = 32;
    const auto ops = ycsbLoad(ycsb);

    // Insert 48: the 49th insert triggers the first resize (16
    // buckets * load factor 3 = 48).
    for (std::size_t i = 0; i < 48; ++i)
        workload->insert(sys, ops[i].key, ops[i].value);

    sys.armCrashAfterStores(kill_store);
    bool crashed = false;
    try {
        workload->insert(sys, ops[48].key, ops[48].value);
    } catch (const CrashInjected &) {
        crashed = true;
    }
    sys.armCrashAfterStores(0);

    std::size_t committed = 48;
    if (!crashed)
        committed = 49;  // the resize finished before the armed crash
    else {
        sys.recoverHardware();
        workload->recover(sys);
    }
    verifyContents(sys, *workload, ops, committed);

    for (std::size_t i = committed; i < ops.size(); ++i)
        workload->insert(sys, ops[i].key, ops[i].value);
    verifyContents(sys, *workload, ops, ops.size());
}

INSTANTIATE_TEST_SUITE_P(KillPoints, CrashDuringResize,
                         ::testing::Values(std::size_t{2},
                                           std::size_t{10},
                                           std::size_t{40},
                                           std::size_t{100},
                                           std::size_t{200},
                                           std::size_t{400}));

/** The hashtable's durable header and journal, read through the root
 *  slots (header: numBuckets, count, bucketsPtr; journal: valid
 *  first). */
Addr
bucketArray(PmSystem &sys)
{
    const Addr hdr =
        sys.peek<Addr>(sys.rootSlotAddr(HashTableWorkload::headerRootSlot));
    return sys.peek<Addr>(hdr + 16);
}

std::uint64_t
journalValid(PmSystem &sys)
{
    const Addr jnl = sys.peek<Addr>(
        sys.rootSlotAddr(HashTableWorkload::journalRootSlot));
    return sys.peek<std::uint64_t>(jnl);
}

/** A hashtable that has just resized: 49 inserts, the 49th of which
 *  doubled the table with lazily persistent copies. */
struct ResizedTable
{
    ResizedTable() : workload(makeWorkload("hashtable"))
    {
        workload->setup(sys);
        YcsbConfig ycsb;
        ycsb.numOps = 80;
        ycsb.valueBytes = 32;
        ops = ycsbLoad(ycsb);
        for (std::size_t i = 0; i < 49; ++i)
            workload->insert(sys, ops[i].key, ops[i].value);
    }

    /** Power failure, hardware replay, then the workload's recovery. */
    void
    crashAndRecover()
    {
        sys.crash();
        sys.recoverHardware();
        workload->recover(sys);
    }

    /** The recovered table holds the 49 keys and keeps working. */
    void
    verifyAndContinue()
    {
        verifyContents(sys, *workload, ops, 49);
        for (std::size_t i = 49; i < ops.size(); ++i)
            workload->insert(sys, ops[i].key, ops[i].value);
        verifyContents(sys, *workload, ops, ops.size());
    }

    PmSystem sys{configFor(SchemeKind::SLPMT)};
    std::unique_ptr<Workload> workload;
    std::vector<YcsbOp> ops;
};

/** Crash right after a resize commit while the lazily persistent node
 *  copies are still volatile: the journal-merge recovery must rebuild
 *  the full table. */
TEST(CrashAfterResize, LazyCopiesRecoveredFromOldTable)
{
    ResizedTable t;
    const Addr resized = bucketArray(t.sys);
    ASSERT_EQ(journalValid(t.sys), 1u);

    t.crashAndRecover();  // copies that were still cached are gone
    EXPECT_NE(bucketArray(t.sys), resized) << "the table was not rebuilt";
    EXPECT_EQ(journalValid(t.sys), 0u);
    t.verifyAndContinue();
}

/** Once the copies are durable the new table is whole: recovery keeps
 *  it in place, clears the journal in its recount transaction with a
 *  handful of stores, and a second recovery replays nothing. */
TEST(CrashAfterResize, DurableCopiesKeepTheTable)
{
    ResizedTable t;
    t.sys.quiesce();  // every copy reaches PM
    const Addr resized = bucketArray(t.sys);

    t.sys.crash();
    t.sys.recoverHardware();
    const std::uint64_t before = t.sys.storesExecuted();
    t.workload->recover(t.sys);
    EXPECT_LE(t.sys.storesExecuted() - before, 4u);
    EXPECT_EQ(bucketArray(t.sys), resized);
    EXPECT_EQ(journalValid(t.sys), 0u);

    t.sys.crash();
    EXPECT_EQ(t.sys.recoverHardware(), 0u);
    t.workload->recover(t.sys);
    EXPECT_EQ(bucketArray(t.sys), resized);
    t.verifyAndContinue();
}

/** A crash inside the recount transaction rolls the journal flag back,
 *  so the next recovery decides again from the same durable state. */
TEST(CrashAfterResize, CrashInRecountRollsTheFlagBack)
{
    ResizedTable t;
    t.sys.quiesce();
    const Addr resized = bucketArray(t.sys);

    t.sys.crash();
    t.sys.recoverHardware();
    t.sys.armCrashAfterStores(2);  // the second store clears the flag
    EXPECT_THROW(t.workload->recover(t.sys), CrashInjected);
    t.sys.armCrashAfterStores(0);
    t.sys.recoverHardware();
    EXPECT_EQ(journalValid(t.sys), 1u);

    t.workload->recover(t.sys);
    EXPECT_EQ(bucketArray(t.sys), resized);
    EXPECT_EQ(journalValid(t.sys), 0u);
    t.verifyAndContinue();
}

/** A new-table node that fails its checksum cuts its chain short, so
 *  recovery still merges: the key comes back from the old table. */
TEST(CrashAfterResize, BadNewNodeChecksumStillMerges)
{
    ResizedTable t;
    t.sys.quiesce();
    const Addr resized = bucketArray(t.sys);
    Addr node = 0;
    for (std::uint64_t b = 0; !node; ++b)
        node = t.sys.peek<Addr>(resized + b * 8);
    const std::uint64_t bad = 0xBAD;
    t.sys.pm().poke(node + 32, &bad, sizeof(bad));  // checksum word

    t.crashAndRecover();
    EXPECT_NE(bucketArray(t.sys), resized) << "the table was not rebuilt";
    t.verifyAndContinue();
}

/**
 * A 40-key hashtable (no resize, so the journal is clear) with a
 * checksum-valid self-loop poked into the durable image: the head
 * node of an absent key's chain points at itself. Every chain walk
 * must fail fast instead of spinning.
 */
struct CyclicTable
{
    CyclicTable() : workload(makeWorkload("hashtable"))
    {
        workload->setup(sys);
        for (const auto &op : ycsbLoad({.numOps = 40, .valueBytes = 32}))
            workload->insert(sys, op.key, op.value);
        sys.quiesce();
        sys.hierarchy().crash();  // reads now see the pokes below

        const Addr hdr = sys.peek<Addr>(
            sys.rootSlotAddr(HashTableWorkload::headerRootSlot));
        const auto num = sys.peek<std::uint64_t>(hdr);
        const Addr buckets = sys.peek<Addr>(hdr + 16);
        // Trace keys are odd, so an even key is absent; take the first
        // one whose bucket holds a chain.
        Addr node = 0;
        for (absentKey = 2; !node; absentKey += 2) {
            node = sys.peek<Addr>(
                buckets +
                HashTableWorkload::bucketOf(absentKey, num) * 8);
        }
        absentKey -= 2;
        const auto key = sys.peek<std::uint64_t>(node);
        const Addr val_ptr = sys.peek<Addr>(node + 16);
        const auto val_len = sys.peek<std::uint64_t>(node + 24);
        const std::uint64_t chk =
            HashTableWorkload::nodeChecksum(key, node, val_ptr, val_len);
        sys.pm().poke(node + 8, &node, sizeof(node));  // next = itself
        sys.pm().poke(node + 32, &chk, sizeof(chk));
    }

    PmSystem sys{configFor(SchemeKind::SLPMT)};
    std::unique_ptr<Workload> workload;
    std::uint64_t absentKey = 0;
};

TEST(CyclicChain, LookupUpdateAndRemovePanic)
{
    CyclicTable t;
    EXPECT_THROW(t.workload->lookup(t.sys, t.absentKey, nullptr),
                 PanicError);
    EXPECT_THROW(t.workload->update(t.sys, t.absentKey, {1, 2, 3}),
                 PanicError);
    EXPECT_THROW(t.workload->remove(t.sys, t.absentKey), PanicError);
}

TEST(CyclicChain, CountPanics)
{
    CyclicTable t;
    EXPECT_THROW(t.workload->count(t.sys), PanicError);
}

/** The consistency check needs no step bound: the loop revisits a
 *  key, which its duplicate-key test reports at once. */
TEST(CyclicChain, CheckReportsTheRevisit)
{
    CyclicTable t;
    std::string why;
    EXPECT_FALSE(t.workload->checkConsistency(t.sys, &why));
    EXPECT_EQ(why, "duplicate key");
}

/** The durable recount walk stops at its bound; the reachability walk
 *  behind the heap GC then panics. */
TEST(CyclicChain, RecoverPanics)
{
    CyclicTable t;
    t.sys.crash();
    t.sys.recoverHardware();
    EXPECT_THROW(t.workload->recover(t.sys), PanicError);
}

/** Every call forwarded to a machine, with the durable peeks counted:
 *  recovery's chain walks read the durable image only through them. */
class PeekCounter final : public PmContext
{
  public:
    explicit PeekCounter(PmSystem &sys) : sys(sys) {}

    void txBegin() override { sys.txBegin(); }
    void txCommit() override { sys.txCommit(); }
    void txAbort() override { sys.txAbort(); }
    bool inTransaction() const override { return sys.inTransaction(); }

    void
    readBytes(Addr addr, void *out, std::size_t len) override
    {
        sys.readBytes(addr, out, len);
    }
    void
    writeBytes(Addr addr, const void *src, std::size_t len) override
    {
        sys.writeBytes(addr, src, len);
    }
    void
    writeBytesT(Addr addr, const void *src, std::size_t len,
                StoreFlags flags) override
    {
        sys.writeBytesT(addr, src, len, flags);
    }
    void
    writeBytesSite(Addr addr, const void *src, std::size_t len,
                   SiteId site) override
    {
        sys.writeBytesSite(addr, src, len, site);
    }
    void
    peekBytes(Addr addr, void *out, std::size_t len) const override
    {
        ++peeks;
        sys.peekBytes(addr, out, len);
    }

    PersistentHeap &heap() override { return sys.heap(); }
    StoreSiteRegistry &sites() override { return sys.sites(); }
    const AddressMap &map() const override { return sys.map(); }
    Cycles cycles() const override { return sys.cycles(); }
    void compute(Cycles c) override { sys.compute(c); }
    void quiesce() override { sys.quiesce(); }

    mutable std::size_t peeks = 0;

  private:
    PmSystem &sys;
};

/** The durable recount walk stops after as many nodes as the heap holds
 *  live allocations, and the reachability walk then panics: each walk
 *  peeks at most a few header words, one slot per bucket and as many
 *  nodes as are live. */
TEST(CyclicChain, RecoverPeeksBoundedByTheLiveCount)
{
    CyclicTable t;
    t.sys.crash();
    t.sys.recoverHardware();
    const std::size_t live = t.sys.heap().liveCount();
    PeekCounter counter(t.sys);
    EXPECT_THROW(t.workload->recover(counter), PanicError);
    EXPECT_LE(counter.peeks, 2 * (live + 16) + 8) << live;
}

/**
 * With the resize journal set, a cyclic new-table chain stops the new
 * table's walk after as many nodes as are live: the table is not
 * whole, so recovery merges the old table back in, and every key
 * survives. The old table's walk is bounded by the nodes it held when
 * it resized.
 */
TEST(CyclicChain, JournalMergeStopsAtTheLiveCount)
{
    ResizedTable t;
    t.sys.quiesce();
    const Addr resized = bucketArray(t.sys);
    ASSERT_EQ(journalValid(t.sys), 1u);
    Addr node = 0;
    for (std::uint64_t b = 0; !node; ++b)
        node = t.sys.peek<Addr>(resized + b * 8);
    const auto key = t.sys.peek<std::uint64_t>(node);
    const Addr val_ptr = t.sys.peek<Addr>(node + 16);
    const auto val_len = t.sys.peek<std::uint64_t>(node + 24);
    const std::uint64_t chk =
        HashTableWorkload::nodeChecksum(key, node, val_ptr, val_len);
    t.sys.pm().poke(node + 8, &node, sizeof(node));  // next = itself
    t.sys.pm().poke(node + 32, &chk, sizeof(chk));

    t.sys.crash();
    t.sys.recoverHardware();
    const std::size_t live = t.sys.heap().liveCount();
    PeekCounter counter(t.sys);
    t.workload->recover(counter);
    EXPECT_NE(bucketArray(t.sys), resized) << "the table was not rebuilt";
    // The new walk: 32 slots and at most `live` nodes; the old: 16
    // slots and at most 49 nodes; then one value read per merged key.
    EXPECT_LE(counter.peeks, live + 32 + 16 + 49 + 49 + 16) << live;
    t.verifyAndContinue();
}

/** Repeated crash/recover cycles accumulate no corruption or leaks. */
TEST(RepeatedCrashes, StructureSurvivesManyCycles)
{
    PmSystem sys(configFor(SchemeKind::SLPMT));
    auto workload = makeWorkload("rbtree");
    workload->setup(sys);

    YcsbConfig ycsb;
    ycsb.numOps = 100;
    ycsb.valueBytes = 24;
    const auto ops = ycsbLoad(ycsb);

    std::size_t inserted = 0;
    Rng rng(99);
    while (inserted < ops.size()) {
        const std::size_t burst =
            std::min<std::size_t>(1 + rng.below(9), ops.size() - inserted);
        for (std::size_t i = 0; i < burst; ++i) {
            workload->insert(sys, ops[inserted].key,
                             ops[inserted].value);
            ++inserted;
        }
        sys.crash();
        sys.recoverHardware();
        workload->recover(sys);
        verifyContents(sys, *workload, ops, inserted);
    }
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
