/**
 * @file
 * Lazy persistency semantics (Section III-C): deferred lines stay in
 * the cache past commit; they are forced to PM by working-set
 * signature hits, by accesses to lines tagged with an earlier
 * transaction ID, by transaction-ID exhaustion (the circular
 * allocator), by private-cache eviction, and by the "run four empty
 * transactions" idiom; log-buffer records of lazy lines are discarded
 * at commit.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/pm_system.hh"
#include "core/tx.hh"
#include "txn/signature.hh"

namespace slpmt
{
namespace
{

constexpr StoreFlags lazyLogFree{.lazy = true, .logFree = true};
constexpr StoreFlags lazyLogged{.lazy = true, .logFree = false};

PmSystem
makeSlpmt()
{
    SystemConfig cfg;
    cfg.scheme = SchemeConfig::forKind(SchemeKind::SLPMT);
    return PmSystem(cfg);
}

TEST(Lazy, LazyLineStaysVolatileAfterCommit)
{
    PmSystem sys = makeSlpmt();
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 0xAAAA, lazyLogFree);
    sys.txCommit();
    // The data is in the cache but not in PM.
    const CacheLine *line = sys.hierarchy().findPrivate(addr);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->dirty);
    EXPECT_NE(line->txnId, noTxnId);
    EXPECT_EQ(sys.peek<std::uint64_t>(addr), 0u);
    EXPECT_EQ(sys.engine().lazyOutstandingCount(), 1u);
}

TEST(Lazy, EagerLineDurableAtCommit)
{
    PmSystem sys = makeSlpmt();
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 0xBBBB,
                              {.lazy = false, .logFree = true});
    sys.txCommit();
    EXPECT_EQ(sys.peek<std::uint64_t>(addr), 0xBBBBu);
}

TEST(Lazy, StoreToWorkingSetForcesPersist)
{
    PmSystem sys = makeSlpmt();
    const Addr lazy_addr = sys.heap().alloc(64);
    const Addr dep_addr = sys.heap().alloc(64);

    sys.txBegin();
    sys.read<std::uint64_t>(dep_addr);  // dep enters the working set
    sys.writeT<std::uint64_t>(lazy_addr, 0x1234, lazyLogFree);
    sys.txCommit();
    EXPECT_EQ(sys.peek<std::uint64_t>(lazy_addr), 0u);

    // Updating the dependency (outside any transaction) must persist
    // the lazy line first.
    sys.write<std::uint64_t>(dep_addr, 7);
    EXPECT_EQ(sys.peek<std::uint64_t>(lazy_addr), 0x1234u);
    EXPECT_EQ(sys.engine().lazyOutstandingCount(), 0u);
}

TEST(Lazy, LoadOfLazyLineForcesPersist)
{
    PmSystem sys = makeSlpmt();
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 0x4321, lazyLogFree);
    sys.txCommit();

    // A later transaction *reading* the lazy line triggers the
    // line-owner check.
    sys.txBegin();
    EXPECT_EQ(sys.read<std::uint64_t>(addr), 0x4321u);
    sys.txCommit();
    EXPECT_EQ(sys.peek<std::uint64_t>(addr), 0x4321u);
}

TEST(Lazy, RemoteWriteForcesPersist)
{
    PmSystem sys = makeSlpmt();
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 0x5678, lazyLogFree);
    sys.txCommit();
    // A peer's store probe meets the line's signature and owner; it
    // does not conflict, so this core's copy is invalidated.
    EXPECT_FALSE(sys.engine().remoteObserve(addr, true));
    sys.hierarchy().invalidateLineEverywhere(addr);
    EXPECT_EQ(sys.peek<std::uint64_t>(addr), 0x5678u);
}

TEST(Lazy, IdExhaustionForcesOldestPersist)
{
    PmSystem sys = makeSlpmt();
    std::vector<Addr> addrs;
    for (int i = 0; i < 5; ++i)
        addrs.push_back(sys.heap().alloc(64));

    // Four committed lazy transactions exhaust the 2-bit ID space;
    // the fifth begin reclaims the first transaction's ID.
    for (int i = 0; i < 4; ++i) {
        sys.txBegin();
        sys.writeT<std::uint64_t>(addrs[i], 100 + i, lazyLogFree);
        sys.txCommit();
    }
    EXPECT_EQ(sys.engine().lazyOutstandingCount(), 4u);
    EXPECT_EQ(sys.peek<std::uint64_t>(addrs[0]), 0u);

    sys.txBegin();
    sys.writeT<std::uint64_t>(addrs[4], 104, lazyLogFree);
    sys.txCommit();
    EXPECT_EQ(sys.peek<std::uint64_t>(addrs[0]), 100u);
    EXPECT_EQ(sys.stats().get("txn.idReclaims"), 1u);
}

TEST(Lazy, RepeatedIdWraparoundForcesOldestEachTime)
{
    // The 2-bit circular allocator wraps every four transactions; a
    // long run of lazy transactions must force exactly the oldest
    // outstanding data out at every wrap, keeping at most four
    // transactions volatile at any moment.
    PmSystem sys = makeSlpmt();
    constexpr int rounds = 16;
    std::vector<Addr> addrs;
    for (int i = 0; i < rounds; ++i)
        addrs.push_back(sys.heap().alloc(64));

    for (int i = 0; i < rounds; ++i) {
        sys.txBegin();
        sys.writeT<std::uint64_t>(addrs[i], 100 + i, lazyLogFree);
        sys.txCommit();

        // Everything older than the last four transactions has been
        // reclaimed and is durable; the newest four are volatile.
        for (int j = 0; j <= i; ++j) {
            const auto expect =
                j <= i - 4 ? static_cast<std::uint64_t>(100 + j) : 0u;
            EXPECT_EQ(sys.peek<std::uint64_t>(addrs[j]), expect)
                << "txn " << j << " after committing txn " << i;
        }
        EXPECT_LE(sys.engine().lazyOutstandingCount(), 4u);
    }
    EXPECT_EQ(sys.stats().get("txn.idReclaims"),
              static_cast<std::uint64_t>(rounds - 4));

    // Wraparound left no stale IDs behind: a full flush drains the
    // remaining four and the data survives a crash.
    sys.engine().persistAllLazy();
    sys.crash();
    sys.recoverHardware();
    for (int i = 0; i < rounds; ++i)
        EXPECT_EQ(sys.peek<std::uint64_t>(addrs[i]),
                  static_cast<std::uint64_t>(100 + i));
}

TEST(Lazy, SingleIdConfigDegeneratesToEagerFlush)
{
    // numTxnIds = 1: every transaction begin must reclaim the single
    // ID, forcing the previous transaction's lazy data out — lazy
    // persistency degenerates to an eager flush one transaction late.
    SystemConfig cfg;
    cfg.scheme = SchemeConfig::forKind(SchemeKind::SLPMT);
    cfg.scheme.numTxnIds = 1;
    PmSystem sys{cfg};

    std::vector<Addr> addrs;
    for (int i = 0; i < 5; ++i)
        addrs.push_back(sys.heap().alloc(64));

    for (int i = 0; i < 5; ++i) {
        sys.txBegin();
        sys.writeT<std::uint64_t>(addrs[i], 200 + i, lazyLogFree);
        sys.txCommit();
        EXPECT_EQ(sys.engine().lazyOutstandingCount(), 1u);
        if (i > 0) {
            EXPECT_EQ(sys.peek<std::uint64_t>(addrs[i - 1]),
                      static_cast<std::uint64_t>(200 + i - 1));
        }
    }
    EXPECT_EQ(sys.stats().get("txn.idReclaims"), 4u);
}

TEST(Lazy, BloomFalsePositiveForcesHarmlessPersist)
{
    // Signatures are Bloom filters: an address that was never in the
    // working set can still hit. Build a mirror signature with the
    // same shared hash functions, brute-force a colliding line, and
    // check the false positive costs only an early (harmless) persist
    // of the lazy data — never a missed one.
    PmSystem sys = makeSlpmt();
    constexpr int lines = 400;

    Signature mirror;
    std::vector<Addr> addrs;
    for (int i = 0; i < lines; ++i)
        addrs.push_back(sys.heap().alloc(cacheLineSize));

    sys.txBegin();
    for (int i = 0; i < lines; ++i) {
        sys.writeT<std::uint64_t>(addrs[i], 500 + i, lazyLogFree);
        mirror.insert(lineBase(addrs[i]));
    }
    sys.txCommit();
    ASSERT_EQ(sys.engine().lazyOutstandingCount(), 1u);

    // Find a line the filter claims to contain but that was never
    // inserted. With 400 lines in a 2048-bit/4-hash filter the false
    // positive rate is a few percent, so a bounded scan always finds
    // one.
    Addr candidate = 0;
    for (int tries = 0; tries < 20000; ++tries) {
        const Addr a = sys.heap().alloc(cacheLineSize);
        if (mirror.mightContain(lineBase(a))) {
            candidate = a;
            break;
        }
    }
    ASSERT_NE(candidate, 0u) << "no Bloom false positive found";

    const auto hits_before = sys.stats().get("txn.signatureHits");
    sys.write<std::uint64_t>(candidate, 1);
    EXPECT_GT(sys.stats().get("txn.signatureHits"), hits_before);
    EXPECT_EQ(sys.engine().lazyOutstandingCount(), 0u);
    for (int i = 0; i < lines; ++i)
        EXPECT_EQ(sys.peek<std::uint64_t>(addrs[i]),
                  static_cast<std::uint64_t>(500 + i));
}

TEST(Lazy, FourEmptyTransactionsFlushEverything)
{
    // Section III-C4: running numTxnIds empty transactions makes all
    // lazily persistent data durable.
    PmSystem sys = makeSlpmt();
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 0x7777, lazyLogFree);
    sys.txCommit();
    for (int i = 0; i < 4; ++i) {
        sys.txBegin();
        sys.txCommit();
    }
    EXPECT_EQ(sys.peek<std::uint64_t>(addr), 0x7777u);
}

TEST(Lazy, PersistAllLazyFlushes)
{
    PmSystem sys = makeSlpmt();
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 0x8888, lazyLogFree);
    sys.txCommit();
    sys.engine().persistAllLazy();
    EXPECT_EQ(sys.peek<std::uint64_t>(addr), 0x8888u);
    EXPECT_EQ(sys.engine().lazyOutstandingCount(), 0u);
}

TEST(Lazy, OrderedPersistOldestFirst)
{
    // Forcing a newer transaction's lazy data also persists all data
    // owned by earlier transactions (Section III-C2).
    PmSystem sys = makeSlpmt();
    const Addr a1 = sys.heap().alloc(64);
    const Addr a2 = sys.heap().alloc(64);
    sys.txBegin();
    sys.writeT<std::uint64_t>(a1, 1, lazyLogFree);
    sys.txCommit();
    sys.txBegin();
    sys.writeT<std::uint64_t>(a2, 2, lazyLogFree);
    sys.txCommit();

    sys.tracker().enable();
    sys.write<std::uint64_t>(a2, 22);  // hits txn 2's working set
    sys.tracker().disable();
    // Both lazy lines persisted, oldest transaction first.
    const auto &ledger = sys.tracker().ledger();
    std::vector<Addr> lazy_order;
    for (const auto &ev : ledger) {
        if (ev.kind == PersistKind::LazyLine)
            lazy_order.push_back(ev.addr);
    }
    ASSERT_EQ(lazy_order.size(), 2u);
    EXPECT_EQ(lazy_order[0], lineBase(a1));
    EXPECT_EQ(lazy_order[1], lineBase(a2));
}

TEST(Lazy, LogRecordsOfLazyLinesDiscardedAtCommit)
{
    PmSystem sys = makeSlpmt();
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 0x9999, lazyLogged);
    EXPECT_EQ(sys.stats().get("txn.logRecordsCreated"), 1u);
    sys.txCommit();
    EXPECT_EQ(sys.stats().get("logbuf.recordsDiscarded"), 1u);
    // The undo log is truncated and the record never reached it.
    EXPECT_TRUE(sys.engine().logArea().empty());
}

TEST(Lazy, LoggedLazyLineRecoverableFromUndoAfterMidTxnCrash)
{
    PmSystem sys = makeSlpmt();
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.write<std::uint64_t>(addr, 0x1111);
    sys.txCommit();
    sys.quiesce();

    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 0x2222, lazyLogged);
    // Evict mid-transaction: record flushed, line leaves the caches.
    sys.engine().advance(sys.hierarchy().flushAll(sys.engine().now()));
    sys.crash();
    sys.recoverHardware();
    EXPECT_EQ(sys.peek<std::uint64_t>(addr), 0x1111u);
}

TEST(Lazy, EvictionForcesLazyLineOut)
{
    PmSystem sys = makeSlpmt();
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 0xCCCC, lazyLogFree);
    sys.txCommit();
    sys.engine().advance(sys.hierarchy().flushAll(sys.engine().now()));
    EXPECT_EQ(sys.peek<std::uint64_t>(addr), 0xCCCCu);
}

TEST(Lazy, CurrentTransactionNotForcedByOwnAccesses)
{
    PmSystem sys = makeSlpmt();
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 1, lazyLogFree);
    sys.read<std::uint64_t>(addr);
    sys.writeT<std::uint64_t>(addr, 2, lazyLogFree);
    EXPECT_EQ(sys.stats().get("txn.lazyForcedPersists"), 0u);
    sys.txCommit();
}

TEST(Lazy, MixedLineEagerStoreCancelsLazy)
{
    // The false-sharing effect the paper describes for rbtree colours:
    // an eager store to any word of the line sets the persist bit, so
    // the whole line is persisted at commit.
    PmSystem sys = makeSlpmt();
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 0xAA, lazyLogged);
    sys.write<std::uint64_t>(addr + 8, 0xBB);
    sys.txCommit();
    EXPECT_EQ(sys.peek<std::uint64_t>(addr), 0xAAu);
    EXPECT_EQ(sys.peek<std::uint64_t>(addr + 8), 0xBBu);
    EXPECT_EQ(sys.engine().lazyOutstandingCount(), 0u);
}

TEST(Lazy, DisabledSchemeIgnoresLazyFlag)
{
    SystemConfig cfg;
    cfg.scheme = SchemeConfig::forKind(SchemeKind::FG_LG);  // no lazy
    PmSystem sys(cfg);
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 0xDD, lazyLogFree);
    sys.txCommit();
    EXPECT_EQ(sys.peek<std::uint64_t>(addr), 0xDDu);
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
