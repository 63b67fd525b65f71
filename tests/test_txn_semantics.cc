/**
 * @file
 * Tests of the storeT ISA semantics (Table I), fine-grain logging
 * dedup, line-granularity logging, transaction-ID allocation, and
 * signature behaviour.
 */

#include <gtest/gtest.h>

#include "core/pm_system.hh"
#include "core/tx.hh"
#include "test_util.hh"
#include "txn/signature.hh"
#include "txn/txn_ids.hh"

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

/** Table I: expected bits for each instruction form. */
struct TableIRow
{
    bool lazy;
    bool logFree;
    bool expectPersist;
    bool expectLog;
};

class TableITest : public ::testing::TestWithParam<TableIRow>
{
};

TEST_P(TableITest, StoreTSetsBitsPerTableI)
{
    const TableIRow row = GetParam();
    PmSystem sys(configFor(SchemeKind::SLPMT));
    const Addr addr = sys.heap().alloc(64);

    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 1,
                              {.lazy = row.lazy, .logFree = row.logFree});
    const CacheLine *line = sys.hierarchy().findPrivate(addr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->persistBit, row.expectPersist);
    EXPECT_EQ(line->logBits != 0, row.expectLog);
    sys.txCommit();
}

INSTANTIATE_TEST_SUITE_P(
    AllRows, TableITest,
    ::testing::Values(TableIRow{false, false, true, true},   // store
                      TableIRow{false, true, true, false},   // log-free
                      TableIRow{true, true, false, false},   // both
                      TableIRow{true, false, false, true}),  // lazy only
    [](const auto &info) {
        return std::string(info.param.lazy ? "lazy1" : "lazy0") +
               (info.param.logFree ? "_logfree1" : "_logfree0");
    });

TEST(TableI, PlainStoreSetsBothBits)
{
    PmSystem sys(configFor(SchemeKind::SLPMT));
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.write<std::uint64_t>(addr, 1);
    const CacheLine *line = sys.hierarchy().findPrivate(addr);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->persistBit);
    EXPECT_NE(line->logBits, 0);
    sys.txCommit();
}

TEST(TableI, DisabledFeaturesDegradeToStore)
{
    PmSystem sys(configFor(SchemeKind::FG));  // log-free + lazy off
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.writeT<std::uint64_t>(addr, 1, {.lazy = true, .logFree = true});
    const CacheLine *line = sys.hierarchy().findPrivate(addr);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->persistBit);
    EXPECT_NE(line->logBits, 0);
    sys.txCommit();
}

TEST(TableI, LazyStoreDoesNotClearPersistBit)
{
    // Section III-C1: a store cancels lazy persistency; a later lazy
    // storeT must not re-enable it.
    PmSystem sys(configFor(SchemeKind::SLPMT));
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.write<std::uint64_t>(addr, 1);
    sys.writeT<std::uint64_t>(addr + 8, 2,
                              {.lazy = true, .logFree = true});
    const CacheLine *line = sys.hierarchy().findPrivate(addr);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->persistBit);
    sys.txCommit();
}

TEST(TableI, StoreTOutsideTransactionActsAsStore)
{
    PmSystem sys(configFor(SchemeKind::SLPMT));
    const Addr addr = sys.heap().alloc(64);
    sys.writeT<std::uint64_t>(addr, 5, {.lazy = true, .logFree = true});
    // Outside a transaction no metadata is set and no record created.
    const CacheLine *line = sys.hierarchy().findPrivate(addr);
    ASSERT_NE(line, nullptr);
    EXPECT_FALSE(line->persistBit);
    EXPECT_EQ(line->logBits, 0);
    EXPECT_EQ(sys.stats().get("txn.logRecordsCreated"), 0u);
}

TEST(FineGrainLogging, OneRecordPerWordNoDuplicates)
{
    PmSystem sys(configFor(SchemeKind::FG));
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.write<std::uint64_t>(addr, 1);
    EXPECT_EQ(sys.stats().get("txn.logRecordsCreated"), 1u);
    sys.write<std::uint64_t>(addr, 2);  // same word: no new record
    EXPECT_EQ(sys.stats().get("txn.logRecordsCreated"), 1u);
    sys.write<std::uint64_t>(addr + 8, 3);  // next word: one more
    EXPECT_EQ(sys.stats().get("txn.logRecordsCreated"), 2u);
    sys.txCommit();
}

TEST(FineGrainLogging, UndoRecordHoldsPreStoreValue)
{
    PmSystem sys(configFor(SchemeKind::FG));
    const Addr addr = sys.heap().alloc(64);
    constexpr std::uint64_t old_marker = 0x0123456789abcdefULL;
    constexpr std::uint64_t new_marker = 0xfedcba9876543210ULL;
    // Establish a durable old value.
    sys.txBegin();
    sys.write<std::uint64_t>(addr, old_marker);
    sys.txCommit();
    sys.quiesce();

    sys.txBegin();
    sys.write<std::uint64_t>(addr, new_marker);
    // Drain the buffer record so we can inspect the durable log.
    sys.engine().buffer().drainAll(0);
    const auto records = sys.engine().logArea().scanValid();
    ASSERT_EQ(records.size(), 1u);
    std::uint64_t old_val = 0;
    std::memcpy(&old_val, records[0].data.data(), sizeof(old_val));
    EXPECT_EQ(old_val, old_marker);
    sys.txCommit();
}

TEST(LineGranularity, OneRecordPerLine)
{
    PmSystem sys(configFor(SchemeKind::ATOM));
    const Addr addr = sys.heap().alloc(128);
    sys.txBegin();
    sys.write<std::uint64_t>(addr, 1);
    EXPECT_EQ(sys.stats().get("txn.logRecordsCreated"), 1u);
    sys.write<std::uint64_t>(addr + 8, 2);  // same line: no new record
    EXPECT_EQ(sys.stats().get("txn.logRecordsCreated"), 1u);
    sys.write<std::uint64_t>(addr + 64, 3);  // next line
    EXPECT_EQ(sys.stats().get("txn.logRecordsCreated"), 2u);
    sys.txCommit();
}

TEST(TxnIds, CircularAllocationOrder)
{
    TxnIdAllocator ids;
    EXPECT_TRUE(ids.hasFree());
    const auto a = ids.allocate();
    const auto b = ids.allocate();
    ids.allocate();
    ids.allocate();
    EXPECT_FALSE(ids.hasFree());
    EXPECT_EQ(ids.oldestLive(), a);
    ids.release(a);
    EXPECT_TRUE(ids.hasFree());
    EXPECT_EQ(ids.oldestLive(), b);
    // The freed ID comes back at the end of the circle.
    EXPECT_EQ(ids.allocate(), a);
    EXPECT_FALSE(ids.hasFree());
}

TEST(TxnIds, ConfigurableCount)
{
    TxnIdAllocator ids(2);
    ids.allocate();
    ids.allocate();
    EXPECT_FALSE(ids.hasFree());
}

TEST(TxnIds, ResetRestoresAll)
{
    TxnIdAllocator ids;
    ids.allocate();
    ids.allocate();
    ids.reset();
    for (int i = 0; i < 4; ++i)
        ids.allocate();
    EXPECT_FALSE(ids.hasFree());
}

TEST(Signature, NoFalseNegatives)
{
    Signature sig;
    Rng rng(5);
    std::vector<Addr> inserted;
    for (int i = 0; i < 200; ++i) {
        const Addr a = rng.next() & ~0x3FULL;
        sig.insert(a);
        inserted.push_back(a);
    }
    for (Addr a : inserted)
        EXPECT_TRUE(sig.mightContain(a));
}

TEST(Signature, LowFalsePositiveRateWhenSparse)
{
    Signature sig;
    Rng rng(6);
    for (int i = 0; i < 64; ++i)
        sig.insert(rng.next() & ~0x3FULL);
    int fp = 0;
    for (int i = 0; i < 10000; ++i) {
        if (sig.mightContain(rng.next() & ~0x3FULL))
            ++fp;
    }
    // 64 lines, 4 hashes into 2048 bits: the false-positive rate
    // should be well below 1%.
    EXPECT_LT(fp, 100);
}

TEST(Signature, LineGranular)
{
    Signature sig;
    sig.insert(0x1008);
    EXPECT_TRUE(sig.mightContain(0x1030));  // same line
}

TEST(Signature, ClearEmpties)
{
    Signature sig;
    sig.insert(0x1000);
    sig.clear();
    EXPECT_TRUE(sig.empty());
    EXPECT_FALSE(sig.mightContain(0x1000));
}

TEST(Commit, EagerLinesDurableAfterCommit)
{
    PmSystem sys(configFor(SchemeKind::SLPMT));
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.write<std::uint64_t>(addr, 0x1234);
    sys.txCommit();
    // Crash immediately: the committed value must be durable.
    sys.crash();
    sys.recoverHardware();
    EXPECT_EQ(sys.peek<std::uint64_t>(addr), 0x1234u);
}

TEST(Commit, UncommittedStoresRollBack)
{
    PmSystem sys(configFor(SchemeKind::SLPMT));
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.write<std::uint64_t>(addr, 0x1111);
    sys.txCommit();
    sys.quiesce();

    sys.txBegin();
    sys.write<std::uint64_t>(addr, 0x2222);
    // Push the dirty line to PM mid-transaction (steal): the undo
    // record goes first, so rollback still works.
    sys.engine().advance(sys.hierarchy().flushAll(sys.engine().now()));
    sys.crash();
    sys.recoverHardware();
    EXPECT_EQ(sys.peek<std::uint64_t>(addr), 0x1111u);
}

TEST(Commit, LogTruncatedAfterCommit)
{
    PmSystem sys(configFor(SchemeKind::FG));
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.write<std::uint64_t>(addr, 1);
    sys.txCommit();
    EXPECT_TRUE(sys.engine().logArea().empty());
}

TEST(Commit, NestedTransactionPanics)
{
    PmSystem sys(configFor(SchemeKind::SLPMT));
    sys.txBegin();
    EXPECT_THROW(sys.txBegin(), PanicError);
    sys.txCommit();
}

TEST(Commit, CommitOutsideTransactionPanics)
{
    PmSystem sys(configFor(SchemeKind::SLPMT));
    EXPECT_THROW(sys.txCommit(), PanicError);
}

TEST(Ede, SpanRecordsCoalescePerStore)
{
    PmSystem sys(configFor(SchemeKind::EDE));
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    std::uint8_t buf[32] = {};
    // One 32-byte store: 4 words coalesce into one aligned record.
    sys.writeBytes(addr, buf, sizeof(buf));
    EXPECT_EQ(sys.stats().get("txn.logRecordsCreated"), 1u);
    sys.txCommit();
}

TEST(Ede, RecordsPersistImmediately)
{
    PmSystem sys(configFor(SchemeKind::EDE));
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.write<std::uint64_t>(addr, 1);
    // No buffering: the record is already in the durable log area.
    EXPECT_FALSE(sys.engine().logArea().empty());
    EXPECT_TRUE(sys.engine().buffer().empty());
    sys.txCommit();
}

TEST(RemoteCoherence, WriteConflictWithInflightTxnDetected)
{
    PmSystem sys(configFor(SchemeKind::SLPMT));
    const Addr addr = sys.heap().alloc(64);
    sys.txBegin();
    sys.write<std::uint64_t>(addr, 1);
    EXPECT_TRUE(sys.engine().remoteObserve(addr, true));
    sys.txCommit();
    EXPECT_FALSE(sys.engine().remoteObserve(addr, true));
    sys.hierarchy().invalidateLineEverywhere(addr);
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
