/**
 * @file
 * Tests for the metadata line index (the O(working set) transaction
 * sweeps) and the hoisted signature hashing.
 *
 * The index is a pure host-side optimisation: it must never change
 * what the simulator computes. Two layers of evidence:
 *  - a randomized fuzzer drives tiny-cache machines through every
 *    metadata transition (store, storeT, promotion, merge-down,
 *    eviction, commit, abort, lazy drain, crash) with the per-walk
 *    audit armed, cross-checking index against brute-force scan after
 *    every operation;
 *  - seeded machine traces with the audits forced on and forced off
 *    must leave byte-identical checkpoint encodings;
 *  - the signature probe hoist is pinned to the exact historical bit
 *    pattern with hard-coded slot values.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "common/rng.hh"
#include "core/pm_system.hh"

namespace slpmt
{
namespace
{

/** Tiny geometry (matches the crash explorer): single-digit sets per
 *  level so promotions and evictions happen within a few stores. */
SystemConfig
tinyConfig(SchemeKind kind, LoggingStyle style)
{
    SystemConfig sc;
    sc.scheme = SchemeConfig::forKind(kind);
    sc.style = style;
    sc.hierarchy.l1 = CacheConfig{"L1", 1024, 2, 4};
    sc.hierarchy.l2 = CacheConfig{"L2", 2048, 2, 12};
    sc.hierarchy.l3 = CacheConfig{"L3", 4096, 4, 40};
    return sc;
}

/** Assert the index matches a brute-force scan, with context. */
void
expectIndexClean(PmSystem &sys, const std::string &where)
{
    std::string why;
    EXPECT_TRUE(sys.hierarchy().verifyMetaIndex(&why))
        << where << ": " << why;
}

/**
 * Drive one machine through a random operation mix. Every operation
 * is followed by a full index-vs-scan cross-check; the armed audit
 * additionally panics inside any sweep that walks a stale index.
 */
void
fuzzMachine(SchemeKind kind, LoggingStyle style, std::uint64_t seed,
            std::size_t num_ops)
{
    PmSystem sys(tinyConfig(kind, style));
    sys.hierarchy().setMetaIndexAudit(true);
    Rng rng(seed);

    // A footprint of 32 lines in a 16-line private hierarchy keeps
    // every level churning.
    const Addr base = sys.map().heapBase() + 8192;
    auto lineAddr = [&] { return base + rng.below(32) * cacheLineSize; };

    for (std::size_t i = 0; i < num_ops; ++i) {
        const std::uint64_t pick = rng.below(100);
        const std::string where =
            "op " + std::to_string(i) + " pick " + std::to_string(pick);
        if (pick < 35) {
            // Plain store (logged, eager).
            sys.write<std::uint64_t>(lineAddr() + rng.below(8) * 8,
                                     rng.next());
        } else if (pick < 55) {
            // storeT with random operands.
            StoreFlags flags;
            flags.lazy = rng.below(2) != 0;
            flags.logFree = rng.below(2) != 0;
            sys.writeT<std::uint64_t>(lineAddr() + rng.below(8) * 8,
                                      rng.next(), flags);
        } else if (pick < 70) {
            sys.read<std::uint64_t>(lineAddr());
        } else if (pick < 78) {
            if (!sys.inTransaction())
                sys.txBegin();
        } else if (pick < 86) {
            if (sys.inTransaction())
                sys.txCommit();
        } else if (pick < 90) {
            if (sys.inTransaction())
                sys.txAbort();
        } else if (pick < 93) {
            // Remote coherence traffic (may force lazy drains): a
            // peer's probe, whose non-conflicting store invalidates
            // this core's copy.
            const bool is_write = rng.below(2) != 0;
            const Addr addr = lineAddr();
            if (!sys.engine().remoteObserve(addr, is_write) && is_write)
                sys.hierarchy().invalidateLineEverywhere(addr);
        } else if (pick < 96) {
            sys.engine().persistAllLazy();
        } else if (pick < 98) {
            sys.engine().contextSwitch();
        } else {
            if (!sys.inTransaction()) {
                sys.crash();
                sys.recoverHardware();
            }
        }
        expectIndexClean(sys, where);
        if (::testing::Test::HasFailure())
            return;  // first divergence is the useful one
    }

    if (sys.inTransaction())
        sys.txCommit();
    sys.quiesce();
    expectIndexClean(sys, "after quiesce");
    EXPECT_EQ(sys.hierarchy().l1().metaLineCount(), 0u);
    EXPECT_EQ(sys.hierarchy().l2().metaLineCount(), 0u);
}

TEST(LineIndex, FuzzUndoSchemes)
{
    for (SchemeKind kind : {SchemeKind::SLPMT, SchemeKind::FG,
                            SchemeKind::ATOM, SchemeKind::EDE}) {
        fuzzMachine(kind, LoggingStyle::Undo,
                    0x5EED0 + static_cast<std::uint64_t>(kind), 1500);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(LineIndex, FuzzRedoStyle)
{
    // Redo mode exercises the no-steal eviction stash and the
    // sorted write-set drain.
    for (std::uint64_t seed : {7u, 99u, 4242u}) {
        fuzzMachine(SchemeKind::SLPMT, LoggingStyle::Redo, seed, 1500);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(LineIndex, FuzzLargeGeometryLazyHeavy)
{
    // Default (paper) geometry with a lazy-heavy scheme: the index
    // must also track metadata spread thin across big arrays.
    PmSystem sys{[] {
        SystemConfig sc;
        sc.scheme = SchemeConfig::forKind(SchemeKind::SLPMT);
        return sc;
    }()};
    sys.hierarchy().setMetaIndexAudit(true);
    Rng rng(123);
    const Addr base = sys.map().heapBase() + 8192;
    for (int txn = 0; txn < 30; ++txn) {
        sys.txBegin();
        for (int s = 0; s < 20; ++s) {
            StoreFlags flags;
            flags.lazy = rng.below(2) != 0;
            sys.writeT<std::uint64_t>(
                base + rng.below(512) * cacheLineSize, rng.next(),
                flags);
        }
        sys.txCommit();
        expectIndexClean(sys, "txn " + std::to_string(txn));
    }
    sys.engine().persistAllLazy();
    expectIndexClean(sys, "after drain");
}

TEST(LineIndex, AuditDetectsHandCorruptedIndex)
{
    PmSystem sys(tinyConfig(SchemeKind::SLPMT, LoggingStyle::Undo));
    sys.txBegin();
    sys.write<std::uint64_t>(sys.map().heapBase() + 8192, 1);
    std::string why;
    ASSERT_TRUE(sys.hierarchy().verifyMetaIndex(&why)) << why;

    // Sabotage: give a private line metadata behind the index's back.
    CacheLine *line =
        sys.hierarchy().findPrivate(sys.map().heapBase() + 8192);
    ASSERT_NE(line, nullptr);
    Cache &owner = sys.hierarchy().l1().find(line->tag) == line
                       ? sys.hierarchy().l1()
                       : sys.hierarchy().l2();
    const std::uint8_t saved = line->txnId;
    line->txnId = saved == 0 ? 1 : 0;
    // Pretend the sync never happened.
    owner.setMetaLinkedForTest(*line, false);
    EXPECT_FALSE(sys.hierarchy().verifyMetaIndex(&why));
    EXPECT_NE(why.find("not indexed"), std::string::npos) << why;

    // Restore so teardown paths stay sane.
    line->txnId = saved;
    owner.setMetaLinkedForTest(*line, true);
    sys.txCommit();
}

/** Drive one machine, audits forced on or off, through a seeded
 *  transactional store trace; returns its checkpoint. */
MachineCheckpoint
traceImage(std::uint64_t seed, bool audit)
{
    PmSystem sys{SystemConfig{}};
    sys.hierarchy().setMetaIndexAudit(audit);

    const Addr base = sys.map().heapBase() + 8192;
    std::mt19937_64 rng(seed);
    for (int txn = 0; txn < 40; ++txn) {
        sys.txBegin();
        for (int s = 0; s < 8; ++s) {
            const std::uint64_t value = rng();
            const Addr addr = base + (rng() % 4096) * 8;
            sys.writeBytes(addr, &value, sizeof(value));
        }
        // A sprinkling of aborts exercises the undo path too.
        if (txn % 9 == 4)
            sys.txAbort();
        else
            sys.txCommit();
    }
    sys.quiesce();
    return MachineCheckpoint::capture(sys);
}

TEST(LineIndex, RandomTracesProduceIdenticalCheckpointEncodings)
{
    // The audits recompute the probe keys and the metadata index from
    // the architectural lines on every walk, so they must not change
    // what the machine computes. A checkpoint holds every
    // architectural register plus the PM and DRAM page images and the
    // configuration, so checkpoint equality (pages compared by
    // content) is machine-state byte-identity.
    for (const std::uint64_t seed : {7ull, 1234ull, 987654321ull})
        EXPECT_TRUE(traceImage(seed, false) == traceImage(seed, true))
            << "seed " << seed;
}

// -------------------------------------------------------------------
// Signature probe hoist: behaviour-preserving proof
// -------------------------------------------------------------------

TEST(SignatureProbe, PinsExactSlotPattern)
{
    // Hard-coded slots computed from the pre-hoist implementation
    // (mix64(lineBase ^ salt[i]) % 2048). If these move, the working
    // set signatures change and every lazy-persistency figure shifts.
    const auto p1 = Signature::probeFor(0x100000000ULL);
    EXPECT_EQ(p1.slots[0], 831u);
    EXPECT_EQ(p1.slots[1], 1120u);
    EXPECT_EQ(p1.slots[2], 944u);
    EXPECT_EQ(p1.slots[3], 1712u);

    const auto p2 = Signature::probeFor(0x100000040ULL);
    EXPECT_EQ(p2.slots[0], 1854u);
    EXPECT_EQ(p2.slots[1], 1807u);
    EXPECT_EQ(p2.slots[2], 77u);
    EXPECT_EQ(p2.slots[3], 945u);

    // Offsets within a line probe identically to the line base.
    const auto p3 = Signature::probeFor(0x100000040ULL + 37);
    EXPECT_EQ(p3.slots, p2.slots);
}

TEST(SignatureProbe, ProbeAndAddressPathsAgree)
{
    Signature sig;
    Rng rng(99);
    std::vector<Addr> inserted;
    for (int i = 0; i < 200; ++i) {
        const Addr addr = rng.next() & 0xFFFFFFFFFFC0ULL;
        inserted.push_back(addr);
        if (i % 2)
            sig.insert(addr);  // address path
        else
            sig.insert(Signature::probeFor(addr));  // probe path
    }
    for (Addr addr : inserted) {
        EXPECT_TRUE(sig.mightContain(addr));
        EXPECT_TRUE(sig.mightContain(Signature::probeFor(addr + 63)));
    }
    // The two query paths agree everywhere, hits and misses alike.
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.next();
        EXPECT_EQ(sig.mightContain(addr),
                  sig.mightContain(Signature::probeFor(addr)));
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
