#include "workloads/skiplist.hh"

#include "common/rng.hh"

namespace slpmt
{

std::uint64_t
SkipListWorkload::towerHeight(std::uint64_t key)
{
    // Deterministic geometric height (p = 1/4): the structure's shape
    // is a pure function of its key set, so recovery and the deep
    // checker can re-derive every tower.
    std::uint64_t u = mix64Salted(key, 0x5ee7'11f7'0f5a'1e51ULL);
    std::uint64_t h = 1;
    while (h < maxHeight && (u & 3) == 0) {
        ++h;
        u >>= 2;
    }
    return h;
}

void
SkipListWorkload::setup(PmContext &sys)
{
    auto &sites = sys.sites();
    siteFreshNode = sites.add({.name = "skiplist.insert.freshNode",
                               .manual = {.lazy = false, .logFree = true},
                               .origin = ValueOrigin::PmLoad,
                               .targetsFreshAlloc = true,
                               .defUseDepth = 3});
    siteValueInit = sites.add({.name = "skiplist.insert.value",
                               .manual = {.lazy = false, .logFree = true},
                               .origin = ValueOrigin::Input,
                               .targetsFreshAlloc = true,
                               .defUseDepth = 1});
    // Tower links above level 0 are rebuilt from the durable level-0
    // chain by recovery: a shallow value-flow fact (the link target is
    // the address the transaction just allocated), so Pattern 2 can
    // prove them lazy without deep semantics.
    siteUpperLink = sites.add({.name = "skiplist.insert.upperLink",
                               .manual = {.lazy = true, .logFree = false},
                               .origin = ValueOrigin::PmLoad,
                               .rebuildable = true,
                               .defUseDepth = 4});
    // The single-word publication/unlink stores target *live* nodes;
    // their log-freedom rests on the final-store-before-commit
    // protocol — deep program semantics the compiler pass refuses.
    sitePublish = sites.add({.name = "skiplist.insert.publish",
                             .manual = {.lazy = false, .logFree = true},
                             .origin = ValueOrigin::PmLoad,
                             .requiresDeepSemantics = true,
                             .defUseDepth = 5});
    siteUnlink = sites.add({.name = "skiplist.remove.unlink",
                            .manual = {.lazy = false, .logFree = true},
                            .origin = ValueOrigin::PmLoad,
                            .requiresDeepSemantics = true,
                            .defUseDepth = 5});
    siteDeadMark = sites.add({.name = "skiplist.remove.deadMark",
                              .manual = {.lazy = true, .logFree = true},
                              .origin = ValueOrigin::Constant,
                              .targetsDeadRegion = true,
                              .defUseDepth = 1});
    siteCount = sites.add({.name = "skiplist.count",
                           .manual = {.lazy = true, .logFree = false},
                           .origin = ValueOrigin::Computed,
                           .rebuildable = true,
                           .requiresDeepSemantics = true,
                           .defUseDepth = 3});

    DurableTx tx(sys);
    headerAddr = sys.heap().alloc(HdrOff::size);
    const Addr head = sys.heap().alloc(NodeOff::size);
    sys.write<std::uint64_t>(head + NodeOff::key, 0);
    sys.write<std::uint64_t>(head + NodeOff::height, maxHeight);
    sys.write<Addr>(head + NodeOff::valPtr, 0);
    sys.write<std::uint64_t>(head + NodeOff::deadMark, 0);
    for (std::uint64_t i = 0; i < maxHeight; ++i)
        sys.write<Addr>(nextAddr(head, i), 0);
    sys.write<Addr>(headerAddr + HdrOff::head, head);
    sys.write<std::uint64_t>(headerAddr + HdrOff::count, 0);
    sys.writeRoot(headerRootSlot, headerAddr);
    tx.commit();
    sys.quiesce();
}

void
SkipListWorkload::search(PmContext &sys, std::uint64_t key, Addr *preds,
                         Addr *succs)
{
    Addr cur = sys.read<Addr>(headerAddr + HdrOff::head);
    for (std::uint64_t i = maxHeight; i-- > 0;) {
        sys.compute(opcost::perLevel);
        while (true) {
            const Addr nxt = sys.read<Addr>(nextAddr(cur, i));
            if (!nxt ||
                sys.read<std::uint64_t>(nxt + NodeOff::key) >= key) {
                preds[i] = cur;
                succs[i] = nxt;
                break;
            }
            cur = nxt;
            sys.compute(opcost::perLevel);
        }
    }
}

void
SkipListWorkload::insert(PmContext &sys, std::uint64_t key,
                         const std::vector<std::uint8_t> &value)
{
    Addr preds[maxHeight];
    Addr succs[maxHeight];
    search(sys, key, preds, succs);
    if (succs[0])
        panicIfNot(sys.read<std::uint64_t>(succs[0] + NodeOff::key) !=
                       key,
                   "duplicate key inserted");
    const std::uint64_t h = towerHeight(key);

    DurableTx tx(sys);
    sys.compute(opcost::insertBase + opcost::valueWork(value.size()));

    // Prepare: fresh blob and node, initialised with Pattern-1
    // log-free stores. A crash leaks both; recovery's GC reclaims.
    const Addr blob = writeFreshBlob(sys, value, siteValueInit);
    const Addr node = sys.heap().alloc(NodeOff::size);
    sys.writeSite<std::uint64_t>(node + NodeOff::key, key,
                                 siteFreshNode);
    sys.writeSite<std::uint64_t>(node + NodeOff::height, h,
                                 siteFreshNode);
    sys.writeSite<Addr>(node + NodeOff::valPtr, blob, siteFreshNode);
    sys.writeSite<std::uint64_t>(node + NodeOff::deadMark, 0,
                                 siteFreshNode);
    for (std::uint64_t i = 0; i < h; ++i)
        sys.writeSite<Addr>(nextAddr(node, i), succs[i], siteFreshNode);

    // Lazy metadata, rebuilt from the level-0 chain by recovery.
    const auto cnt =
        sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count, cnt + 1,
                                 siteCount);
    for (std::uint64_t i = h; i-- > 1;)
        sys.writeSite<Addr>(nextAddr(preds[i], i), node, siteUpperLink);

    // Publish: the last store of the transaction, immediately followed
    // by the commit — durable exactly when the transaction is, so the
    // single word needs no log record.
    sys.writeSite<Addr>(nextAddr(preds[0], 0), node, sitePublish);
    tx.commit();
}

bool
SkipListWorkload::update(PmContext &sys, std::uint64_t key,
                         const std::vector<std::uint8_t> &value)
{
    Addr preds[maxHeight];
    Addr succs[maxHeight];
    search(sys, key, preds, succs);
    const Addr node = succs[0];
    if (!node || sys.read<std::uint64_t>(node + NodeOff::key) != key)
        return false;

    // Single-word publication of the fresh blob (final store).
    replaceBlob(sys, node + NodeOff::valPtr, value, siteValueInit,
                sitePublish);
    return true;
}

bool
SkipListWorkload::lookup(PmContext &sys, std::uint64_t key,
                         std::vector<std::uint8_t> *out)
{
    Addr preds[maxHeight];
    Addr succs[maxHeight];
    search(sys, key, preds, succs);
    const Addr node = succs[0];
    if (!node || sys.read<std::uint64_t>(node + NodeOff::key) != key)
        return false;
    readBlob(sys, node + NodeOff::valPtr, out);
    return true;
}

bool
SkipListWorkload::remove(PmContext &sys, std::uint64_t key)
{
    Addr preds[maxHeight];
    Addr succs[maxHeight];
    search(sys, key, preds, succs);
    const Addr node = succs[0];
    if (!node || sys.read<std::uint64_t>(node + NodeOff::key) != key)
        return false;

    DurableTx tx(sys);
    sys.compute(opcost::insertBase / 2);
    const auto h = sys.read<std::uint64_t>(node + NodeOff::height);
    const auto cnt =
        sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count, cnt - 1,
                                 siteCount);
    for (std::uint64_t i = h; i-- > 1;) {
        if (sys.read<Addr>(nextAddr(preds[i], i)) == node)
            sys.writeSite<Addr>(nextAddr(preds[i], i),
                                sys.read<Addr>(nextAddr(node, i)),
                                siteUpperLink);
    }
    // Pattern 1b: the node dies with this transaction. The mark is
    // advisory — nothing on the live path reads it — so it is
    // harmless if it becomes durable while the transaction aborts.
    sys.writeSite<std::uint64_t>(node + NodeOff::deadMark, 1,
                                 siteDeadMark);
    tx.free(node);
    tx.free(sys.read<Addr>(node + NodeOff::valPtr));
    const Addr succ0 = sys.read<Addr>(nextAddr(node, 0));
    // Unpublish: single-word final store, then commit.
    sys.writeSite<Addr>(nextAddr(preds[0], 0), succ0, siteUnlink);
    tx.commit();
    return true;
}

std::size_t
SkipListWorkload::count(PmContext &sys)
{
    return sys.read<std::uint64_t>(headerAddr + HdrOff::count);
}

void
SkipListWorkload::recover(PmContext &sys)
{
    headerAddr = sys.peek<Addr>(sys.rootSlotAddr(headerRootSlot));
    const Addr head = sys.peek<Addr>(headerAddr + HdrOff::head);

    // The durable level-0 chain is the ground truth: publication and
    // unlink stores are only durable when their transactions
    // committed, so the chain holds exactly the committed keys.
    std::vector<Addr> chain;
    std::vector<Addr> reachable = {headerAddr, head};
    for (Addr n = sys.peek<Addr>(nextAddr(head, 0)); n;
         n = sys.peek<Addr>(nextAddr(n, 0))) {
        chain.push_back(n);
        reachable.push_back(n);
        reachable.push_back(sys.peek<Addr>(n + NodeOff::valPtr));
    }

    DurableTx tx(sys);
    // Rebuild the lazy tower links level by level from the chain.
    for (std::uint64_t lvl = 1; lvl < maxHeight; ++lvl) {
        Addr prev = head;
        for (Addr n : chain) {
            if (sys.peek<std::uint64_t>(n + NodeOff::height) <= lvl)
                continue;
            if (sys.read<Addr>(nextAddr(prev, lvl)) != n) {
                sys.write<Addr>(nextAddr(prev, lvl), n);
                ++repairStats.upperLinks;
            }
            prev = n;
        }
        if (sys.read<Addr>(nextAddr(prev, lvl)) != 0) {
            sys.write<Addr>(nextAddr(prev, lvl), 0);
            ++repairStats.upperLinks;
        }
    }
    // Clear advisory dead marks left by interrupted removals.
    for (Addr n : chain) {
        if (sys.read<std::uint64_t>(n + NodeOff::deadMark) != 0) {
            sys.write<std::uint64_t>(n + NodeOff::deadMark, 0);
            ++repairStats.deadMarks;
        }
    }
    // The count word is lazy: recount from the chain.
    if (sys.read<std::uint64_t>(headerAddr + HdrOff::count) !=
        chain.size())
        ++repairStats.countFixes;
    sys.write<std::uint64_t>(headerAddr + HdrOff::count, chain.size());
    tx.commit();
    sys.heap().rebuild(reachable);
    sys.quiesce();
}

bool
SkipListWorkload::checkConsistency(PmContext &sys, std::string *why)
{
    const Addr head = sys.read<Addr>(headerAddr + HdrOff::head);
    if (!head)
        return failCheck(why, "missing head tower");

    std::vector<Addr> chain;
    bool first = true;
    std::uint64_t prev_key = 0;
    for (Addr n = sys.read<Addr>(nextAddr(head, 0)); n;
         n = sys.read<Addr>(nextAddr(n, 0))) {
        const auto k = sys.read<std::uint64_t>(n + NodeOff::key);
        const auto h = sys.read<std::uint64_t>(n + NodeOff::height);
        if (h < 1 || h > maxHeight)
            return failCheck(why, "tower height out of range");
        if (h != towerHeight(k))
            return failCheck(why, "tower height does not match key");
        if (!first && k <= prev_key)
            return failCheck(why, "level-0 key order violated");
        prev_key = k;
        first = false;
        chain.push_back(n);
    }

    // Every upper level must be exactly the subsequence of the
    // level-0 chain whose towers reach it.
    for (std::uint64_t lvl = 1; lvl < maxHeight; ++lvl) {
        Addr cur = sys.read<Addr>(nextAddr(head, lvl));
        for (Addr n : chain) {
            if (sys.read<std::uint64_t>(n + NodeOff::height) <= lvl)
                continue;
            if (cur != n)
                return failCheck(why, "tower link mismatch at level " +
                                          std::to_string(lvl));
            cur = sys.read<Addr>(nextAddr(n, lvl));
        }
        if (cur != 0)
            return failCheck(why, "dangling tower link at level " +
                                      std::to_string(lvl));
    }

    if (chain.size() !=
        sys.read<std::uint64_t>(headerAddr + HdrOff::count))
        return failCheck(why, "count mismatch");
    return true;
}

} // namespace slpmt
