#include "workloads/blinktree.hh"

#include <algorithm>
#include <set>

namespace slpmt
{

namespace
{

std::uint64_t
bitCount(std::uint64_t x)
{
    std::uint64_t n = 0;
    for (; x; x &= x - 1)
        ++n;
    return n;
}

} // namespace

void
BlinkTreeWorkload::setup(PmContext &sys)
{
    auto &sites = sys.sites();
    siteFreshNode = sites.add({.name = "blinktree.split.freshNode",
                               .manual = {.lazy = false, .logFree = true},
                               .origin = ValueOrigin::PmLoad,
                               .targetsFreshAlloc = true,
                               .defUseDepth = 3});
    siteValueInit = sites.add({.name = "blinktree.insert.value",
                               .manual = {.lazy = false, .logFree = true},
                               .origin = ValueOrigin::Input,
                               .targetsFreshAlloc = true,
                               .defUseDepth = 1});
    // Slot writes land in a *live* leaf, but into a slot whose bitmap
    // bit is clear, so the data is invisible until the publication bit
    // flips — a bitmap-guard argument the compiler pass cannot see.
    siteSlot = sites.add({.name = "blinktree.insert.slot",
                          .manual = {.lazy = false, .logFree = true},
                          .origin = ValueOrigin::Input,
                          .requiresDeepSemantics = true,
                          .defUseDepth = 2});
    // The single-word publication stores (bitmap set/clear, value
    // swing, high-key cut, residue sweep) rest on the
    // final-store-before-commit protocol — deep program semantics.
    sitePublish = sites.add({.name = "blinktree.insert.publish",
                             .manual = {.lazy = false, .logFree = true},
                             .origin = ValueOrigin::Computed,
                             .requiresDeepSemantics = true,
                             .defUseDepth = 4});
    siteUnpublish = sites.add({.name = "blinktree.remove.publish",
                               .manual = {.lazy = false, .logFree = true},
                               .origin = ValueOrigin::Computed,
                               .requiresDeepSemantics = true,
                               .defUseDepth = 4});
    siteValSwing = sites.add({.name = "blinktree.update.publish",
                              .manual = {.lazy = false, .logFree = true},
                              .origin = ValueOrigin::PmLoad,
                              .requiresDeepSemantics = true,
                              .defUseDepth = 5});
    siteHighKey = sites.add({.name = "blinktree.split.highKey",
                             .manual = {.lazy = false, .logFree = true},
                             .origin = ValueOrigin::PmLoad,
                             .requiresDeepSemantics = true,
                             .defUseDepth = 5});
    siteResidue = sites.add({.name = "blinktree.split.residue",
                             .manual = {.lazy = false, .logFree = true},
                             .origin = ValueOrigin::Computed,
                             .requiresDeepSemantics = true,
                             .defUseDepth = 4});
    // Internal-node edits stay classically logged (the rare path).
    siteLink = sites.add({.name = "blinktree.split.next",
                          .manual = {},
                          .origin = ValueOrigin::PmLoad,
                          .defUseDepth = 3});
    siteEntry = sites.add({.name = "blinktree.parent.entry",
                           .manual = {},
                           .origin = ValueOrigin::PmLoad,
                           .defUseDepth = 3});
    siteMeta = sites.add({.name = "blinktree.parent.meta",
                          .manual = {},
                          .origin = ValueOrigin::Computed,
                          .defUseDepth = 2});
    // The element count is rebuilt by recovery from the live bitmap
    // bits — a shallow fact Pattern 2 can prove on its own.
    siteCount = sites.add({.name = "blinktree.count",
                           .manual = {.lazy = true, .logFree = false},
                           .origin = ValueOrigin::Computed,
                           .rebuildable = true,
                           .defUseDepth = 3});

    DurableTx tx(sys);
    headerAddr = sys.heap().alloc(HdrOff::size);
    const Addr root = allocNode(sys, tagLeaf);
    sys.write<Addr>(headerAddr + HdrOff::root, root);
    sys.write<std::uint64_t>(headerAddr + HdrOff::count, 0);
    sys.writeRoot(headerRootSlot, headerAddr);
    tx.commit();
    sys.quiesce();
}

Addr
BlinkTreeWorkload::allocNode(PmContext &sys, std::uint64_t tag)
{
    const Addr node = sys.heap().alloc(NodeOff::size);
    sys.writeSite<std::uint64_t>(node + NodeOff::tag, tag,
                                 siteFreshNode);
    sys.writeSite<std::uint64_t>(node + NodeOff::meta, 0, siteFreshNode);
    sys.writeSite<std::uint64_t>(node + NodeOff::highKey, highInf,
                                 siteFreshNode);
    sys.writeSite<Addr>(node + NodeOff::next, 0, siteFreshNode);
    return node;
}

BlinkTreeWorkload::Descent
BlinkTreeWorkload::descend(PmContext &sys, std::uint64_t key)
{
    Descent d;
    Addr node = sys.read<Addr>(headerAddr + HdrOff::root);
    while (sys.read<std::uint64_t>(node + NodeOff::tag) == tagInternal) {
        sys.compute(opcost::perLevel);
        const auto n = sys.read<std::uint64_t>(node + NodeOff::meta);
        std::uint64_t i = 0;
        while (i < n && key >= sys.read<std::uint64_t>(keyAddr(node, i)))
            ++i;
        d.path.push_back(node);
        d.idx.push_back(i);
        node = sys.read<Addr>(childAddr(node, i));
    }
    sys.compute(opcost::perLevel);
    d.leaf = node;
    return d;
}

std::uint64_t
BlinkTreeWorkload::liveMask(PmContext &sys, Addr leaf)
{
    const auto meta = sys.read<std::uint64_t>(leaf + NodeOff::meta);
    const auto high = sys.read<std::uint64_t>(leaf + NodeOff::highKey);
    std::uint64_t live = 0;
    for (std::uint64_t j = 0; j < leafSlots; ++j) {
        if (((meta >> j) & 1) &&
            sys.read<std::uint64_t>(keyAddr(leaf, j)) < high)
            live |= 1ULL << j;
    }
    return live;
}

std::uint64_t
BlinkTreeWorkload::residueMask(PmContext &sys, Addr leaf)
{
    return sys.read<std::uint64_t>(leaf + NodeOff::meta) &
           ~liveMask(sys, leaf);
}

std::uint64_t
BlinkTreeWorkload::findSlot(PmContext &sys, Addr leaf, std::uint64_t key)
{
    const auto live = liveMask(sys, leaf);
    for (std::uint64_t j = 0; j < leafSlots; ++j) {
        if (((live >> j) & 1) &&
            sys.read<std::uint64_t>(keyAddr(leaf, j)) == key)
            return j;
    }
    return leafSlots;
}

void
BlinkTreeWorkload::insertEntry(PmContext &sys, Addr node,
                               std::uint64_t sep, Addr child)
{
    const auto n = sys.read<std::uint64_t>(node + NodeOff::meta);
    std::uint64_t pos = 0;
    while (pos < n && sys.read<std::uint64_t>(keyAddr(node, pos)) < sep)
        ++pos;
    for (std::uint64_t i = n; i > pos; --i) {
        sys.writeSite<std::uint64_t>(
            keyAddr(node, i),
            sys.read<std::uint64_t>(keyAddr(node, i - 1)), siteEntry);
        sys.writeSite<Addr>(childAddr(node, i + 1),
                            sys.read<Addr>(childAddr(node, i)),
                            siteEntry);
    }
    sys.writeSite<std::uint64_t>(keyAddr(node, pos), sep, siteEntry);
    sys.writeSite<Addr>(childAddr(node, pos + 1), child, siteEntry);
    sys.writeSite<std::uint64_t>(node + NodeOff::meta, n + 1, siteMeta);
}

void
BlinkTreeWorkload::insertIntoParents(PmContext &sys, const Descent &d,
                                     std::uint64_t sep, Addr child)
{
    std::vector<Addr> path = d.path;
    std::uint64_t s = sep;
    Addr c = child;
    while (true) {
        if (path.empty()) {
            // Grow the tree: a fresh internal root over the old one.
            const Addr old_root =
                sys.read<Addr>(headerAddr + HdrOff::root);
            const Addr root = allocNode(sys, tagInternal);
            sys.writeSite<std::uint64_t>(keyAddr(root, 0), s,
                                         siteFreshNode);
            sys.writeSite<Addr>(childAddr(root, 0), old_root,
                                siteFreshNode);
            sys.writeSite<Addr>(childAddr(root, 1), c, siteFreshNode);
            sys.writeSite<std::uint64_t>(root + NodeOff::meta, 1,
                                         siteFreshNode);
            sys.writeSite<Addr>(headerAddr + HdrOff::root, root,
                                siteMeta);
            return;
        }
        const Addr node = path.back();
        path.pop_back();
        const auto n = sys.read<std::uint64_t>(node + NodeOff::meta);
        if (n < maxKeys) {
            insertEntry(sys, node, s, c);
            return;
        }
        // Split the full internal node: a fresh right sibling takes
        // the upper keys and the median separator moves up. Internal
        // splits are atomic (one logged transaction), so internal
        // nodes never carry a half-split state.
        const Addr sib = allocNode(sys, tagInternal);
        const std::uint64_t mid = maxKeys / 2;  // 3
        const auto median = sys.read<std::uint64_t>(keyAddr(node, mid));
        const std::uint64_t moved = maxKeys - mid - 1;  // 3
        for (std::uint64_t i = 0; i < moved; ++i) {
            sys.compute(opcost::perMove);
            sys.writeSite<std::uint64_t>(
                keyAddr(sib, i),
                sys.read<std::uint64_t>(keyAddr(node, mid + 1 + i)),
                siteFreshNode);
        }
        for (std::uint64_t i = 0; i <= moved; ++i) {
            sys.writeSite<Addr>(
                childAddr(sib, i),
                sys.read<Addr>(childAddr(node, mid + 1 + i)),
                siteFreshNode);
        }
        sys.writeSite<std::uint64_t>(sib + NodeOff::meta, moved,
                                     siteFreshNode);
        sys.writeSite<std::uint64_t>(node + NodeOff::meta, mid,
                                     siteMeta);
        if (s >= median)
            insertEntry(sys, sib, s, c);
        else
            insertEntry(sys, node, s, c);
        s = median;
        c = sib;
    }
}

void
BlinkTreeWorkload::sweepResidue(PmContext &sys, Addr leaf,
                                std::uint64_t mask)
{
    DurableTx tx(sys);
    const auto meta = sys.read<std::uint64_t>(leaf + NodeOff::meta);
    // Single-word final store, committed immediately: the stale bits
    // vanish atomically.
    sys.writeSite<std::uint64_t>(leaf + NodeOff::meta, meta & ~mask,
                                 siteResidue);
    tx.commit();
}

void
BlinkTreeWorkload::splitLeaf(PmContext &sys, const Descent &d)
{
    const Addr leaf = d.leaf;
    struct Entry
    {
        std::uint64_t key;
        Addr val;
        std::uint64_t slot;
    };
    std::vector<Entry> live;
    const auto mask = sys.read<std::uint64_t>(leaf + NodeOff::meta);
    for (std::uint64_t j = 0; j < leafSlots; ++j) {
        if ((mask >> j) & 1)
            live.push_back({sys.read<std::uint64_t>(keyAddr(leaf, j)),
                            sys.read<Addr>(valPtrAddr(leaf, j)), j});
    }
    std::sort(live.begin(), live.end(),
              [](const Entry &a, const Entry &b) { return a.key < b.key; });
    const std::uint64_t keep = leafSlots / 2 + 1;  // 4
    const std::uint64_t sep = live[keep].key;

    // Transaction A: build the fresh right sibling off to the side
    // (Pattern-1 log-free), link it (logged), then *cut the high key*
    // — the final single-word store that makes the split real.
    Addr sib = 0;
    {
        DurableTx tx(sys);
        sys.compute(opcost::insertBase / 2);
        sib = sys.heap().alloc(NodeOff::size);
        sys.writeSite<std::uint64_t>(sib + NodeOff::tag, tagLeaf,
                                     siteFreshNode);
        sys.writeSite<std::uint64_t>(
            sib + NodeOff::highKey,
            sys.read<std::uint64_t>(leaf + NodeOff::highKey),
            siteFreshNode);
        sys.writeSite<Addr>(sib + NodeOff::next,
                            sys.read<Addr>(leaf + NodeOff::next),
                            siteFreshNode);
        std::uint64_t sib_mask = 0;
        for (std::uint64_t i = keep; i < live.size(); ++i) {
            sys.compute(opcost::perMove);
            const std::uint64_t j = i - keep;
            sys.writeSite<std::uint64_t>(keyAddr(sib, j), live[i].key,
                                         siteFreshNode);
            sys.writeSite<Addr>(valPtrAddr(sib, j), live[i].val,
                                siteFreshNode);
            sib_mask |= 1ULL << j;
        }
        sys.writeSite<std::uint64_t>(sib + NodeOff::meta, sib_mask,
                                     siteFreshNode);
        sys.writeSite<Addr>(leaf + NodeOff::next, sib, siteLink);
        sys.writeSite<std::uint64_t>(leaf + NodeOff::highKey, sep,
                                     siteHighKey);
        tx.commit();
    }

    // Transaction B: the moved entries are now residue (key >= high
    // key) — sweep their stale bitmap bits.
    std::uint64_t moved_mask = 0;
    for (std::uint64_t i = keep; i < live.size(); ++i)
        moved_mask |= 1ULL << live[i].slot;
    sweepResidue(sys, leaf, moved_mask);

    // Transaction C: attach the sibling to the parent. A crash before
    // this point leaves the sibling reachable only through the chain;
    // the next writer (or recovery) performs this attach instead.
    DurableTx tx(sys);
    insertIntoParents(sys, d, sep, sib);
    tx.commit();
}

void
BlinkTreeWorkload::insert(PmContext &sys, std::uint64_t key,
                          const std::vector<std::uint8_t> &value)
{
    while (true) {
        const Descent d = descend(sys, key);
        const Addr leaf = d.leaf;
        const auto high =
            sys.read<std::uint64_t>(leaf + NodeOff::highKey);
        if (key >= high) {
            // Writers fix inconsistency: the leaf's right sibling
            // split off but never reached the parent. Attach it and
            // retry the descent.
            const Addr sib = sys.read<Addr>(leaf + NodeOff::next);
            DurableTx tx(sys);
            insertIntoParents(sys, d, high, sib);
            tx.commit();
            ++repairStats.parentFixes;
            continue;
        }
        const auto residue = residueMask(sys, leaf);
        if (residue) {
            // Stale bits from a split whose sweep never ran.
            sweepResidue(sys, leaf, residue);
            ++repairStats.residueSweeps;
            continue;
        }
        panicIfNot(findSlot(sys, leaf, key) == leafSlots,
                   "duplicate key inserted");
        const auto meta = sys.read<std::uint64_t>(leaf + NodeOff::meta);
        if (meta == fullMask) {
            splitLeaf(sys, d);
            continue;
        }
        std::uint64_t j = 0;
        while ((meta >> j) & 1)
            ++j;

        DurableTx tx(sys);
        sys.compute(opcost::insertBase +
                    opcost::valueWork(value.size()));
        const Addr blob = writeFreshBlob(sys, value, siteValueInit);
        // The slot is dead until its bitmap bit flips: these stores
        // are invisible whatever the crash outcome.
        sys.writeSite<std::uint64_t>(keyAddr(leaf, j), key, siteSlot);
        sys.writeSite<Addr>(valPtrAddr(leaf, j), blob, siteSlot);
        const auto cnt =
            sys.read<std::uint64_t>(headerAddr + HdrOff::count);
        sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count,
                                     cnt + 1, siteCount);
        // Publish: flip the bit — final store, then commit.
        sys.writeSite<std::uint64_t>(leaf + NodeOff::meta,
                                     meta | (1ULL << j), sitePublish);
        tx.commit();
        return;
    }
}

bool
BlinkTreeWorkload::update(PmContext &sys, std::uint64_t key,
                          const std::vector<std::uint8_t> &value)
{
    // Readers (and updates, which touch no structure) chase the
    // sibling chain instead of fixing the parent.
    Addr leaf = descend(sys, key).leaf;
    while (leaf &&
           key >= sys.read<std::uint64_t>(leaf + NodeOff::highKey))
        leaf = sys.read<Addr>(leaf + NodeOff::next);
    if (!leaf)
        return false;
    const auto j = findSlot(sys, leaf, key);
    if (j == leafSlots)
        return false;

    // Single-word publication of the fresh blob (final store).
    replaceBlob(sys, valPtrAddr(leaf, j), value, siteValueInit,
                siteValSwing);
    return true;
}

bool
BlinkTreeWorkload::lookup(PmContext &sys, std::uint64_t key,
                          std::vector<std::uint8_t> *out)
{
    Addr leaf = descend(sys, key).leaf;
    while (leaf &&
           key >= sys.read<std::uint64_t>(leaf + NodeOff::highKey))
        leaf = sys.read<Addr>(leaf + NodeOff::next);
    if (!leaf)
        return false;
    const auto j = findSlot(sys, leaf, key);
    if (j == leafSlots)
        return false;
    readBlob(sys, valPtrAddr(leaf, j), out);
    return true;
}

bool
BlinkTreeWorkload::remove(PmContext &sys, std::uint64_t key)
{
    while (true) {
        const Descent d = descend(sys, key);
        const Addr leaf = d.leaf;
        const auto high =
            sys.read<std::uint64_t>(leaf + NodeOff::highKey);
        if (key >= high) {
            const Addr sib = sys.read<Addr>(leaf + NodeOff::next);
            DurableTx tx(sys);
            insertIntoParents(sys, d, high, sib);
            tx.commit();
            ++repairStats.parentFixes;
            continue;
        }
        const auto residue = residueMask(sys, leaf);
        if (residue) {
            sweepResidue(sys, leaf, residue);
            ++repairStats.residueSweeps;
            continue;
        }
        const auto j = findSlot(sys, leaf, key);
        if (j == leafSlots)
            return false;

        DurableTx tx(sys);
        sys.compute(opcost::insertBase / 2);
        const auto cnt =
            sys.read<std::uint64_t>(headerAddr + HdrOff::count);
        sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count,
                                     cnt - 1, siteCount);
        tx.free(sys.read<Addr>(valPtrAddr(leaf, j)));
        const auto meta = sys.read<std::uint64_t>(leaf + NodeOff::meta);
        // Unpublish: clear the bit — final store, then commit. The
        // slot data stays behind as dead space.
        sys.writeSite<std::uint64_t>(leaf + NodeOff::meta,
                                     meta & ~(1ULL << j),
                                     siteUnpublish);
        tx.commit();
        return true;
    }
}

std::size_t
BlinkTreeWorkload::count(PmContext &sys)
{
    return sys.read<std::uint64_t>(headerAddr + HdrOff::count);
}

void
BlinkTreeWorkload::collectNodes(PmContext &sys, Addr node,
                                std::vector<Addr> *internals,
                                std::vector<Addr> *leaves)
{
    if (sys.peek<std::uint64_t>(node + NodeOff::tag) == tagLeaf) {
        leaves->push_back(node);
        return;
    }
    internals->push_back(node);
    const auto n = sys.peek<std::uint64_t>(node + NodeOff::meta);
    for (std::uint64_t i = 0; i <= n; ++i)
        collectNodes(sys, sys.peek<Addr>(childAddr(node, i)), internals,
                     leaves);
}

void
BlinkTreeWorkload::recover(PmContext &sys)
{
    headerAddr = sys.peek<Addr>(sys.rootSlotAddr(headerRootSlot));

    // Recovery is just the writers-fix discipline run to fixpoint:
    // attach any leaf reachable through the sibling chain but missing
    // from its parent (crash between a split's cut and its attach).
    while (true) {
        std::vector<Addr> internals;
        std::vector<Addr> leaves;
        collectNodes(sys, sys.peek<Addr>(headerAddr + HdrOff::root),
                     &internals, &leaves);
        const std::set<Addr> attached(leaves.begin(), leaves.end());
        Addr fix_left = 0;
        Addr fix_child = 0;
        Addr cur = leaves.front();
        while (true) {
            const Addr nxt = sys.peek<Addr>(cur + NodeOff::next);
            if (!nxt)
                break;
            if (!attached.count(nxt)) {
                fix_left = cur;
                fix_child = nxt;
                break;
            }
            cur = nxt;
        }
        if (!fix_child)
            break;
        // The detached sibling covers [fix_left.highKey, ...): descend
        // for that key to rebuild the parent path, then attach.
        const auto sep =
            sys.peek<std::uint64_t>(fix_left + NodeOff::highKey);
        const Descent d = descend(sys, sep);
        DurableTx tx(sys);
        insertIntoParents(sys, d, sep, fix_child);
        tx.commit();
        ++repairStats.parentFixes;
    }

    // Sweep stale bitmap residue and recount the lazy element count.
    std::vector<Addr> internals;
    std::vector<Addr> leaves;
    collectNodes(sys, sys.peek<Addr>(headerAddr + HdrOff::root),
                 &internals, &leaves);
    DurableTx tx(sys);
    std::size_t live_total = 0;
    for (const Addr leaf : leaves) {
        const auto residue = residueMask(sys, leaf);
        const auto meta = sys.read<std::uint64_t>(leaf + NodeOff::meta);
        if (residue) {
            sys.write<std::uint64_t>(leaf + NodeOff::meta,
                                     meta & ~residue);
            ++repairStats.residueSweeps;
        }
        live_total += bitCount(meta & ~residue);
    }
    if (sys.read<std::uint64_t>(headerAddr + HdrOff::count) !=
        live_total)
        ++repairStats.countFixes;
    sys.write<std::uint64_t>(headerAddr + HdrOff::count, live_total);
    tx.commit();

    std::vector<Addr> reachable = {headerAddr};
    for (const Addr n : internals)
        reachable.push_back(n);
    for (const Addr leaf : leaves) {
        reachable.push_back(leaf);
        const auto meta = sys.peek<std::uint64_t>(leaf + NodeOff::meta);
        for (std::uint64_t j = 0; j < leafSlots; ++j) {
            if ((meta >> j) & 1)
                reachable.push_back(sys.peek<Addr>(valPtrAddr(leaf, j)));
        }
    }
    sys.heap().rebuild(reachable);
    sys.quiesce();
}

bool
BlinkTreeWorkload::checkNode(PmContext &sys, Addr node, std::uint64_t lo,
                             std::uint64_t hi, std::size_t depth,
                             std::size_t *leaf_depth, std::size_t *n,
                             Addr *prev_leaf, std::string *why)
{
    if (!node)
        return failCheck(why, "missing node");
    const auto tag = sys.read<std::uint64_t>(node + NodeOff::tag);
    if (tag == tagLeaf) {
        if (*leaf_depth == 0)
            *leaf_depth = depth;
        else if (*leaf_depth != depth)
            return failCheck(why, "leaves at different depths");
        if (sys.read<std::uint64_t>(node + NodeOff::highKey) != hi)
            return failCheck(why, "leaf high key does not match range");
        if (*prev_leaf &&
            sys.read<Addr>(*prev_leaf + NodeOff::next) != node)
            return failCheck(why, "sibling chain breaks tree order");
        *prev_leaf = node;
        const auto meta = sys.read<std::uint64_t>(node + NodeOff::meta);
        if (meta & ~fullMask)
            return failCheck(why, "bitmap bits beyond slot range");
        std::vector<std::uint64_t> keys;
        for (std::uint64_t j = 0; j < leafSlots; ++j) {
            if (!((meta >> j) & 1))
                continue;
            const auto k = sys.read<std::uint64_t>(keyAddr(node, j));
            if (k >= hi)
                continue;  // stale residue is a benign state
            if (k < lo)
                return failCheck(why, "live key below subtree range");
            if (sys.read<Addr>(valPtrAddr(node, j)) == 0)
                return failCheck(why, "live slot missing value");
            keys.push_back(k);
        }
        std::sort(keys.begin(), keys.end());
        for (std::size_t i = 1; i < keys.size(); ++i) {
            if (keys[i] == keys[i - 1])
                return failCheck(why, "duplicate live key in leaf");
        }
        *n += keys.size();
        return true;
    }
    if (tag != tagInternal)
        return failCheck(why, "bad node tag");
    const auto nk = sys.read<std::uint64_t>(node + NodeOff::meta);
    if (nk < 1 || nk > maxKeys)
        return failCheck(why, "internal key count out of range");
    if (sys.read<std::uint64_t>(node + NodeOff::highKey) != highInf ||
        sys.read<Addr>(node + NodeOff::next) != 0)
        return failCheck(why, "internal node half split");
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < nk; ++i) {
        const auto k = sys.read<std::uint64_t>(keyAddr(node, i));
        if (k < lo || k >= hi)
            return failCheck(why, "separator outside subtree range");
        if (i > 0 && k <= prev)
            return failCheck(why, "separator order violated");
        prev = k;
    }
    std::uint64_t child_lo = lo;
    for (std::uint64_t i = 0; i <= nk; ++i) {
        const std::uint64_t child_hi =
            i < nk ? sys.read<std::uint64_t>(keyAddr(node, i)) : hi;
        if (!checkNode(sys, sys.read<Addr>(childAddr(node, i)), child_lo,
                       child_hi, depth + 1, leaf_depth, n, prev_leaf,
                       why))
            return false;
        child_lo = child_hi;
    }
    return true;
}

bool
BlinkTreeWorkload::checkConsistency(PmContext &sys, std::string *why)
{
    std::size_t leaf_depth = 0;
    std::size_t n = 0;
    Addr prev_leaf = 0;
    if (!checkNode(sys, sys.read<Addr>(headerAddr + HdrOff::root), 0,
                   highInf, 1, &leaf_depth, &n, &prev_leaf, why))
        return false;
    if (prev_leaf && sys.read<Addr>(prev_leaf + NodeOff::next) != 0)
        return failCheck(why, "sibling chain past rightmost leaf");
    if (n != sys.read<std::uint64_t>(headerAddr + HdrOff::count))
        return failCheck(why, "count mismatch");
    return true;
}

} // namespace slpmt
