#include "workloads/kv_ctree.hh"

#include <bit>

namespace slpmt
{

void
KvCtreeWorkload::setup(PmContext &sys)
{
    auto &sites = sys.sites();
    siteLeafInit = sites.add({.name = "kv-ctree.insert.leaf",
                              .manual = {.lazy = false, .logFree = true},
                              .origin = ValueOrigin::Input,
                              .targetsFreshAlloc = true,
                              .defUseDepth = 2});
    siteInternalInit =
        sites.add({.name = "kv-ctree.insert.internal",
                   .manual = {.lazy = false, .logFree = true},
                   .origin = ValueOrigin::PmLoad,
                   .targetsFreshAlloc = true,
                   .defUseDepth = 3});
    siteValueInit = sites.add({.name = "kv-ctree.insert.value",
                               .manual = {.lazy = false, .logFree = true},
                               .origin = ValueOrigin::Input,
                               .targetsFreshAlloc = true,
                               .defUseDepth = 1});
    siteSwing = sites.add({.name = "kv-ctree.insert.swing",
                           .manual = {},
                           .origin = ValueOrigin::PmLoad,
                           .defUseDepth = 2});
    siteDeadPoison = sites.add({.name = "kv-ctree.remove.poison",
                                .manual = {.lazy = true, .logFree = true},
                                .origin = ValueOrigin::Constant,
                                .targetsDeadRegion = true,
                                .defUseDepth = 1});
    siteCount = sites.add({.name = "kv-ctree.insert.count",
                           .manual = {.lazy = true, .logFree = false},
                           .origin = ValueOrigin::Computed,
                           .rebuildable = true,
                           .requiresDeepSemantics = true,
                           .defUseDepth = 3});

    DurableTx tx(sys);
    headerAddr = sys.heap().alloc(HdrOff::size);
    sys.write<Addr>(headerAddr + HdrOff::root, 0);
    sys.write<std::uint64_t>(headerAddr + HdrOff::count, 0);
    sys.writeRoot(headerRootSlot, headerAddr);
    tx.commit();
    sys.quiesce();
}

Addr
KvCtreeWorkload::makeLeaf(PmContext &sys, std::uint64_t key, Addr val_ptr,
                          std::uint64_t val_len)
{
    const Addr leaf = sys.heap().alloc(NodeOff::size);
    sys.writeSite<std::uint64_t>(leaf + NodeOff::tag, tagLeaf,
                                 siteLeafInit);
    sys.writeSite<std::uint64_t>(leaf + NodeOff::key, key, siteLeafInit);
    sys.writeSite<Addr>(leaf + NodeOff::valPtr, val_ptr, siteLeafInit);
    sys.writeSite<std::uint64_t>(leaf + NodeOff::valLen, val_len,
                                 siteLeafInit);
    return leaf;
}

Addr
KvCtreeWorkload::findLeaf(PmContext &sys, std::uint64_t key)
{
    Addr cursor = sys.read<Addr>(headerAddr + HdrOff::root);
    while (cursor &&
           sys.read<std::uint64_t>(cursor + NodeOff::tag) ==
               tagInternal) {
        sys.compute(opcost::perLevel);
        const auto pos = sys.read<std::uint64_t>(cursor + NodeOff::bitPos);
        cursor = sys.read<Addr>(cursor + (bitOf(key, pos)
                                              ? NodeOff::child1
                                              : NodeOff::child0));
    }
    return cursor;
}

void
KvCtreeWorkload::insert(PmContext &sys, std::uint64_t key,
                        const std::vector<std::uint8_t> &value)
{
    DurableTx tx(sys);
    sys.compute(opcost::insertBase + opcost::valueWork(value.size()));

    const Addr val_ptr = writeFreshValue(sys, value, siteValueInit);
    const Addr leaf = makeLeaf(sys, key, val_ptr, value.size());

    const Addr root = sys.read<Addr>(headerAddr + HdrOff::root);
    if (!root) {
        sys.writeSite<Addr>(headerAddr + HdrOff::root, leaf, siteSwing);
    } else {
        // The crit bit: the most significant bit where the new key
        // differs from the colliding leaf's key.
        const Addr collide = findLeaf(sys, key);
        const auto ck = sys.read<std::uint64_t>(collide + NodeOff::key);
        panicIfNot(ck != key, "duplicate key inserted");
        const std::uint64_t crit =
            static_cast<std::uint64_t>(std::countl_zero(ck ^ key));

        // The fresh internal node adopting the new leaf.
        const Addr inner = sys.heap().alloc(NodeOff::size);
        sys.writeSite<std::uint64_t>(inner + NodeOff::tag, tagInternal,
                                     siteInternalInit);
        sys.writeSite<std::uint64_t>(inner + NodeOff::bitPos, crit,
                                     siteInternalInit);

        // Descend again to the edge where the crit bit belongs.
        Addr parent = 0;
        Bytes parent_side = 0;
        Addr cursor = root;
        while (sys.read<std::uint64_t>(cursor + NodeOff::tag) ==
               tagInternal) {
            const auto pos =
                sys.read<std::uint64_t>(cursor + NodeOff::bitPos);
            if (pos > crit)
                break;
            sys.compute(opcost::perLevel);
            parent = cursor;
            parent_side = bitOf(key, pos) ? NodeOff::child1
                                          : NodeOff::child0;
            cursor = sys.read<Addr>(cursor + parent_side);
        }

        const bool new_on_one = bitOf(key, crit) == 1;
        sys.writeSite<Addr>(inner + (new_on_one ? NodeOff::child1
                                                : NodeOff::child0),
                            leaf, siteInternalInit);
        sys.writeSite<Addr>(inner + (new_on_one ? NodeOff::child0
                                                : NodeOff::child1),
                            cursor, siteInternalInit);

        // The single logged pointer swing.
        if (!parent)
            sys.writeSite<Addr>(headerAddr + HdrOff::root, inner,
                                siteSwing);
        else
            sys.writeSite<Addr>(parent + parent_side, inner, siteSwing);
    }

    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count, cnt + 1,
                                 siteCount);
    tx.commit();
}

bool
KvCtreeWorkload::lookup(PmContext &sys, std::uint64_t key,
                        std::vector<std::uint8_t> *out)
{
    const Addr leaf = findLeaf(sys, key);
    if (!leaf || sys.read<std::uint64_t>(leaf + NodeOff::key) != key)
        return false;
    readValue(sys, leaf + NodeOff::valPtr, leaf + NodeOff::valLen, out);
    return true;
}

void
KvCtreeWorkload::collectReachable(PmContext &sys, Addr node,
                                  std::vector<Addr> *out, std::size_t *n)
{
    if (!node)
        return;
    out->push_back(node);
    if (sys.peek<std::uint64_t>(node + NodeOff::tag) == tagInternal) {
        collectReachable(sys, sys.peek<Addr>(node + NodeOff::child0),
                         out, n);
        collectReachable(sys, sys.peek<Addr>(node + NodeOff::child1),
                         out, n);
    } else {
        out->push_back(sys.peek<Addr>(node + NodeOff::valPtr));
        ++*n;
    }
}

std::size_t
KvCtreeWorkload::count(PmContext &sys)
{
    return sys.read<std::uint64_t>(headerAddr + HdrOff::count);
}

void
KvCtreeWorkload::recover(PmContext &sys)
{
    headerAddr = sys.peek<Addr>(sys.rootSlotAddr(headerRootSlot));
    std::vector<Addr> reachable = {headerAddr};
    std::size_t n = 0;
    collectReachable(sys, sys.peek<Addr>(headerAddr + HdrOff::root),
                     &reachable, &n);
    DurableTx tx(sys);
    sys.write<std::uint64_t>(headerAddr + HdrOff::count, n);
    tx.commit();
    sys.heap().rebuild(reachable);
    sys.quiesce();
}

bool
KvCtreeWorkload::checkNode(PmContext &sys, Addr node,
                           std::uint64_t path_value,
                           std::uint64_t path_mask, std::size_t *n,
                           std::string *why)
{
    // path_mask marks the bit positions a path constrains, path_value
    // their required values (bit p of every internal node on the way
    // down equals the child side taken).
    if (!node)
        return true;
    if (sys.read<std::uint64_t>(node + NodeOff::tag) == tagLeaf) {
        const auto key = sys.read<std::uint64_t>(node + NodeOff::key);
        if ((key & path_mask) != path_value)
            return failCheck(why, "leaf key disagrees with path");
        ++*n;
        return true;
    }
    const auto pos = sys.read<std::uint64_t>(node + NodeOff::bitPos);
    if (pos > 63)
        return failCheck(why, "crit-bit position out of range");
    const std::uint64_t bit = 1ULL << (63 - pos);
    if (path_mask & bit)
        return failCheck(why, "crit-bit position repeated on path");
    // Positions must strictly increase along the path, i.e. every
    // already-constrained position is more significant than this one
    // (bit - 1 covers exactly the less-significant positions).
    if (path_mask & (bit - 1))
        return failCheck(why, "crit-bit positions not increasing");
    const Addr c0 = sys.read<Addr>(node + NodeOff::child0);
    const Addr c1 = sys.read<Addr>(node + NodeOff::child1);
    if (!c0 || !c1)
        return failCheck(why, "internal node with missing child");
    return checkNode(sys, c0, path_value, path_mask | bit, n, why) &&
           checkNode(sys, c1, path_value | bit, path_mask | bit, n, why);
}

bool
KvCtreeWorkload::checkConsistency(PmContext &sys, std::string *why)
{
    std::size_t n = 0;
    if (!checkNode(sys, sys.read<Addr>(headerAddr + HdrOff::root), 0, 0,
                   &n, why))
        return false;
    if (n != sys.read<std::uint64_t>(headerAddr + HdrOff::count))
        return failCheck(why, "count mismatch");
    return true;
}

bool
KvCtreeWorkload::update(PmContext &sys, std::uint64_t key,
                        const std::vector<std::uint8_t> &value)
{
    const Addr leaf = findLeaf(sys, key);
    if (!leaf || sys.read<std::uint64_t>(leaf + NodeOff::key) != key)
        return false;

    replaceValue(sys, leaf + NodeOff::valPtr, leaf + NodeOff::valLen, value,
                 siteValueInit, siteSwing);
    return true;
}

bool
KvCtreeWorkload::remove(PmContext &sys, std::uint64_t key)
{
    // Walk with the grandparent so the sibling can replace the parent.
    Addr grand = 0;
    Bytes grand_side = 0;
    Addr parent = 0;
    Bytes parent_side = 0;
    Addr cursor = sys.read<Addr>(headerAddr + HdrOff::root);
    if (!cursor)
        return false;
    while (sys.read<std::uint64_t>(cursor + NodeOff::tag) ==
           tagInternal) {
        const auto pos = sys.read<std::uint64_t>(cursor + NodeOff::bitPos);
        grand = parent;
        grand_side = parent_side;
        parent = cursor;
        parent_side =
            bitOf(key, pos) ? NodeOff::child1 : NodeOff::child0;
        cursor = sys.read<Addr>(cursor + parent_side);
    }
    if (sys.read<std::uint64_t>(cursor + NodeOff::key) != key)
        return false;

    DurableTx tx(sys);
    sys.compute(opcost::insertBase / 2);
    if (!parent) {
        sys.writeSite<Addr>(headerAddr + HdrOff::root, 0, siteSwing);
    } else {
        const Bytes sibling_side = parent_side == NodeOff::child0
                                       ? NodeOff::child1
                                       : NodeOff::child0;
        const Addr sibling = sys.read<Addr>(parent + sibling_side);
        if (!grand)
            sys.writeSite<Addr>(headerAddr + HdrOff::root, sibling,
                                siteSwing);
        else
            sys.writeSite<Addr>(grand + grand_side, sibling, siteSwing);
        // Pattern 1b: the parent dies with this transaction.
        sys.writeSite<std::uint64_t>(parent + NodeOff::tag, ~0ULL,
                                     siteDeadPoison);
        tx.free(parent);
    }
    sys.writeSite<std::uint64_t>(cursor + NodeOff::tag, ~0ULL,
                                 siteDeadPoison);
    tx.free(cursor);
    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count, cnt - 1,
                                 siteCount);
    tx.free(sys.read<Addr>(cursor + NodeOff::valPtr));
    tx.commit();
    return true;
}

} // namespace slpmt
