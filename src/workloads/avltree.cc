#include "workloads/avltree.hh"

#include <algorithm>
#include <limits>

namespace slpmt
{

void
AvlTreeWorkload::setup(PmContext &sys)
{
    auto &sites = sys.sites();
    siteNodeInit = sites.add({.name = "avl.insert.node",
                              .manual = {.lazy = false, .logFree = true},
                              .origin = ValueOrigin::Input,
                              .targetsFreshAlloc = true,
                              .defUseDepth = 2});
    siteValueInit = sites.add({.name = "avl.insert.value",
                               .manual = {.lazy = false, .logFree = true},
                               .origin = ValueOrigin::Input,
                               .targetsFreshAlloc = true,
                               .defUseDepth = 1});
    siteChild = sites.add({.name = "avl.rotate.child",
                           .manual = {},
                           .origin = ValueOrigin::PmLoad,
                           .defUseDepth = 3});
    siteHeight = sites.add({.name = "avl.rebalance.height",
                            .manual = {.lazy = true, .logFree = false},
                            .origin = ValueOrigin::Computed,
                            .rebuildable = true,
                            .requiresDeepSemantics = true,
                            .defUseDepth = 4});
    siteRoot = sites.add({.name = "avl.insert.root",
                          .manual = {},
                          .origin = ValueOrigin::PmLoad,
                          .defUseDepth = 2});
    siteCount = sites.add({.name = "avl.insert.count",
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

std::uint64_t
AvlTreeWorkload::heightOf(PmContext &sys, Addr node)
{
    return node ? sys.read<std::uint64_t>(node + NodeOff::height) : 0;
}

void
AvlTreeWorkload::updateHeight(PmContext &sys, Addr node)
{
    const std::uint64_t h =
        1 + std::max(heightOf(sys, sys.read<Addr>(node + NodeOff::left)),
                     heightOf(sys,
                              sys.read<Addr>(node + NodeOff::right)));
    sys.writeSite<std::uint64_t>(node + NodeOff::height, h, siteHeight);
}

Addr
AvlTreeWorkload::rotateLeft(PmContext &sys, Addr x)
{
    const Addr y = sys.read<Addr>(x + NodeOff::right);
    const Addr yl = sys.read<Addr>(y + NodeOff::left);
    sys.writeSite<Addr>(x + NodeOff::right, yl, siteChild);
    sys.writeSite<Addr>(y + NodeOff::left, x, siteChild);
    updateHeight(sys, x);
    updateHeight(sys, y);
    return y;
}

Addr
AvlTreeWorkload::rotateRight(PmContext &sys, Addr x)
{
    const Addr y = sys.read<Addr>(x + NodeOff::left);
    const Addr yr = sys.read<Addr>(y + NodeOff::right);
    sys.writeSite<Addr>(x + NodeOff::left, yr, siteChild);
    sys.writeSite<Addr>(y + NodeOff::right, x, siteChild);
    updateHeight(sys, x);
    updateHeight(sys, y);
    return y;
}

Addr
AvlTreeWorkload::rebalance(PmContext &sys, Addr node)
{
    updateHeight(sys, node);
    const Addr left = sys.read<Addr>(node + NodeOff::left);
    const Addr right = sys.read<Addr>(node + NodeOff::right);
    const std::int64_t balance =
        static_cast<std::int64_t>(heightOf(sys, left)) -
        static_cast<std::int64_t>(heightOf(sys, right));
    sys.compute(opcost::perLevel);
    if (balance > 1) {
        if (heightOf(sys, sys.read<Addr>(left + NodeOff::left)) <
            heightOf(sys, sys.read<Addr>(left + NodeOff::right))) {
            sys.writeSite<Addr>(node + NodeOff::left,
                                rotateLeft(sys, left), siteChild);
        }
        return rotateRight(sys, node);
    }
    if (balance < -1) {
        if (heightOf(sys, sys.read<Addr>(right + NodeOff::right)) <
            heightOf(sys, sys.read<Addr>(right + NodeOff::left))) {
            sys.writeSite<Addr>(node + NodeOff::right,
                                rotateRight(sys, right), siteChild);
        }
        return rotateLeft(sys, node);
    }
    return node;
}

Addr
AvlTreeWorkload::insertRec(PmContext &sys, Addr node, std::uint64_t key,
                           Addr val_ptr, std::uint64_t val_len)
{
    if (!node) {
        const Addr fresh = sys.heap().alloc(NodeOff::size);
        sys.writeSite<std::uint64_t>(fresh + NodeOff::key, key,
                                     siteNodeInit);
        sys.writeSite<Addr>(fresh + NodeOff::left, 0, siteNodeInit);
        sys.writeSite<Addr>(fresh + NodeOff::right, 0, siteNodeInit);
        sys.writeSite<std::uint64_t>(fresh + NodeOff::height, 1,
                                     siteNodeInit);
        sys.writeSite<Addr>(fresh + NodeOff::valPtr, val_ptr,
                            siteNodeInit);
        sys.writeSite<std::uint64_t>(fresh + NodeOff::valLen, val_len,
                                     siteNodeInit);
        return fresh;
    }
    sys.compute(opcost::perLevel);
    const auto nk = sys.read<std::uint64_t>(node + NodeOff::key);
    const Bytes side = key > nk ? NodeOff::right : NodeOff::left;
    const Addr child = sys.read<Addr>(node + side);
    const Addr sub = insertRec(sys, child, key, val_ptr, val_len);
    if (sub != child)
        sys.writeSite<Addr>(node + side, sub, siteChild);
    return rebalance(sys, node);
}

void
AvlTreeWorkload::insert(PmContext &sys, std::uint64_t key,
                        const std::vector<std::uint8_t> &value)
{
    DurableTx tx(sys);
    sys.compute(opcost::insertBase + opcost::valueWork(value.size()));

    const Addr val_ptr = writeFreshValue(sys, value, siteValueInit);

    const Addr root = sys.read<Addr>(headerAddr + HdrOff::root);
    const Addr new_root =
        insertRec(sys, root, key, val_ptr, value.size());
    if (new_root != root)
        sys.writeSite<Addr>(headerAddr + HdrOff::root, new_root,
                            siteRoot);

    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count, cnt + 1,
                                 siteCount);
    tx.commit();
}

bool
AvlTreeWorkload::lookup(PmContext &sys, std::uint64_t key,
                        std::vector<std::uint8_t> *out)
{
    // Each node is a live allocation, so only a cyclic (corrupted)
    // tree makes a search path longer than the heap's allocation count.
    const std::size_t bound = sys.heap().liveCount();
    std::size_t visited = 0;
    Addr cursor = sys.read<Addr>(headerAddr + HdrOff::root);
    while (cursor) {
        panicIfNot(++visited <= bound, "avl: lookup walks a cyclic tree");
        sys.compute(opcost::perLevel);
        const auto ck = sys.read<std::uint64_t>(cursor + NodeOff::key);
        if (ck == key) {
            readValue(sys, cursor + NodeOff::valPtr, cursor + NodeOff::valLen,
                      out);
            return true;
        }
        cursor = sys.read<Addr>(
            cursor + (key > ck ? NodeOff::right : NodeOff::left));
    }
    return false;
}

std::size_t
AvlTreeWorkload::count(PmContext &sys)
{
    return sys.read<std::uint64_t>(headerAddr + HdrOff::count);
}

std::uint64_t
AvlTreeWorkload::recomputeHeights(PmContext &sys, Addr node,
                                  std::size_t *n,
                                  std::vector<Addr> *reachable)
{
    if (!node)
        return 0;
    // As in lookup(): only a cyclic tree holds more nodes than the
    // heap holds allocations.
    panicIfNot(++*n <= sys.heap().liveCount(),
               "avl: recovery walks a cyclic tree");
    reachable->push_back(node);
    reachable->push_back(sys.peek<Addr>(node + NodeOff::valPtr));
    const std::uint64_t hl = recomputeHeights(
        sys, sys.peek<Addr>(node + NodeOff::left), n, reachable);
    const std::uint64_t hr = recomputeHeights(
        sys, sys.peek<Addr>(node + NodeOff::right), n, reachable);
    const std::uint64_t h = 1 + std::max(hl, hr);
    if (sys.peek<std::uint64_t>(node + NodeOff::height) != h) {
        // Fix the stale lazy height in place (recovery transaction).
        sys.write<std::uint64_t>(node + NodeOff::height, h);
    }
    return h;
}

void
AvlTreeWorkload::recover(PmContext &sys)
{
    headerAddr = sys.peek<Addr>(sys.rootSlotAddr(headerRootSlot));
    const Addr root = sys.peek<Addr>(headerAddr + HdrOff::root);

    std::size_t n = 0;
    std::vector<Addr> reachable = {headerAddr};
    DurableTx tx(sys);
    recomputeHeights(sys, root, &n, &reachable);
    sys.write<std::uint64_t>(headerAddr + HdrOff::count, n);
    tx.commit();
    sys.heap().rebuild(reachable);
    sys.quiesce();
}

bool
AvlTreeWorkload::checkNode(PmContext &sys, Addr node, std::uint64_t lo,
                           std::uint64_t hi, std::uint64_t *height,
                           std::size_t *n, std::string *why)
{
    if (!node) {
        *height = 0;
        return true;
    }
    const auto key = sys.read<std::uint64_t>(node + NodeOff::key);
    if (key <= lo || key >= hi)
        return failCheck(why, "BST order violated");
    std::uint64_t hl = 0;
    std::uint64_t hr = 0;
    if (!checkNode(sys, sys.read<Addr>(node + NodeOff::left), lo, key,
                   &hl, n, why) ||
        !checkNode(sys, sys.read<Addr>(node + NodeOff::right), key, hi,
                   &hr, n, why))
        return false;
    const std::uint64_t h = 1 + std::max(hl, hr);
    if (sys.read<std::uint64_t>(node + NodeOff::height) != h)
        return failCheck(why, "stored height is stale");
    const std::int64_t balance = static_cast<std::int64_t>(hl) -
                                 static_cast<std::int64_t>(hr);
    if (balance < -1 || balance > 1)
        return failCheck(why, "AVL balance violated");
    *height = h;
    ++*n;
    return true;
}

bool
AvlTreeWorkload::checkConsistency(PmContext &sys, std::string *why)
{
    std::uint64_t h = 0;
    std::size_t n = 0;
    if (!checkNode(sys, sys.read<Addr>(headerAddr + HdrOff::root), 0,
                   std::numeric_limits<std::uint64_t>::max(), &h, &n,
                   why))
        return false;
    if (n != sys.read<std::uint64_t>(headerAddr + HdrOff::count))
        return failCheck(why, "count mismatch");
    return true;
}

bool
AvlTreeWorkload::update(PmContext &sys, std::uint64_t key,
                        const std::vector<std::uint8_t> &value)
{
    Addr node = sys.read<Addr>(headerAddr + HdrOff::root);
    while (node) {
        const auto nk = sys.read<std::uint64_t>(node + NodeOff::key);
        if (nk == key)
            break;
        node = sys.read<Addr>(
            node + (key > nk ? NodeOff::right : NodeOff::left));
    }
    if (!node)
        return false;

    replaceValue(sys, node + NodeOff::valPtr, node + NodeOff::valLen, value,
                 siteValueInit, siteChild);
    return true;
}

} // namespace slpmt
