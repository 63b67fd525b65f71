#include "workloads/kv_btree.hh"

#include <limits>

namespace slpmt
{

void
KvBtreeWorkload::setup(PmContext &sys)
{
    auto &sites = sys.sites();
    siteFreshNode = sites.add({.name = "kv-btree.split.freshNode",
                               .manual = {.lazy = false, .logFree = true},
                               .origin = ValueOrigin::PmLoad,
                               .targetsFreshAlloc = true,
                               .defUseDepth = 3});
    siteValueInit = sites.add({.name = "kv-btree.insert.value",
                               .manual = {.lazy = false, .logFree = true},
                               .origin = ValueOrigin::Input,
                               .targetsFreshAlloc = true,
                               .defUseDepth = 1});
    siteEntry = sites.add({.name = "kv-btree.insert.entry",
                           .manual = {},
                           .origin = ValueOrigin::PmLoad,
                           .defUseDepth = 3});
    siteMeta = sites.add({.name = "kv-btree.insert.meta",
                          .manual = {},
                          .origin = ValueOrigin::Computed,
                          .defUseDepth = 2});
    siteCount = sites.add({.name = "kv-btree.insert.count",
                           .manual = {.lazy = true, .logFree = false},
                           .origin = ValueOrigin::Computed,
                           .rebuildable = true,
                           .requiresDeepSemantics = true,
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
KvBtreeWorkload::allocNode(PmContext &sys, std::uint64_t tag)
{
    const Addr node = sys.heap().alloc(NodeOff::size);
    sys.writeSite<std::uint64_t>(node + NodeOff::tag, tag,
                                 siteFreshNode);
    sys.writeSite<std::uint64_t>(node + NodeOff::numKeys, 0,
                                 siteFreshNode);
    return node;
}

void
KvBtreeWorkload::splitChild(PmContext &sys, Addr parent,
                            std::uint64_t idx, Addr child)
{
    // B+-tree split: a fresh right sibling takes the upper half. For
    // a leaf the separator is *copied* up (it remains the sibling's
    // first entry); for an internal node the median moves up.
    const auto tag = sys.read<std::uint64_t>(child + NodeOff::tag);
    const Addr sibling = allocNode(sys, tag);
    const std::uint64_t mid = maxKeys / 2;  // 3
    const std::uint64_t first =
        tag == tagLeaf ? mid : mid + 1;     // first index moved
    const std::uint64_t moved = maxKeys - first;
    const std::uint64_t separator =
        sys.read<std::uint64_t>(keyAddr(child, mid));

    for (std::uint64_t i = 0; i < moved; ++i) {
        sys.compute(opcost::perMove);
        sys.writeSite<std::uint64_t>(
            keyAddr(sibling, i),
            sys.read<std::uint64_t>(keyAddr(child, first + i)),
            siteFreshNode);
        if (tag == tagLeaf) {
            sys.writeSite<Addr>(
                valPtrAddr(sibling, i),
                sys.read<Addr>(valPtrAddr(child, first + i)),
                siteFreshNode);
            sys.writeSite<std::uint64_t>(
                valLenAddr(sibling, i),
                sys.read<std::uint64_t>(valLenAddr(child, first + i)),
                siteFreshNode);
        }
    }
    if (tag == tagInternal) {
        for (std::uint64_t i = 0; i <= moved; ++i) {
            sys.writeSite<Addr>(
                childAddr(sibling, i),
                sys.read<Addr>(childAddr(child, first + i)),
                siteFreshNode);
        }
    }
    sys.writeSite<std::uint64_t>(sibling + NodeOff::numKeys, moved,
                                 siteFreshNode);
    // Shrinking the child is a logged metadata update (its stale upper
    // entries become dead space).
    sys.writeSite<std::uint64_t>(child + NodeOff::numKeys, mid,
                                 siteMeta);

    // Insert the separator + sibling pointer into the parent.
    const auto pn = sys.read<std::uint64_t>(parent + NodeOff::numKeys);
    for (std::uint64_t i = pn; i > idx; --i) {
        sys.writeSite<std::uint64_t>(
            keyAddr(parent, i),
            sys.read<std::uint64_t>(keyAddr(parent, i - 1)), siteEntry);
        sys.writeSite<Addr>(childAddr(parent, i + 1),
                            sys.read<Addr>(childAddr(parent, i)),
                            siteEntry);
    }
    sys.writeSite<std::uint64_t>(keyAddr(parent, idx), separator,
                                 siteEntry);
    sys.writeSite<Addr>(childAddr(parent, idx + 1), sibling, siteEntry);
    sys.writeSite<std::uint64_t>(parent + NodeOff::numKeys, pn + 1,
                                 siteMeta);
}

void
KvBtreeWorkload::insertNonFull(PmContext &sys, Addr node,
                               std::uint64_t key, Addr val_ptr,
                               std::uint64_t val_len)
{
    while (true) {
        sys.compute(opcost::perLevel);
        const auto tag = sys.read<std::uint64_t>(node + NodeOff::tag);
        const auto n = sys.read<std::uint64_t>(node + NodeOff::numKeys);
        if (tag == tagLeaf) {
            // Shift larger entries right, then place the new one.
            std::uint64_t i = n;
            while (i > 0 &&
                   sys.read<std::uint64_t>(keyAddr(node, i - 1)) > key) {
                sys.writeSite<std::uint64_t>(
                    keyAddr(node, i),
                    sys.read<std::uint64_t>(keyAddr(node, i - 1)),
                    siteEntry);
                sys.writeSite<Addr>(valPtrAddr(node, i),
                                    sys.read<Addr>(valPtrAddr(node,
                                                              i - 1)),
                                    siteEntry);
                sys.writeSite<std::uint64_t>(
                    valLenAddr(node, i),
                    sys.read<std::uint64_t>(valLenAddr(node, i - 1)),
                    siteEntry);
                --i;
            }
            sys.writeSite<std::uint64_t>(keyAddr(node, i), key,
                                         siteEntry);
            sys.writeSite<Addr>(valPtrAddr(node, i), val_ptr, siteEntry);
            sys.writeSite<std::uint64_t>(valLenAddr(node, i), val_len,
                                         siteEntry);
            sys.writeSite<std::uint64_t>(node + NodeOff::numKeys, n + 1,
                                         siteMeta);
            return;
        }
        // Internal: find the child (keys equal to a separator live in
        // its right subtree), splitting the child first if full.
        std::uint64_t i = 0;
        while (i < n && key >= sys.read<std::uint64_t>(keyAddr(node, i)))
            ++i;
        Addr child = sys.read<Addr>(childAddr(node, i));
        if (sys.read<std::uint64_t>(child + NodeOff::numKeys) ==
            maxKeys) {
            splitChild(sys, node, i, child);
            if (key >= sys.read<std::uint64_t>(keyAddr(node, i)))
                ++i;
            child = sys.read<Addr>(childAddr(node, i));
        }
        node = child;
    }
}

void
KvBtreeWorkload::insert(PmContext &sys, std::uint64_t key,
                        const std::vector<std::uint8_t> &value)
{
    DurableTx tx(sys);
    sys.compute(opcost::insertBase + opcost::valueWork(value.size()));

    const Addr val_ptr = writeFreshValue(sys, value, siteValueInit);

    Addr root = sys.read<Addr>(headerAddr + HdrOff::root);
    if (sys.read<std::uint64_t>(root + NodeOff::numKeys) == maxKeys) {
        const Addr new_root = allocNode(sys, tagInternal);
        sys.writeSite<Addr>(childAddr(new_root, 0), root, siteFreshNode);
        splitChild(sys, new_root, 0, root);
        sys.writeSite<Addr>(headerAddr + HdrOff::root, new_root,
                            siteMeta);
        root = new_root;
    }
    insertNonFull(sys, root, key, val_ptr, value.size());

    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count, cnt + 1,
                                 siteCount);
    tx.commit();
}

bool
KvBtreeWorkload::lookup(PmContext &sys, std::uint64_t key,
                        std::vector<std::uint8_t> *out)
{
    Addr node = sys.read<Addr>(headerAddr + HdrOff::root);
    while (true) {
        sys.compute(opcost::perLevel);
        const auto tag = sys.read<std::uint64_t>(node + NodeOff::tag);
        const auto n = sys.read<std::uint64_t>(node + NodeOff::numKeys);
        if (tag == tagLeaf) {
            for (std::uint64_t i = 0; i < n; ++i) {
                if (sys.read<std::uint64_t>(keyAddr(node, i)) == key) {
                    readValue(sys, valPtrAddr(node, i), valLenAddr(node, i),
                              out);
                    return true;
                }
            }
            return false;
        }
        std::uint64_t i = 0;
        while (i < n && key >= sys.read<std::uint64_t>(keyAddr(node, i)))
            ++i;
        node = sys.read<Addr>(childAddr(node, i));
    }
}

void
KvBtreeWorkload::collectReachable(PmContext &sys, Addr node,
                                  std::vector<Addr> *out, std::size_t *n)
{
    out->push_back(node);
    const auto tag = sys.peek<std::uint64_t>(node + NodeOff::tag);
    const auto nk = sys.peek<std::uint64_t>(node + NodeOff::numKeys);
    if (tag == tagLeaf) {
        *n += nk;
        for (std::uint64_t i = 0; i < nk; ++i)
            out->push_back(sys.peek<Addr>(valPtrAddr(node, i)));
        return;
    }
    for (std::uint64_t i = 0; i <= nk; ++i)
        collectReachable(sys, sys.peek<Addr>(childAddr(node, i)), out,
                         n);
}

std::size_t
KvBtreeWorkload::count(PmContext &sys)
{
    return sys.read<std::uint64_t>(headerAddr + HdrOff::count);
}

void
KvBtreeWorkload::recover(PmContext &sys)
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
KvBtreeWorkload::checkNode(PmContext &sys, Addr node, std::uint64_t lo,
                           std::uint64_t hi, std::size_t depth,
                           std::size_t *leaf_depth, std::size_t *n,
                           std::string *why)
{
    // Keys live in the half-open range [lo, hi): a B+-tree separator
    // equals the smallest key of its right subtree.
    const auto tag = sys.read<std::uint64_t>(node + NodeOff::tag);
    const auto nk = sys.read<std::uint64_t>(node + NodeOff::numKeys);
    if (nk > maxKeys)
        return failCheck(why, "node overfull");
    bool has_prev = false;
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < nk; ++i) {
        const auto k = sys.read<std::uint64_t>(keyAddr(node, i));
        if (k < lo || k >= hi)
            return failCheck(why, "key outside subtree range");
        if (has_prev && k <= prev)
            return failCheck(why, "key order violated");
        prev = k;
        has_prev = true;
    }
    if (tag == tagLeaf) {
        if (*leaf_depth == 0)
            *leaf_depth = depth;
        else if (*leaf_depth != depth)
            return failCheck(why, "leaves at different depths");
        *n += nk;
        return true;
    }
    std::uint64_t child_lo = lo;
    for (std::uint64_t i = 0; i <= nk; ++i) {
        const std::uint64_t child_hi =
            i < nk ? sys.read<std::uint64_t>(keyAddr(node, i)) : hi;
        const Addr child = sys.read<Addr>(childAddr(node, i));
        if (!child)
            return failCheck(why, "missing child");
        if (!checkNode(sys, child, child_lo, child_hi, depth + 1,
                       leaf_depth, n, why))
            return false;
        child_lo = child_hi;
    }
    return true;
}

bool
KvBtreeWorkload::checkConsistency(PmContext &sys, std::string *why)
{
    std::size_t leaf_depth = 0;
    std::size_t n = 0;
    if (!checkNode(sys, sys.read<Addr>(headerAddr + HdrOff::root), 0,
                   std::numeric_limits<std::uint64_t>::max(), 1,
                   &leaf_depth, &n, why))
        return false;
    if (n != sys.read<std::uint64_t>(headerAddr + HdrOff::count))
        return failCheck(why, "count mismatch");
    return true;
}

bool
KvBtreeWorkload::update(PmContext &sys, std::uint64_t key,
                        const std::vector<std::uint8_t> &value)
{
    Addr node = sys.read<Addr>(headerAddr + HdrOff::root);
    while (sys.read<std::uint64_t>(node + NodeOff::tag) == tagInternal) {
        const auto n = sys.read<std::uint64_t>(node + NodeOff::numKeys);
        std::uint64_t i = 0;
        while (i < n && key >= sys.read<std::uint64_t>(keyAddr(node, i)))
            ++i;
        node = sys.read<Addr>(childAddr(node, i));
    }
    const auto n = sys.read<std::uint64_t>(node + NodeOff::numKeys);
    std::uint64_t idx = n;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (sys.read<std::uint64_t>(keyAddr(node, i)) == key) {
            idx = i;
            break;
        }
    }
    if (idx == n)
        return false;

    replaceValue(sys, valPtrAddr(node, idx), valLenAddr(node, idx), value,
                 siteValueInit, siteEntry);
    return true;
}

} // namespace slpmt
