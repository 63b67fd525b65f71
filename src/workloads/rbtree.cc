#include "workloads/rbtree.hh"

#include <limits>

namespace slpmt
{

void
RbTreeWorkload::setup(PmContext &sys)
{
    auto &sites = sys.sites();
    siteNodeInit = sites.add({.name = "rbtree.insert.node",
                              .manual = {.lazy = false, .logFree = true},
                              .origin = ValueOrigin::Input,
                              .targetsFreshAlloc = true,
                              .defUseDepth = 2});
    siteValueInit = sites.add({.name = "rbtree.insert.value",
                               .manual = {.lazy = false, .logFree = true},
                               .origin = ValueOrigin::Input,
                               .targetsFreshAlloc = true,
                               .defUseDepth = 1});
    siteChild = sites.add({.name = "rbtree.fixup.child",
                           .manual = {},
                           .origin = ValueOrigin::PmLoad,
                           .defUseDepth = 3});
    siteParent = sites.add({.name = "rbtree.fixup.parent",
                            .manual = {.lazy = true, .logFree = false},
                            .origin = ValueOrigin::PmLoad,
                            .rebuildable = true,
                            .defUseDepth = 3});
    siteColor = sites.add({.name = "rbtree.fixup.color",
                           .manual = {.lazy = true, .logFree = false},
                           .origin = ValueOrigin::Constant,
                           .rebuildable = true,
                           .requiresDeepSemantics = true,
                           .defUseDepth = 2});
    siteRoot = sites.add({.name = "rbtree.insert.root",
                          .manual = {},
                          .origin = ValueOrigin::PmLoad,
                          .defUseDepth = 2});
    siteCount = sites.add({.name = "rbtree.insert.count",
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
RbTreeWorkload::allocNode(PmContext &sys, std::uint64_t key, Addr parent,
                          Addr val_ptr, std::uint64_t val_len)
{
    const Addr node = sys.heap().alloc(NodeOff::size);
    sys.writeSite<std::uint64_t>(node + NodeOff::key, key, siteNodeInit);
    sys.writeSite<Addr>(node + NodeOff::left, 0, siteNodeInit);
    sys.writeSite<Addr>(node + NodeOff::right, 0, siteNodeInit);
    sys.writeSite<Addr>(node + NodeOff::parent, parent, siteNodeInit);
    sys.writeSite<std::uint64_t>(node + NodeOff::color, red,
                                 siteNodeInit);
    sys.writeSite<Addr>(node + NodeOff::valPtr, val_ptr, siteNodeInit);
    sys.writeSite<std::uint64_t>(node + NodeOff::valLen, val_len,
                                 siteNodeInit);
    return node;
}

void
RbTreeWorkload::setChild(PmContext &sys, Addr node, bool right_side,
                         Addr child)
{
    const Bytes off = right_side ? NodeOff::right : NodeOff::left;
    sys.writeSite<Addr>(node + off, child, siteChild);
}

void
RbTreeWorkload::setParent(PmContext &sys, Addr node, Addr parent)
{
    sys.writeSite<Addr>(node + NodeOff::parent, parent, siteParent);
}

void
RbTreeWorkload::setColor(PmContext &sys, Addr node, std::uint64_t color)
{
    sys.writeSite<std::uint64_t>(node + NodeOff::color, color, siteColor);
}

void
RbTreeWorkload::setRoot(PmContext &sys, Addr root)
{
    sys.writeSite<Addr>(headerAddr + HdrOff::root, root, siteRoot);
}

void
RbTreeWorkload::rotateLeft(PmContext &sys, Addr x)
{
    const Addr y = sys.read<Addr>(x + NodeOff::right);
    const Addr yl = sys.read<Addr>(y + NodeOff::left);
    setChild(sys, x, true, yl);
    if (yl)
        setParent(sys, yl, x);
    const Addr xp = sys.read<Addr>(x + NodeOff::parent);
    setParent(sys, y, xp);
    if (!xp)
        setRoot(sys, y);
    else if (sys.read<Addr>(xp + NodeOff::left) == x)
        setChild(sys, xp, false, y);
    else
        setChild(sys, xp, true, y);
    setChild(sys, y, false, x);
    setParent(sys, x, y);
}

void
RbTreeWorkload::rotateRight(PmContext &sys, Addr x)
{
    const Addr y = sys.read<Addr>(x + NodeOff::left);
    const Addr yr = sys.read<Addr>(y + NodeOff::right);
    setChild(sys, x, false, yr);
    if (yr)
        setParent(sys, yr, x);
    const Addr xp = sys.read<Addr>(x + NodeOff::parent);
    setParent(sys, y, xp);
    if (!xp)
        setRoot(sys, y);
    else if (sys.read<Addr>(xp + NodeOff::left) == x)
        setChild(sys, xp, false, y);
    else
        setChild(sys, xp, true, y);
    setChild(sys, y, true, x);
    setParent(sys, x, y);
}

void
RbTreeWorkload::fixupInsert(PmContext &sys, Addr z)
{
    while (true) {
        const Addr zp = sys.read<Addr>(z + NodeOff::parent);
        if (!zp || sys.read<std::uint64_t>(zp + NodeOff::color) != red)
            break;
        const Addr zg = sys.read<Addr>(zp + NodeOff::parent);
        if (!zg)
            break;
        sys.compute(opcost::perLevel);
        const bool parent_is_left =
            sys.read<Addr>(zg + NodeOff::left) == zp;
        const Addr uncle = parent_is_left
                               ? sys.read<Addr>(zg + NodeOff::right)
                               : sys.read<Addr>(zg + NodeOff::left);
        if (uncle &&
            sys.read<std::uint64_t>(uncle + NodeOff::color) == red) {
            setColor(sys, zp, black);
            setColor(sys, uncle, black);
            setColor(sys, zg, red);
            z = zg;
            continue;
        }
        if (parent_is_left) {
            if (sys.read<Addr>(zp + NodeOff::right) == z) {
                z = zp;
                rotateLeft(sys, z);
            }
            const Addr p = sys.read<Addr>(z + NodeOff::parent);
            const Addr g = sys.read<Addr>(p + NodeOff::parent);
            setColor(sys, p, black);
            setColor(sys, g, red);
            rotateRight(sys, g);
        } else {
            if (sys.read<Addr>(zp + NodeOff::left) == z) {
                z = zp;
                rotateRight(sys, z);
            }
            const Addr p = sys.read<Addr>(z + NodeOff::parent);
            const Addr g = sys.read<Addr>(p + NodeOff::parent);
            setColor(sys, p, black);
            setColor(sys, g, red);
            rotateLeft(sys, g);
        }
    }
    setColor(sys, getRoot(sys), black);
}

void
RbTreeWorkload::insert(PmContext &sys, std::uint64_t key,
                       const std::vector<std::uint8_t> &value)
{
    DurableTx tx(sys);
    sys.compute(opcost::insertBase + opcost::valueWork(value.size()));

    const Addr val_ptr = writeFreshValue(sys, value, siteValueInit);

    // BST descent.
    Addr parent = 0;
    Addr cursor = getRoot(sys);
    bool right_side = false;
    while (cursor) {
        sys.compute(opcost::perLevel);
        parent = cursor;
        const auto ck = sys.read<std::uint64_t>(cursor + NodeOff::key);
        right_side = key > ck;
        cursor = sys.read<Addr>(
            cursor + (right_side ? NodeOff::right : NodeOff::left));
    }

    const Addr node =
        allocNode(sys, key, parent, val_ptr, value.size());
    if (!parent)
        setRoot(sys, node);
    else
        setChild(sys, parent, right_side, node);

    fixupInsert(sys, node);

    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count, cnt + 1,
                                 siteCount);
    tx.commit();
}

bool
RbTreeWorkload::lookup(PmContext &sys, std::uint64_t key,
                       std::vector<std::uint8_t> *out)
{
    Addr cursor = getRoot(sys);
    while (cursor) {
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
RbTreeWorkload::count(PmContext &sys)
{
    return sys.read<std::uint64_t>(headerAddr + HdrOff::count);
}

void
RbTreeWorkload::collectDurable(PmContext &sys, Addr node,
                               std::vector<Item> &out) const
{
    if (!node)
        return;
    collectDurable(sys, sys.peek<Addr>(node + NodeOff::left), out);
    Item item;
    item.key = sys.peek<std::uint64_t>(node + NodeOff::key);
    const Addr vp = sys.peek<Addr>(node + NodeOff::valPtr);
    const auto vl = sys.peek<std::uint64_t>(node + NodeOff::valLen);
    item.value.resize(vl);
    sys.peekBytes(vp, item.value.data(), vl);
    out.push_back(std::move(item));
    collectDurable(sys, sys.peek<Addr>(node + NodeOff::right), out);
}

Addr
RbTreeWorkload::buildBalanced(PmContext &sys,
                              const std::vector<Item> &items,
                              std::size_t lo, std::size_t hi,
                              Addr parent, std::size_t depth,
                              std::size_t red_depth)
{
    if (lo >= hi)
        return 0;
    const std::size_t mid = lo + (hi - lo) / 2;
    const Item &item = items[mid];
    const Addr val_ptr = sys.heap().alloc(item.value.size());
    sys.writeBytes(val_ptr, item.value.data(), item.value.size());

    const Addr node = sys.heap().alloc(NodeOff::size);
    sys.write<std::uint64_t>(node + NodeOff::key, item.key);
    sys.write<Addr>(node + NodeOff::parent, parent);
    // Canonical colouring: only the deepest level is red, which keeps
    // every red-black invariant for a balanced tree.
    sys.write<std::uint64_t>(node + NodeOff::color,
                             depth == red_depth ? red : black);
    sys.write<Addr>(node + NodeOff::valPtr, val_ptr);
    sys.write<std::uint64_t>(node + NodeOff::valLen, item.value.size());
    sys.write<Addr>(node + NodeOff::left,
                    buildBalanced(sys, items, lo, mid, node, depth + 1,
                                  red_depth));
    sys.write<Addr>(node + NodeOff::right,
                    buildBalanced(sys, items, mid + 1, hi, node,
                                  depth + 1, red_depth));
    return node;
}

void
RbTreeWorkload::recover(PmContext &sys)
{
    headerAddr = sys.peek<Addr>(sys.rootSlotAddr(headerRootSlot));
    const Addr root = sys.peek<Addr>(headerAddr + HdrOff::root);

    // The durable skeleton (keys, child links, values) is intact; the
    // lazy parent/colour/count words may hold pre-crash values.
    // Rebuild a balanced, canonically coloured tree from scratch.
    std::vector<Item> items;
    collectDurable(sys, root, items);

    sys.heap().reset();
    DurableTx tx(sys);
    headerAddr = sys.heap().alloc(HdrOff::size);
    // red_depth = depth of the deepest level of the balanced tree.
    std::size_t levels = 0;
    while ((1ULL << levels) <= items.size())
        ++levels;
    // Only the deepest level is red — and never the root itself.
    const std::size_t red_depth =
        levels >= 2 ? levels : std::numeric_limits<std::size_t>::max();
    const Addr new_root =
        buildBalanced(sys, items, 0, items.size(), 0, 1, red_depth);
    sys.write<Addr>(headerAddr + HdrOff::root, new_root);
    sys.write<std::uint64_t>(headerAddr + HdrOff::count, items.size());
    sys.writeRoot(headerRootSlot, headerAddr);
    tx.commit();
    sys.quiesce();
}

bool
RbTreeWorkload::checkNode(PmContext &sys, Addr node, Addr parent,
                          std::uint64_t lo, std::uint64_t hi,
                          std::size_t *black_height, std::size_t *n,
                          std::string *why)
{
    if (!node) {
        *black_height = 1;
        return true;
    }
    const auto key = sys.read<std::uint64_t>(node + NodeOff::key);
    if (key <= lo || key >= hi)
        return failCheck(why, "BST order violated");
    if (sys.read<Addr>(node + NodeOff::parent) != parent)
        return failCheck(why, "parent pointer wrong");
    const auto color = sys.read<std::uint64_t>(node + NodeOff::color);
    if (color != red && color != black)
        return failCheck(why, "invalid colour");
    const Addr left = sys.read<Addr>(node + NodeOff::left);
    const Addr right = sys.read<Addr>(node + NodeOff::right);
    if (color == red) {
        for (Addr child : {left, right}) {
            if (child &&
                sys.read<std::uint64_t>(child + NodeOff::color) == red)
                return failCheck(why, "red node with red child");
        }
    }
    std::size_t bh_left = 0;
    std::size_t bh_right = 0;
    if (!checkNode(sys, left, node, lo, key, &bh_left, n, why) ||
        !checkNode(sys, right, node, key, hi, &bh_right, n, why))
        return false;
    if (bh_left != bh_right)
        return failCheck(why, "black height mismatch");
    *black_height = bh_left + (color == black ? 1 : 0);
    ++*n;
    return true;
}

bool
RbTreeWorkload::checkConsistency(PmContext &sys, std::string *why)
{
    const Addr root = getRoot(sys);
    if (root &&
        sys.read<std::uint64_t>(root + NodeOff::color) != black)
        return failCheck(why, "root is not black");
    std::size_t bh = 0;
    std::size_t n = 0;
    if (!checkNode(sys, root, 0, 0,
                   std::numeric_limits<std::uint64_t>::max(), &bh, &n,
                   why))
        return false;
    if (n != sys.read<std::uint64_t>(headerAddr + HdrOff::count))
        return failCheck(why, "count mismatch");
    return true;
}

bool
RbTreeWorkload::update(PmContext &sys, std::uint64_t key,
                       const std::vector<std::uint8_t> &value)
{
    Addr node = getRoot(sys);
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
