#include "workloads/kv_rtree.hh"

namespace slpmt
{

void
KvRtreeWorkload::setup(PmContext &sys)
{
    auto &sites = sys.sites();
    siteLeafInit = sites.add({.name = "kv-rtree.insert.leaf",
                              .manual = {.lazy = false, .logFree = true},
                              .origin = ValueOrigin::Input,
                              .targetsFreshAlloc = true,
                              .defUseDepth = 2});
    siteInternalInit =
        sites.add({.name = "kv-rtree.insert.internal",
                   .manual = {.lazy = false, .logFree = true},
                   .origin = ValueOrigin::PmLoad,
                   .targetsFreshAlloc = true,
                   .defUseDepth = 3});
    siteValueInit = sites.add({.name = "kv-rtree.insert.value",
                               .manual = {.lazy = false, .logFree = true},
                               .origin = ValueOrigin::Input,
                               .targetsFreshAlloc = true,
                               .defUseDepth = 1});
    siteSwing = sites.add({.name = "kv-rtree.insert.swing",
                           .manual = {},
                           .origin = ValueOrigin::PmLoad,
                           .defUseDepth = 2});
    sitePrefixMove = sites.add({.name = "kv-rtree.split.prefixMove",
                                .manual = {},
                                .origin = ValueOrigin::PmLoad,
                                .rebuildable = true,
                                .requiresDeepSemantics = true,
                                .defUseDepth = 4});
    siteCount = sites.add({.name = "kv-rtree.insert.count",
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
KvRtreeWorkload::makeLeaf(PmContext &sys, std::uint64_t key, Addr val_ptr,
                          std::uint64_t val_len)
{
    const Addr leaf = sys.heap().alloc(NodeOff::leafSize);
    sys.writeSite<std::uint64_t>(leaf + NodeOff::tag, tagLeaf,
                                 siteLeafInit);
    sys.writeSite<std::uint64_t>(leaf + NodeOff::key, key, siteLeafInit);
    sys.writeSite<Addr>(leaf + NodeOff::valPtr, val_ptr, siteLeafInit);
    sys.writeSite<std::uint64_t>(leaf + NodeOff::valLen, val_len,
                                 siteLeafInit);
    return leaf;
}

Addr
KvRtreeWorkload::makeInternal(PmContext &sys, std::uint64_t prefix_len,
                              std::uint64_t packed_prefix)
{
    const Addr node = sys.heap().alloc(NodeOff::internalSize);
    sys.writeSite<std::uint64_t>(node + NodeOff::tag, tagInternal,
                                 siteInternalInit);
    sys.writeSite<std::uint64_t>(node + NodeOff::prefixLen, prefix_len,
                                 siteInternalInit);
    sys.writeSite<std::uint64_t>(node + NodeOff::prefix, packed_prefix,
                                 siteInternalInit);
    for (std::uint64_t i = 0; i < fanout; ++i)
        sys.writeSite<Addr>(node + NodeOff::children + i * 8, 0,
                            siteInternalInit);
    return node;
}

void
KvRtreeWorkload::setChild(PmContext &sys, Addr node, std::uint64_t nib,
                          Addr child, SiteId site)
{
    sys.writeSite<Addr>(node + NodeOff::children + nib * 8, child, site);
}

void
KvRtreeWorkload::insert(PmContext &sys, std::uint64_t key,
                        const std::vector<std::uint8_t> &value)
{
    DurableTx tx(sys);
    sys.compute(opcost::insertBase + opcost::valueWork(value.size()));

    const Addr val_ptr = writeFreshValue(sys, value, siteValueInit);
    const Addr leaf = makeLeaf(sys, key, val_ptr, value.size());

    // slot_addr is the durable location holding the pointer to the
    // current node; a single logged store there publishes any rewiring.
    Addr slot_addr = headerAddr + HdrOff::root;
    Addr cursor = sys.read<Addr>(slot_addr);
    std::uint64_t depth = 0;

    while (true) {
        if (!cursor) {
            sys.writeSite<Addr>(slot_addr, leaf, siteSwing);
            break;
        }
        sys.compute(opcost::perLevel);
        const auto tag = sys.read<std::uint64_t>(cursor + NodeOff::tag);
        if (tag == tagLeaf) {
            const auto other =
                sys.read<std::uint64_t>(cursor + NodeOff::key);
            panicIfNot(other != key, "duplicate key inserted");
            // Common nibbles from the current depth.
            std::uint64_t cn = 0;
            while (nibbleOf(key, depth + cn) ==
                   nibbleOf(other, depth + cn))
                ++cn;
            const Addr inner = makeInternal(
                sys, cn, packNibbles(key, depth, cn));
            setChild(sys, inner, nibbleOf(key, depth + cn), leaf,
                     siteInternalInit);
            setChild(sys, inner, nibbleOf(other, depth + cn), cursor,
                     siteInternalInit);
            sys.writeSite<Addr>(slot_addr, inner, siteSwing);
            break;
        }

        // Internal: match the compressed prefix.
        const auto plen =
            sys.read<std::uint64_t>(cursor + NodeOff::prefixLen);
        const auto packed =
            sys.read<std::uint64_t>(cursor + NodeOff::prefix);
        std::uint64_t m = 0;
        while (m < plen &&
               nibbleOf(key, depth + m) == packedNibble(packed, m))
            ++m;

        if (m < plen) {
            // Edge split: a fresh node takes the matched part; the
            // existing node keeps the tail after the branch nibble.
            // Shortening the existing prefix is the paper's "key
            // movement" store (kept logged+eager; see header).
            const Addr inner =
                makeInternal(sys, m, packNibbles(key, depth, m));
            const std::uint64_t old_branch = packedNibble(packed, m);
            const std::uint64_t tail_len = plen - m - 1;
            std::uint64_t tail_packed = 0;
            for (std::uint64_t j = 0; j < tail_len; ++j) {
                tail_packed |= packedNibble(packed, m + 1 + j)
                               << (60 - 4 * j);
            }
            sys.writeSite<std::uint64_t>(cursor + NodeOff::prefixLen,
                                         tail_len, sitePrefixMove);
            sys.writeSite<std::uint64_t>(cursor + NodeOff::prefix,
                                         tail_packed, sitePrefixMove);
            setChild(sys, inner, old_branch, cursor, siteInternalInit);
            setChild(sys, inner, nibbleOf(key, depth + m), leaf,
                     siteInternalInit);
            sys.writeSite<Addr>(slot_addr, inner, siteSwing);
            break;
        }

        // Full prefix match: branch on the next nibble.
        depth += plen;
        const std::uint64_t nib = nibbleOf(key, depth);
        depth += 1;
        slot_addr = cursor + NodeOff::children + nib * 8;
        cursor = sys.read<Addr>(slot_addr);
    }

    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count, cnt + 1,
                                 siteCount);
    tx.commit();
}

bool
KvRtreeWorkload::lookup(PmContext &sys, std::uint64_t key,
                        std::vector<std::uint8_t> *out)
{
    Addr cursor = sys.read<Addr>(headerAddr + HdrOff::root);
    std::uint64_t depth = 0;
    while (cursor) {
        sys.compute(opcost::perLevel);
        if (sys.read<std::uint64_t>(cursor + NodeOff::tag) == tagLeaf) {
            if (sys.read<std::uint64_t>(cursor + NodeOff::key) != key)
                return false;
            readValue(sys, cursor + NodeOff::valPtr, cursor + NodeOff::valLen,
                      out);
            return true;
        }
        const auto plen =
            sys.read<std::uint64_t>(cursor + NodeOff::prefixLen);
        const auto packed =
            sys.read<std::uint64_t>(cursor + NodeOff::prefix);
        for (std::uint64_t j = 0; j < plen; ++j) {
            if (nibbleOf(key, depth + j) != packedNibble(packed, j))
                return false;
        }
        depth += plen;
        const std::uint64_t nib = nibbleOf(key, depth);
        depth += 1;
        cursor = sys.read<Addr>(cursor + NodeOff::children + nib * 8);
    }
    return false;
}

void
KvRtreeWorkload::collectReachable(PmContext &sys, Addr node,
                                  std::vector<Addr> *out, std::size_t *n)
{
    if (!node)
        return;
    out->push_back(node);
    if (sys.peek<std::uint64_t>(node + NodeOff::tag) == tagLeaf) {
        out->push_back(sys.peek<Addr>(node + NodeOff::valPtr));
        ++*n;
        return;
    }
    for (std::uint64_t i = 0; i < fanout; ++i) {
        collectReachable(
            sys, sys.peek<Addr>(node + NodeOff::children + i * 8), out,
            n);
    }
}

std::size_t
KvRtreeWorkload::count(PmContext &sys)
{
    return sys.read<std::uint64_t>(headerAddr + HdrOff::count);
}

void
KvRtreeWorkload::recover(PmContext &sys)
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
KvRtreeWorkload::checkNode(PmContext &sys, Addr node,
                           std::uint64_t path_value,
                           std::uint64_t path_nibbles, std::size_t *n,
                           std::string *why)
{
    if (!node)
        return true;
    if (sys.read<std::uint64_t>(node + NodeOff::tag) == tagLeaf) {
        const auto key = sys.read<std::uint64_t>(node + NodeOff::key);
        for (std::uint64_t j = 0; j < path_nibbles; ++j) {
            if (nibbleOf(key, j) != packedNibble(path_value, j))
                return failCheck(why, "leaf key disagrees with path");
        }
        ++*n;
        return true;
    }
    const auto plen = sys.read<std::uint64_t>(node + NodeOff::prefixLen);
    const auto packed = sys.read<std::uint64_t>(node + NodeOff::prefix);
    if (path_nibbles + plen + 1 > nibbles)
        return failCheck(why, "radix path too deep");
    std::uint64_t value = path_value;
    for (std::uint64_t j = 0; j < plen; ++j) {
        value |= packedNibble(packed, j)
                 << (60 - 4 * (path_nibbles + j));
    }
    std::size_t children = 0;
    for (std::uint64_t i = 0; i < fanout; ++i) {
        const Addr child =
            sys.read<Addr>(node + NodeOff::children + i * 8);
        if (!child)
            continue;
        ++children;
        const std::uint64_t child_value =
            value | (i << (60 - 4 * (path_nibbles + plen)));
        if (!checkNode(sys, child, child_value,
                       path_nibbles + plen + 1, n, why))
            return false;
    }
    if (children < 2)
        return failCheck(why, "internal radix node with < 2 children");
    return true;
}

bool
KvRtreeWorkload::checkConsistency(PmContext &sys, std::string *why)
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
KvRtreeWorkload::update(PmContext &sys, std::uint64_t key,
                        const std::vector<std::uint8_t> &value)
{
    Addr cursor = sys.read<Addr>(headerAddr + HdrOff::root);
    std::uint64_t depth = 0;
    while (cursor &&
           sys.read<std::uint64_t>(cursor + NodeOff::tag) ==
               tagInternal) {
        const auto plen =
            sys.read<std::uint64_t>(cursor + NodeOff::prefixLen);
        const auto packed =
            sys.read<std::uint64_t>(cursor + NodeOff::prefix);
        for (std::uint64_t j = 0; j < plen; ++j) {
            if (nibbleOf(key, depth + j) != packedNibble(packed, j))
                return false;
        }
        depth += plen;
        const std::uint64_t nib = nibbleOf(key, depth);
        depth += 1;
        cursor = sys.read<Addr>(cursor + NodeOff::children + nib * 8);
    }
    if (!cursor || sys.read<std::uint64_t>(cursor + NodeOff::key) != key)
        return false;

    replaceValue(sys, cursor + NodeOff::valPtr, cursor + NodeOff::valLen,
                 value, siteValueInit, siteSwing);
    return true;
}

} // namespace slpmt
