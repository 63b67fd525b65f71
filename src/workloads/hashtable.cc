#include "workloads/hashtable.hh"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>
#include <vector>

namespace slpmt
{

namespace
{

/**
 * The steps of one walk over the table's chains, bounded by the heap's
 * allocation count: every node is a live allocation, so only a cyclic
 * (corrupted) chain takes more steps, as in the AVL tree's searches.
 * The bound is host-side: it reads no simulated state.
 */
struct ChainWalk
{
    ChainWalk(PmContext &sys, const char *what)
        : bound(sys.heap().liveCount()), what(what)
    {
    }

    void step() { panicIfNot(++steps <= bound, what); }

    std::size_t bound;
    const char *what;
    std::size_t steps = 0;
};

/**
 * The keys a consistency walk has visited: linear probing over a
 * power-of-two table of keys, with no allocation per key. The all-ones
 * key marks an empty slot and is tracked on its own.
 */
class VisitedKeys
{
  public:
    /** Room for about @p expect keys before the table first grows. */
    explicit VisitedKeys(std::size_t expect)
        : slots(std::bit_ceil(std::max<std::size_t>(2 * expect, 64)),
                empty)
    {}

    /** Add @p key; false when it was already there. */
    bool
    insert(std::uint64_t key)
    {
        if (key == empty)
            return !std::exchange(hasEmptyKey, true);
        if (2 * (held + 1) > slots.size())
            grow();
        if (!place(slots, key))
            return false;
        ++held;
        return true;
    }

  private:
    static constexpr std::uint64_t empty = ~std::uint64_t{0};

    /** Put @p key into @p table; false when it is there already. */
    static bool
    place(std::vector<std::uint64_t> &table, std::uint64_t key)
    {
        const std::size_t mask = table.size() - 1;
        for (std::size_t i = mix64(key) & mask;; i = (i + 1) & mask) {
            if (table[i] == key)
                return false;
            if (table[i] == empty) {
                table[i] = key;
                return true;
            }
        }
    }

    void
    grow()
    {
        std::vector<std::uint64_t> bigger(2 * slots.size(), empty);
        for (std::uint64_t key : slots)
            if (key != empty)
                place(bigger, key);
        slots.swap(bigger);
    }

    std::vector<std::uint64_t> slots;
    std::size_t held = 0;
    bool hasEmptyKey = false;
};

} // namespace

void
HashTableWorkload::setup(PmContext &sys)
{
    auto &sites = sys.sites();
    siteNodeInit = sites.add({.name = "hashtable.insert.node",
                              .manual = {.lazy = false, .logFree = true},
                              .origin = ValueOrigin::Input,
                              .targetsFreshAlloc = true,
                              .defUseDepth = 2});
    siteValueInit = sites.add({.name = "hashtable.insert.value",
                               .manual = {.lazy = false, .logFree = true},
                               .origin = ValueOrigin::Input,
                               .targetsFreshAlloc = true,
                               .defUseDepth = 1});
    siteBucketHead = sites.add({.name = "hashtable.insert.bucketHead",
                                .manual = {},
                                .origin = ValueOrigin::Computed,
                                .defUseDepth = 2});
    siteCount = sites.add({.name = "hashtable.insert.count",
                           .manual = {.lazy = true, .logFree = false},
                           .origin = ValueOrigin::Computed,
                           .rebuildable = true,
                           .requiresDeepSemantics = true,
                           .defUseDepth = 3});
    siteCopyInit = sites.add({.name = "hashtable.resize.nodeCopy",
                              .manual = {.lazy = true, .logFree = true},
                              .origin = ValueOrigin::PmLoad,
                              .targetsFreshAlloc = true,
                              .rebuildable = true,
                              .defUseDepth = 4});
    siteNewBuckets = sites.add({.name = "hashtable.resize.newBuckets",
                                .manual = {.lazy = true, .logFree = true},
                                .origin = ValueOrigin::PmLoad,
                                .targetsFreshAlloc = true,
                                .rebuildable = true,
                                .defUseDepth = 4});
    siteHeaderSwing = sites.add({.name = "hashtable.resize.headerSwing",
                                 .manual = {},
                                 .origin = ValueOrigin::Computed,
                                 .defUseDepth = 2});
    siteJournal = sites.add({.name = "hashtable.resize.journal",
                             .manual = {},
                             .origin = ValueOrigin::Computed,
                             .defUseDepth = 1});
    siteDeadPoison = sites.add({.name = "hashtable.remove.poison",
                                .manual = {.lazy = true, .logFree = true},
                                .origin = ValueOrigin::Constant,
                                .targetsDeadRegion = true,
                                .defUseDepth = 1});

    DurableTx tx(sys);
    headerAddr = sys.heap().alloc(HdrOff::size);
    journalAddr = sys.heap().alloc(JnlOff::size);
    const Addr buckets = sys.heap().alloc(initialBuckets * wordSize);

    for (std::uint64_t b = 0; b < initialBuckets; ++b)
        sys.write<Addr>(buckets + b * wordSize, 0);
    sys.write<std::uint64_t>(headerAddr + HdrOff::numBuckets,
                             initialBuckets);
    sys.write<std::uint64_t>(headerAddr + HdrOff::count, 0);
    sys.write<Addr>(headerAddr + HdrOff::bucketsPtr, buckets);
    sys.write<std::uint64_t>(journalAddr + JnlOff::valid, 0);
    sys.writeRoot(headerRootSlot, headerAddr);
    sys.writeRoot(journalRootSlot, journalAddr);
    tx.commit();
    sys.quiesce();
}

Addr
HashTableWorkload::writeFreshNode(PmContext &sys, std::uint64_t key,
                                  Addr next, Addr val_ptr,
                                  std::uint64_t val_len, bool as_copy)
{
    const SiteId site = as_copy ? siteCopyInit : siteNodeInit;
    const Addr node = sys.heap().alloc(NodeOff::size);
    sys.writeSite<std::uint64_t>(node + NodeOff::key, key, site);
    sys.writeSite<Addr>(node + NodeOff::next, next, site);
    sys.writeSite<Addr>(node + NodeOff::valPtr, val_ptr, site);
    sys.writeSite<std::uint64_t>(node + NodeOff::valLen, val_len, site);
    sys.writeSite<std::uint64_t>(
        node + NodeOff::chk, nodeChecksum(key, next, val_ptr, val_len),
        site);
    return node;
}

void
HashTableWorkload::insert(PmContext &sys, std::uint64_t key,
                          const std::vector<std::uint8_t> &value)
{
    DurableTx tx(sys);

    // Hash computation and control flow.
    sys.compute(opcost::insertBase + opcost::valueWork(value.size()));

    const Addr val_ptr = writeFreshValue(sys, value, siteValueInit);

    const std::uint64_t num =
        sys.read<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr buckets = sys.read<Addr>(headerAddr + HdrOff::bucketsPtr);
    const Addr slot = buckets + bucketOf(key, num) * wordSize;
    const Addr head = sys.read<Addr>(slot);

    const Addr node =
        writeFreshNode(sys, key, head, val_ptr, value.size(), false);

    // The commit pivot: a normal logged, eagerly persistent store.
    sys.writeSite<Addr>(slot, node, siteBucketHead);

    const std::uint64_t cnt =
        sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count, cnt + 1,
                                 siteCount);

    if (cnt + 1 > loadFactor * num)
        resize(sys, tx, num * 2);

    tx.commit();
}

void
HashTableWorkload::resize(PmContext &sys, DurableTx &tx,
                          std::uint64_t new_num)
{
    const std::uint64_t old_num =
        sys.read<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr old_buckets =
        sys.read<Addr>(headerAddr + HdrOff::bucketsPtr);

    const Addr new_buckets = sys.heap().alloc(new_num * wordSize);

    // Journal first (logged + eager): recovery learns both locations.
    sys.writeSite<Addr>(journalAddr + JnlOff::oldBuckets, old_buckets,
                        siteJournal);
    sys.writeSite<std::uint64_t>(journalAddr + JnlOff::oldNum, old_num,
                                 siteJournal);
    sys.writeSite<Addr>(journalAddr + JnlOff::newBuckets, new_buckets,
                        siteJournal);
    sys.writeSite<std::uint64_t>(journalAddr + JnlOff::newNum, new_num,
                                 siteJournal);
    sys.writeSite<std::uint64_t>(journalAddr + JnlOff::valid, 1,
                                 siteJournal);

    // Volatile staging of the new chains so copies can be written in
    // one pass with correct next pointers.
    std::vector<Addr> heads(new_num, 0);

    ChainWalk walk(sys, "hashtable: resize walks a cyclic chain");
    for (std::uint64_t b = 0; b < old_num; ++b) {
        Addr cursor = sys.read<Addr>(old_buckets + b * wordSize);
        while (cursor != 0) {
            walk.step();
            sys.compute(opcost::perMove);
            const auto key =
                sys.read<std::uint64_t>(cursor + NodeOff::key);
            const Addr val_ptr = sys.read<Addr>(cursor + NodeOff::valPtr);
            const auto val_len =
                sys.read<std::uint64_t>(cursor + NodeOff::valLen);
            const Addr next = sys.read<Addr>(cursor + NodeOff::next);

            // Copy, never modify, the original node: the old table
            // stays intact while any copy is volatile.
            const std::uint64_t nb = bucketOf(key, new_num);
            heads[nb] = writeFreshNode(sys, key, heads[nb], val_ptr,
                                       val_len, true);
            tx.free(cursor);
            cursor = next;
        }
    }

    for (std::uint64_t b = 0; b < new_num; ++b)
        sys.writeSite<Addr>(new_buckets + b * wordSize, heads[b],
                            siteNewBuckets);

    // Swing the header (logged + eager); the old array is freed with
    // the commit, after the old nodes.
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::numBuckets,
                                 new_num, siteHeaderSwing);
    sys.writeSite<Addr>(headerAddr + HdrOff::bucketsPtr, new_buckets,
                        siteHeaderSwing);
    tx.free(old_buckets);
    resizeCount++;
}

bool
HashTableWorkload::lookup(PmContext &sys, std::uint64_t key,
                          std::vector<std::uint8_t> *out)
{
    const std::uint64_t num =
        sys.read<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr buckets = sys.read<Addr>(headerAddr + HdrOff::bucketsPtr);
    Addr cursor =
        sys.read<Addr>(buckets + bucketOf(key, num) * wordSize);
    ChainWalk walk(sys, "hashtable: lookup walks a cyclic chain");
    while (cursor != 0) {
        walk.step();
        sys.compute(opcost::perLevel);
        if (sys.read<std::uint64_t>(cursor + NodeOff::key) == key) {
            readValue(sys, cursor + NodeOff::valPtr,
                      cursor + NodeOff::valLen, out);
            return true;
        }
        cursor = sys.read<Addr>(cursor + NodeOff::next);
    }
    return false;
}

std::size_t
HashTableWorkload::count(PmContext &sys)
{
    const std::uint64_t num =
        sys.read<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr buckets = sys.read<Addr>(headerAddr + HdrOff::bucketsPtr);
    std::size_t n = 0;
    ChainWalk walk(sys, "hashtable: count walks a cyclic chain");
    for (std::uint64_t b = 0; b < num; ++b) {
        Addr cursor = sys.read<Addr>(buckets + b * wordSize);
        while (cursor != 0) {
            walk.step();
            ++n;
            cursor = sys.read<Addr>(cursor + NodeOff::next);
        }
    }
    return n;
}

HashTableWorkload::DurableNode
HashTableWorkload::peekNode(PmContext &sys, Addr node)
{
    DurableNode n{};
    sys.peekBytes(node, &n, sizeof(n));
    return n;
}

template <typename Fn>
bool
HashTableWorkload::walkDurable(PmContext &sys, Addr buckets,
                               std::uint64_t num, std::size_t bound,
                               Fn &&visit) const
{
    const auto &heap = sys.heap();
    const Addr lo = heap.base();
    const Addr hi = heap.base() + heap.size();
    auto plausible = [&](Addr a) {
        return a >= lo && a < hi && a % wordSize == 0;
    };

    if (!plausible(buckets))
        return false;
    bool whole = true;
    std::size_t steps = 0;
    for (std::uint64_t b = 0; b < num; ++b) {
        Addr cursor = sys.peek<Addr>(buckets + b * wordSize);
        while (cursor != 0 && plausible(cursor)) {
            if (steps++ == bound)
                return false;  // a chain revisits a node
            const DurableNode node = peekNode(sys, cursor);
            if (node.chk !=
                nodeChecksum(node.key, node.next, node.valPtr, node.valLen))
                break;  // this copy never reached PM
            visit(Survivor{node.key, node.valPtr, node.valLen});
            whole = whole && bucketOf(node.key, num) == b;
            cursor = node.next;
        }
        whole = whole && cursor == 0;
    }
    return whole;
}

void
HashTableWorkload::recover(PmContext &sys)
{
    // Hardware replay already ran; re-derive volatile state from the
    // durable roots.
    headerAddr = sys.peek<Addr>(sys.rootSlotAddr(headerRootSlot));
    journalAddr = sys.peek<Addr>(sys.rootSlotAddr(journalRootSlot));
    const Addr buckets = sys.peek<Addr>(headerAddr + HdrOff::bucketsPtr);
    const auto num =
        sys.peek<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const bool journal_valid =
        sys.peek<std::uint64_t>(journalAddr + JnlOff::valid) != 0;

    std::size_t count = 0;
    if (journal_valid) {
        // A resize committed, and its lazily persistent copies may not
        // all have reached PM. While one is missing the old table is
        // intact (see header comment), so a lost copy leaves the new
        // table not whole or lacking an old key, and only then is the
        // old table merged back in. Otherwise the merge would yield
        // exactly the new table, which stays where it is.
        const Addr new_buckets =
            sys.peek<Addr>(journalAddr + JnlOff::newBuckets);
        const auto new_num =
            sys.peek<std::uint64_t>(journalAddr + JnlOff::newNum);
        const Addr old_buckets =
            sys.peek<Addr>(journalAddr + JnlOff::oldBuckets);
        const auto old_num =
            sys.peek<std::uint64_t>(journalAddr + JnlOff::oldNum);

        // The new table's nodes are live allocations; the old table
        // held loadFactor * old_num + 1 nodes when it resized.
        std::vector<Survivor> new_set;
        std::vector<Survivor> old_set;
        const bool new_whole = walkDurable(
            sys, new_buckets, new_num, sys.heap().liveCount(),
            [&](const Survivor &s) { new_set.push_back(s); });
        walkDurable(sys, old_buckets, old_num, loadFactor * old_num + 1,
                    [&](const Survivor &s) { old_set.push_back(s); });

        std::vector<std::uint64_t> new_keys;
        new_keys.reserve(new_set.size());
        for (const Survivor &s : new_set)
            new_keys.push_back(s.key);
        std::ranges::sort(new_keys);
        const bool old_kept =
            std::ranges::all_of(old_set, [&](const Survivor &s) {
                return std::ranges::binary_search(new_keys, s.key);
            });

        if (!new_whole || !old_kept || buckets != new_buckets ||
            num != new_num) {
            mergeJournal(sys, new_set, old_set);
            return;
        }
        count = new_set.size();
    } else {
        walkDurable(sys, buckets, num, sys.heap().liveCount(),
                    [&](const Survivor &) { ++count; });
    }

    // Recompute the lazy count, retire a resize whose copies all
    // reached PM, and GC leaks.
    DurableTx tx(sys);
    sys.write<std::uint64_t>(headerAddr + HdrOff::count, count);
    if (journal_valid)
        sys.write<std::uint64_t>(journalAddr + JnlOff::valid, 0);
    tx.commit();
    sys.heap().rebuild(collectReachable(sys));
    sys.quiesce();
}

void
HashTableWorkload::mergeJournal(PmContext &sys,
                                const std::vector<Survivor> &new_set,
                                const std::vector<Survivor> &old_set)
{
    // The checksum-valid chains of the new table (always including the
    // post-resize eager inserts) union the old table. Key order makes
    // the rebuilt layout independent of any host hash table.
    std::map<std::uint64_t, Survivor> merged;
    for (const auto &s : old_set)
        merged[s.key] = s;
    for (const auto &s : new_set)
        merged[s.key] = s;  // new table wins

    // Capture every survivor's value bytes before the rebuild: the
    // fresh table reuses the same heap range from its base, so an
    // early allocation can sit where a later survivor's blob still
    // lives.
    std::vector<std::vector<std::uint8_t>> values;
    values.reserve(merged.size());
    for (const auto &[key, s] : merged) {
        auto &value = values.emplace_back(s.valLen);
        sys.peekBytes(s.valPtr, value.data(), s.valLen);
    }

    // Rebuild a fresh table from the merged set. Allocator state is
    // rebuilt here, so reset it first to a blank slate.
    sys.heap().reset();
    DurableTx tx(sys);
    headerAddr = sys.heap().alloc(HdrOff::size);
    journalAddr = sys.heap().alloc(JnlOff::size);
    std::uint64_t num = initialBuckets;
    while (num * loadFactor < merged.size())
        num *= 2;
    const Addr buckets = sys.heap().alloc(num * wordSize);
    for (std::uint64_t b = 0; b < num; ++b)
        sys.write<Addr>(buckets + b * wordSize, 0);

    std::uint64_t cnt = 0;
    auto value = values.begin();
    for (const auto &[key, s] : merged) {
        // Value blobs were written eagerly by the original insert and
        // never moved: copy their captured durable contents.
        const Addr val_ptr = sys.heap().alloc(s.valLen);
        sys.writeBytes(val_ptr, (value++)->data(), s.valLen);

        const Addr slot = buckets + bucketOf(key, num) * wordSize;
        const Addr head = sys.read<Addr>(slot);
        const Addr node = sys.heap().alloc(NodeOff::size);
        sys.write<std::uint64_t>(node + NodeOff::key, key);
        sys.write<Addr>(node + NodeOff::next, head);
        sys.write<Addr>(node + NodeOff::valPtr, val_ptr);
        sys.write<std::uint64_t>(node + NodeOff::valLen, s.valLen);
        sys.write<std::uint64_t>(
            node + NodeOff::chk,
            nodeChecksum(key, head, val_ptr, s.valLen));
        sys.write<Addr>(slot, node);
        ++cnt;
    }
    sys.write<std::uint64_t>(headerAddr + HdrOff::numBuckets, num);
    sys.write<std::uint64_t>(headerAddr + HdrOff::count, cnt);
    sys.write<Addr>(headerAddr + HdrOff::bucketsPtr, buckets);
    sys.write<std::uint64_t>(journalAddr + JnlOff::valid, 0);
    sys.writeRoot(headerRootSlot, headerAddr);
    sys.writeRoot(journalRootSlot, journalAddr);
    tx.commit();
    sys.quiesce();
}

std::vector<Addr>
HashTableWorkload::collectReachable(PmContext &sys)
{
    std::vector<Addr> reachable = {headerAddr, journalAddr};
    const auto num =
        sys.peek<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr buckets = sys.peek<Addr>(headerAddr + HdrOff::bucketsPtr);
    reachable.push_back(buckets);
    ChainWalk walk(sys, "hashtable: recovery walks a cyclic chain");
    for (std::uint64_t b = 0; b < num; ++b) {
        Addr cursor = sys.peek<Addr>(buckets + b * wordSize);
        while (cursor != 0) {
            walk.step();
            const DurableNode node = peekNode(sys, cursor);
            reachable.push_back(cursor);
            reachable.push_back(node.valPtr);
            cursor = node.next;
        }
    }
    return reachable;
}

bool
HashTableWorkload::checkConsistency(PmContext &sys, std::string *why)
{
    const auto num =
        sys.read<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr buckets = sys.read<Addr>(headerAddr + HdrOff::bucketsPtr);
    if (num == 0 || buckets == 0)
        return failCheck(why, "empty header");

    // Room for a small table; a larger one, or a header whose bucket
    // count is corrupt, grows the set only as keys arrive.
    VisitedKeys seen(std::min<std::uint64_t>(num, 64) * loadFactor);
    std::size_t walked = 0;
    // No step bound: a cyclic chain revisits a key, which the
    // duplicate test below reports.
    for (std::uint64_t b = 0; b < num; ++b) {
        Addr cursor = sys.read<Addr>(buckets + b * wordSize);
        while (cursor != 0) {
            const auto key =
                sys.read<std::uint64_t>(cursor + NodeOff::key);
            const Addr next = sys.read<Addr>(cursor + NodeOff::next);
            const Addr val_ptr = sys.read<Addr>(cursor + NodeOff::valPtr);
            const auto val_len =
                sys.read<std::uint64_t>(cursor + NodeOff::valLen);
            const auto chk =
                sys.read<std::uint64_t>(cursor + NodeOff::chk);
            if (chk != nodeChecksum(key, next, val_ptr, val_len))
                return failCheck(why, "node checksum mismatch");
            if (bucketOf(key, num) != b)
                return failCheck(why, "key in wrong bucket");
            if (!seen.insert(key))
                return failCheck(why, "duplicate key");
            ++walked;
            cursor = next;
        }
    }
    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    if (cnt != walked)
        return failCheck(why, "count field does not match walk");
    return true;
}

bool
HashTableWorkload::update(PmContext &sys, std::uint64_t key,
                          const std::vector<std::uint8_t> &value)
{
    // Locate the node first (plain reads, outside any transaction).
    const auto num =
        sys.read<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr buckets = sys.read<Addr>(headerAddr + HdrOff::bucketsPtr);
    Addr node = sys.read<Addr>(buckets + bucketOf(key, num) * wordSize);
    ChainWalk walk(sys, "hashtable: update walks a cyclic chain");
    while (node && sys.read<std::uint64_t>(node + NodeOff::key) != key) {
        walk.step();
        node = sys.read<Addr>(node + NodeOff::next);
    }
    if (!node)
        return false;

    DurableTx tx(sys);
    sys.compute(opcost::insertBase + opcost::valueWork(value.size()));
    const Addr new_blob = writeFreshValue(sys, value, siteValueInit);
    tx.free(sys.read<Addr>(node + NodeOff::valPtr));
    const Addr next = sys.read<Addr>(node + NodeOff::next);
    sys.writeSite<Addr>(node + NodeOff::valPtr, new_blob,
                        siteBucketHead);
    sys.writeSite<std::uint64_t>(node + NodeOff::valLen, value.size(),
                                 siteBucketHead);
    sys.writeSite<std::uint64_t>(
        node + NodeOff::chk,
        nodeChecksum(key, next, new_blob, value.size()), siteBucketHead);
    tx.commit();
    return true;
}

bool
HashTableWorkload::remove(PmContext &sys, std::uint64_t key)
{
    const auto num =
        sys.read<std::uint64_t>(headerAddr + HdrOff::numBuckets);
    const Addr buckets = sys.read<Addr>(headerAddr + HdrOff::bucketsPtr);
    const Addr slot = buckets + bucketOf(key, num) * wordSize;
    Addr prev = 0;
    Addr node = sys.read<Addr>(slot);
    ChainWalk walk(sys, "hashtable: remove walks a cyclic chain");
    while (node && sys.read<std::uint64_t>(node + NodeOff::key) != key) {
        walk.step();
        prev = node;
        node = sys.read<Addr>(node + NodeOff::next);
    }
    if (!node)
        return false;

    DurableTx tx(sys);
    sys.compute(opcost::insertBase / 2);
    const Addr next = sys.read<Addr>(node + NodeOff::next);
    if (!prev) {
        sys.writeSite<Addr>(slot, next, siteBucketHead);
    } else {
        // Unlink: the predecessor's next changes, and its checksum
        // covers the next pointer.
        const auto pk = sys.read<std::uint64_t>(prev + NodeOff::key);
        const Addr pv = sys.read<Addr>(prev + NodeOff::valPtr);
        const auto pl = sys.read<std::uint64_t>(prev + NodeOff::valLen);
        sys.writeSite<Addr>(prev + NodeOff::next, next, siteBucketHead);
        sys.writeSite<std::uint64_t>(prev + NodeOff::chk,
                                     nodeChecksum(pk, next, pv, pl),
                                     siteBucketHead);
    }
    const auto cnt = sys.read<std::uint64_t>(headerAddr + HdrOff::count);
    sys.writeSite<std::uint64_t>(headerAddr + HdrOff::count, cnt - 1,
                                 siteCount);
    // Pattern 1b: the node dies with this transaction — poisoning its
    // checksum needs neither logging nor persistence.
    sys.writeSite<std::uint64_t>(node + NodeOff::chk, 0, siteDeadPoison);
    tx.free(node);
    tx.free(sys.read<Addr>(node + NodeOff::valPtr));
    tx.commit();
    return true;
}

} // namespace slpmt
