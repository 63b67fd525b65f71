/**
 * @file
 * The data-movement pattern of Section VI-D1: an incremental
 * generational GC / defragmenter copies live objects to a new region
 * inside durable transactions. Because the move never modifies the
 * originals, the copies can be written with lazy, log-free storeT —
 * they stay in the cache past the commit and the hardware persists
 * them only when the old region is about to be reused.
 *
 *   ./gc_movement
 */

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "core/pm_system.hh"
#include "core/tx.hh"

using namespace slpmt;

namespace
{

constexpr std::size_t numObjects = 256;
constexpr Bytes objectBytes = 64;
constexpr std::size_t tableSlot = 0;  //!< root: object table address

/** Move every object into a fresh region, one durable txn per batch. */
std::vector<Addr>
moveAll(PmSystem &sys, const std::vector<Addr> &objects, bool lazy)
{
    const Addr table = sys.readRoot(tableSlot);
    std::vector<Addr> moved(objects.size());
    const std::size_t batch = 16;
    for (std::size_t start = 0; start < objects.size(); start += batch) {
        DurableTx tx(sys);
        for (std::size_t i = start;
             i < std::min(start + batch, objects.size()); ++i) {
            std::uint8_t data[objectBytes];
            sys.readBytes(objects[i], data, objectBytes);
            const Addr fresh = sys.heap().alloc(objectBytes);
            sys.writeBytesT(fresh, data, objectBytes,
                            {.lazy = lazy, .logFree = true});
            moved[i] = fresh;
            // The forwarding table entry is the durable anchor.
            sys.write<Addr>(table + i * 8, fresh);
        }
        tx.commit();
    }
    return moved;
}

} // namespace

int
main()
{
    for (bool lazy : {false, true}) {
        SystemConfig config;
        PmSystem sys(config);

        // Build the object heap and the forwarding table.
        std::vector<Addr> objects(numObjects);
        const Addr table = [&] {
            DurableTx tx(sys);
            const Addr t = sys.heap().alloc(numObjects * 8);
            sys.writeRoot(tableSlot, t);
            tx.commit();
            return t;
        }();
        for (std::size_t i = 0; i < numObjects; ++i) {
            DurableTx tx(sys);
            objects[i] = sys.heap().alloc(objectBytes);
            std::uint8_t data[objectBytes];
            for (std::size_t b = 0; b < objectBytes; ++b)
                data[b] = static_cast<std::uint8_t>(i + b);
            sys.writeBytesT(objects[i], data, objectBytes,
                            {.lazy = false, .logFree = true});
            sys.write<Addr>(table + i * 8, objects[i]);
            tx.commit();
        }
        sys.quiesce();

        const Cycles start = sys.cycles();
        const auto before = sys.stats().snapshot();
        const auto moved = moveAll(sys, objects, lazy);
        const auto delta = StatsRegistry::delta(
            before, sys.stats().snapshot());
        const Cycles cycles = sys.cycles() - start;

        // Crash with (possibly) volatile copies; recovery re-executes
        // the moves whose copies did not reach PM — detectable here
        // because the originals are intact until the copies persist.
        sys.crash();
        sys.recoverHardware();
        std::size_t rebuilt = 0;
        bool ok = true;
        for (std::size_t i = 0; i < numObjects; ++i) {
            std::uint8_t got[objectBytes];
            sys.peekBytes(moved[i], got, objectBytes);
            bool intact = true;
            for (std::size_t b = 0; b < objectBytes; ++b)
                intact = intact &&
                         got[b] == static_cast<std::uint8_t>(i + b);
            if (!intact) {
                // Re-execute the move from the (still intact) source.
                std::uint8_t src[objectBytes];
                sys.peekBytes(objects[i], src, objectBytes);
                sys.pm().poke(moved[i], src, objectBytes);
                ++rebuilt;
                for (std::size_t b = 0; b < objectBytes; ++b)
                    ok = ok &&
                         src[b] == static_cast<std::uint8_t>(i + b);
            }
        }

        auto get = [&](const char *name) {
            auto it = delta.find(name);
            return it == delta.end() ? std::uint64_t{0} : it->second;
        };
        std::printf(
            "%-5s moves: %" PRIu64 " cycles, %" PRIu64
            " PM bytes, %" PRIu64
            " lazy lines deferred; crash: %zu copies rebuilt, %s\n",
            lazy ? "lazy" : "eager", cycles, get("pm.bytesWritten"),
            get("txn.lazyLinesDeferred"), rebuilt,
            ok ? "all objects correct" : "CORRUPT");
        if (!ok)
            return 1;
    }
    return 0;
}
