#include "multicore/mc_slots.hh"

#include <unordered_set>

#include "common/rng.hh"
#include "core/pm_system.hh"

namespace slpmt
{
namespace
{

/** Allocate the slot array line-aligned; identical on every machine
 *  built from the same config (first allocation of a fresh heap). */
Addr
allocSlotRegion(PersistentHeap &heap, std::size_t num_slots)
{
    const Addr raw =
        heap.alloc(num_slots * cacheLineSize + cacheLineSize);
    return (raw + cacheLineSize - 1) &
           ~static_cast<Addr>(cacheLineSize - 1);
}

/** Executes one core's group stream; rewinds on conflict aborts. */
class McSlotsDriver : public McCoreDriver
{
  public:
    McSlotsDriver(PmContext &ctx, Addr slot_base,
                  const std::vector<McSlotGroup> &groups,
                  std::vector<McSlotGroup> &commit_log)
        : ctx(ctx), slotBase(slot_base), groups(groups),
          commitLog(commit_log)
    {
    }

    bool done() const override { return next >= groups.size(); }

    void
    step() override
    {
        const McSlotGroup &grp = groups[next];
        if (pos == 0)
            ctx.txBegin();
        const McSlotWrite &w = grp.writes[pos];
        ctx.write<std::uint64_t>(slotBase + w.slot * cacheLineSize,
                                 w.value);
        if (++pos == grp.writes.size()) {
            ctx.txCommit();
            commitLog.push_back(grp);
            ++next;
            pos = 0;
            streak = 0;
        }
    }

    std::size_t abortStreak() const override { return streak; }

    void
    onConflictAbort() override
    {
        // The machine already aborted the engine-level transaction;
        // restart the group from its first store (same values — the
        // group is a pure function of its identity).
        pos = 0;
        ++streak;
    }

  private:
    PmContext &ctx;
    Addr slotBase;
    const std::vector<McSlotGroup> &groups;
    std::vector<McSlotGroup> &commitLog;
    std::size_t next = 0;
    std::size_t pos = 0;
    std::size_t streak = 0;
};

} // namespace

std::vector<std::vector<McSlotGroup>>
mcSlotStreams(const McSlotsConfig &cfg)
{
    panicIfNot(cfg.numCores >= 1 && cfg.numSlots >= 1 &&
                   cfg.writesPerGroup >= 1,
               "degenerate slot configuration");
    const std::size_t per_group =
        std::min(cfg.writesPerGroup, cfg.numSlots);

    std::vector<std::vector<McSlotGroup>> streams(cfg.numCores);
    for (std::size_t core = 0; core < cfg.numCores; ++core) {
        Rng rng(mix64(cfg.seed ^ (0xbeefULL + core)));
        auto &groups = streams[core];
        groups.reserve(cfg.groupsPerCore);
        for (std::size_t g = 0; g < cfg.groupsPerCore; ++g) {
            McSlotGroup grp;
            grp.core = core;
            std::unordered_set<std::size_t> taken;
            while (grp.writes.size() < per_group) {
                const std::size_t slot = rng.below(cfg.numSlots);
                if (!taken.insert(slot).second)
                    continue;
                const std::uint64_t value =
                    mix64Salted(((core + 1ULL) << 40) | (g << 20) |
                                    grp.writes.size(),
                                cfg.seed) |
                    1ULL;
                grp.writes.push_back({slot, value});
            }
            groups.push_back(std::move(grp));
        }
    }
    return streams;
}

McSlotsResult
runMcSlots(const McSlotsConfig &cfg, std::uint64_t crash_after_stores)
{
    SystemConfig sys_cfg = cfg.sys;
    sys_cfg.numCores = cfg.numCores;

    McMachine machine(sys_cfg);
    const Addr base = allocSlotRegion(machine.heap(), cfg.numSlots);
    const auto streams = mcSlotStreams(cfg);

    McSlotsResult result;
    std::vector<std::unique_ptr<McSlotsDriver>> drivers;
    std::vector<McCoreDriver *> ptrs;
    for (std::size_t i = 0; i < cfg.numCores; ++i) {
        drivers.push_back(std::make_unique<McSlotsDriver>(
            machine.context(i), base, streams[i], result.commitLog));
        ptrs.push_back(drivers.back().get());
    }

    const std::uint64_t stores_before = machine.storesExecuted();
    if (crash_after_stores > 0)
        machine.armCrashAfterStores(crash_after_stores);
    const McScheduleResult run =
        runInterleaved(machine, ptrs, cfg.sched);
    machine.armCrashAfterStores(0);

    result.crashed = run.crashed;
    result.quanta = run.quanta;
    result.storesExecuted = machine.storesExecuted() - stores_before;

    // A crashed machine recovers (undo replay rolls in-flight groups
    // back); a clean one quiesces so lazy/dirty data reaches PM. Both
    // leave the region's durable bytes equal to the commit log's
    // last-writer-wins image.
    if (result.crashed)
        machine.recover();
    else
        machine.quiesce();

    result.image.resize(cfg.numSlots * cacheLineSize);
    machine.pm().peek(base, result.image.data(), result.image.size());
    result.stats = machine.snapshot();
    return result;
}

std::vector<std::uint8_t>
serialSlotsImage(const McSlotsConfig &cfg,
                 const std::vector<McSlotGroup> &commit_log)
{
    SystemConfig sys_cfg = cfg.sys;
    sys_cfg.numCores = 1;

    PmSystem sys(sys_cfg);
    const Addr base = allocSlotRegion(sys.heap(), cfg.numSlots);
    for (const auto &grp : commit_log) {
        sys.txBegin();
        for (const auto &w : grp.writes)
            sys.write<std::uint64_t>(base + w.slot * cacheLineSize,
                                     w.value);
        sys.txCommit();
    }
    sys.quiesce();

    std::vector<std::uint8_t> image(cfg.numSlots * cacheLineSize);
    sys.peekBytes(base, image.data(), image.size());
    return image;
}

} // namespace slpmt
