#include "checkpoint/checkpoint.hh"

namespace slpmt
{

bool
MachineCheckpoint::Image::operator==(const Image &other) const
{
    if (pages.size() != other.pages.size())
        return false;
    for (const auto &[num, page] : pages) {
        const auto it = other.pages.find(num);
        if (it == other.pages.end() ||
            (page != it->second && *page != *it->second))
            return false;
    }
    return true;
}

MachineCheckpoint
MachineCheckpoint::capture(McMachine &machine)
{
    MachineCheckpoint ckpt;
    ckpt.config = machine.cfg();
    ckpt.seqCounter = machine.sharedSeqCounter();
    ckpt.crashCountdown = machine.sharedCrashCountdown();
    ckpt.sharedStats = machine.sharedStats().state();
    ckpt.sites = machine.sites();
    ckpt.heap = machine.heap().state();
    ckpt.pm = machine.pm().state();
    ckpt.dram = machine.dram().state();
    ckpt.l3 = machine.l3().state();
    ckpt.cores.reserve(machine.numCores());
    for (std::size_t i = 0; i < machine.numCores(); ++i) {
        McCore &core = machine.core(i);
        ckpt.cores.push_back({core.stats().state(),
                              core.hierarchy().l1().state(),
                              core.hierarchy().l2().state(),
                              core.engine().state()});
    }
    ckpt.pmPages.pages = machine.pm().memory().snapshot();
    ckpt.dramPages.pages = machine.dram().memory().snapshot();
    return ckpt;
}

void
MachineCheckpoint::restore(McMachine &machine) const
{
    if (config != machine.cfg())
        throw CheckpointError("machine configuration mismatch");

    machine.setSharedSeqCounter(seqCounter);
    machine.armCrashAfterStores(crashCountdown);
    machine.sharedStats().restore(sharedStats);
    machine.sites() = sites;
    machine.heap().restore(heap);
    machine.pm().restore(pm);
    machine.dram().restore(dram);
    machine.l3().restore(l3);
    for (std::size_t i = 0; i < cores.size(); ++i) {
        McCore &core = machine.core(i);
        core.stats().restore(cores[i].stats);
        core.hierarchy().l1().restore(cores[i].l1);
        core.hierarchy().l2().restore(cores[i].l2);
        core.engine().restore(cores[i].engine);
    }
    machine.pm().memory().restore(pmPages.pages);
    machine.dram().memory().restore(dramPages.pages);
}

} // namespace slpmt
