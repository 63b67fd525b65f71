/**
 * @file
 * PmSystem: the top-level facade a program (or workload) uses.
 *
 * PmSystem is the one-core McMachine (src/multicore/machine.hh): the
 * machine owns the PM and DRAM devices, the shared L3, the persistent
 * heap and the store-site registry, and core 0 owns the private
 * hierarchy and the transaction engine. The facade holds no state of
 * its own. It forwards the PmContext program surface to core 0 and
 * adds the single-core accessors programs, tests and benches use:
 * engine(), hierarchy(), stats(), tracker() and recoverHardware().
 */

#ifndef SLPMT_CORE_PM_SYSTEM_HH
#define SLPMT_CORE_PM_SYSTEM_HH

#include <string>

#include "core/pm_context.hh"
#include "core/system_config.hh"
#include "multicore/machine.hh"

namespace slpmt
{

/**
 * Read-only statistics of a one-core machine under the single-core
 * names: core 0's registry and the machine's shared registry merged
 * without "core0." prefixes, minus the multicore.* directory counters.
 */
class SingleCoreStats
{
  public:
    explicit SingleCoreStats(const McMachine &machine) : machine(machine) {}

    /** Walk every flattened value (StatsRegistry::forEachFlat): core
     *  0's, then the shared ones outside multicore.*. */
    template <typename Fn>
    void
    forEachFlat(Fn &&fn) const
    {
        machine.core(0).stats().forEachFlat(fn);
        machine.sharedStats().forEachFlat(
            [&](const StatsRegistry::FlatStat &f) {
                if (!f.name.starts_with("multicore."))
                    fn(f);
            });
    }

    StatsSnapshot snapshot() const { return flatSnapshot(*this); }

    /** Read one flattened value (0 if it was never registered). */
    std::uint64_t
    get(const std::string &name) const
    {
        const StatsSnapshot snap = snapshot();
        auto it = snap.find(name);
        return it == snap.end() ? 0 : it->second;
    }

  private:
    const McMachine &machine;
};

/** The simulated single-core machine. */
class PmSystem : public McMachine, public PmContext
{
  public:
    explicit PmSystem(const SystemConfig &cfg = SystemConfig{})
        : McMachine(cfg)
    {
        panicIfNot(numCores() == 1,
                   "PmSystem is the one-core machine; build an "
                   "McMachine for numCores > 1");
    }

    /** @name Core 0's components */
    /** @{ */
    TxnEngine &engine() { return core(0).engine(); }
    CacheHierarchy &hierarchy() { return core(0).hierarchy(); }
    SingleCoreStats stats() const { return SingleCoreStats(*this); }
    /** @} */

    /** @name Transaction control */
    /** @{ */
    void txBegin() override { core(0).txBegin(); }
    void txCommit() override { core(0).txCommit(); }
    void txAbort() override { core(0).txAbort(); }
    bool inTransaction() const override { return core(0).inTransaction(); }
    std::uint64_t currentTxnSeq() const override
    {
        return core(0).currentTxnSeq();
    }
    /** @} */

    /** @name Byte data path */
    /** @{ */
    void
    readBytes(Addr addr, void *out, std::size_t len) override
    {
        core(0).readBytes(addr, out, len);
    }

    void
    writeBytes(Addr addr, const void *src, std::size_t len) override
    {
        core(0).writeBytes(addr, src, len);
    }

    void
    writeBytesT(Addr addr, const void *src, std::size_t len,
                StoreFlags flags) override
    {
        core(0).writeBytesT(addr, src, len, flags);
    }

    void
    writeBytesSite(Addr addr, const void *src, std::size_t len,
                   SiteId site) override
    {
        core(0).writeBytesSite(addr, src, len, site);
    }

    /** Untimed durable-image read (recovery code). */
    void
    peekBytes(Addr addr, void *out, std::size_t len) const override
    {
        core(0).peekBytes(addr, out, len);
    }
    /** @} */

    /** @name Shared machine components */
    /** @{ */
    PersistentHeap &heap() override { return McMachine::heap(); }
    StoreSiteRegistry &sites() override { return McMachine::sites(); }
    const AddressMap &map() const override { return McMachine::map(); }
    /** @} */

    /** @name Time and recovery */
    /** @{ */
    Cycles cycles() const override { return core(0).cycles(); }
    void compute(Cycles c) override { core(0).compute(c); }
    void quiesce() override { McMachine::quiesce(); }

    /** Hardware log replay; returns records applied. */
    std::size_t recoverHardware() { return recover(); }
    /** @} */
};

} // namespace slpmt

#endif // SLPMT_CORE_PM_SYSTEM_HH
