#include "validate/crash_explorer.hh"

#include <memory>
#include <optional>

#include "checkpoint/checkpoint.hh"
#include "workloads/factory.hh"

namespace slpmt
{
namespace
{

SystemConfig
systemFor(const CrashSweepConfig &cfg)
{
    SystemConfig sc;
    applySweepOptions(sc, cfg);
    return sc;
}

/**
 * Apply one trace op, updating the oracle only when the structure
 * reports the op took effect (removes/updates of absent keys and
 * unsupported removes run no transaction).
 */
void
applyOp(PmSystem &sys, Workload &wl, const YcsbMixedOp &op,
        Shadow &shadow)
{
    switch (op.kind) {
      case YcsbOpKind::Insert:
        wl.insert(sys, op.key, op.value);
        shadow[op.key] = op.value;
        break;
      case YcsbOpKind::Update:
        if (wl.update(sys, op.key, op.value))
            shadow[op.key] = op.value;
        break;
      case YcsbOpKind::Remove:
        if (wl.remove(sys, op.key))
            shadow.erase(op.key);
        break;
    }
}

/** A base at a trace-op boundary: the machine, the workload roots,
 *  the shadow so far and the first op not yet applied. */
struct CoreBase final : SweepBase
{
    CoreBase(PmSystem &sys, const Workload &wl, const Shadow &shadow,
             std::size_t next_op)
        : machine(MachineCheckpoint::capture(sys)), workload(wl.clone()),
          shadow(shadow), nextOp(next_op)
    {}

    const MachineCheckpoint machine;
    const std::unique_ptr<const Workload> workload;
    const Shadow shadow;
    const std::size_t nextOp;
};

class CoreTarget final : public SweepTarget
{
  public:
    explicit CoreTarget(const CrashSweepConfig &cfg)
        : SweepTarget(identity(cfg),
                      cfg.mix.seed ^ 0xc5a5c5a5c5a5c5a5ULL),
          cfg(cfg), trace(ycsbMixedLoad(cfg.mix)), keys(runKeySet(trace))
    {}

    std::uint64_t runMaster(MasterSink &sink) override;
    std::unique_ptr<SweepPoint> newPoint() const override;

    const CrashSweepConfig &cfg;
    const std::vector<YcsbMixedOp> trace;

    /** Every key the trace touches, ascending. */
    const std::vector<std::uint64_t> keys;

  private:
    static SweepIdentity
    identity(const CrashSweepConfig &cfg)
    {
        SweepIdentity id =
            sweepIdentity("crash-sweep", cfg, cfg.workload, cfg.mix.seed);
        id.opsKey = "trace_ops";
        return id;
    }
};

/** The boundary before every trace op is a fork base candidate. */
std::uint64_t
CoreTarget::runMaster(MasterSink &sink)
{
    PmSystem sys(systemFor(cfg));
    auto wl = makeWorkload(cfg.workload);
    wl->setup(sys);
    const std::uint64_t start = sys.engine().storesExecuted();

    Shadow shadow;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const std::uint64_t stores = sys.engine().storesExecuted() - start;
        sink.boundary(stores, sink.wantsBase(stores)
                                  ? std::make_unique<CoreBase>(
                                        sys, *wl, shadow, i)
                                  : nullptr);
        applyOp(sys, *wl, trace[i], shadow);
    }
    return sys.engine().storesExecuted() - start;
}

/** One machine walking the trace from a base (or from setup), or a
 *  point forked from one. */
class CorePoint final : public SweepPoint
{
  public:
    explicit CorePoint(const CoreTarget &target) : target(target) {}

    void
    restore(const SweepBase *from) override
    {
        const auto *base = static_cast<const CoreBase *>(from);
        // A walk with no base is the from-scratch reference: it runs on
        // a fresh machine.
        if (!base || !machine)
            machine.emplace(systemFor(target.cfg));
        if (base) {
            base->machine.restore(*machine);
            wl = base->workload->clone();
            shadow = base->shadow;
            nextOp = base->nextOp;
            startStores = base->storesAt;
        } else {
            wl = makeWorkload(target.cfg.workload);
            wl->setup(*machine);
            shadow.clear();
            nextOp = 0;
            startStores = 0;
        }
    }

    bool
    walk(SweepWalk &walk) override
    {
        walk.enter(machine->countdown(), startStores);
        for (; nextOp < target.trace.size(); ++nextOp) {
            try {
                applyOp(*machine, *wl, target.trace[nextOp], shadow);
            } catch (const CrashInjected &) {
                return true;
            }
        }
        return false;
    }

    void
    forkFrom(SweepPoint &from) override
    {
        auto &walker = static_cast<CorePoint &>(from);
        if (!machine)
            machine.emplace(systemFor(target.cfg));
        MachineCheckpoint::capture(*walker.machine).restore(*machine);
        wl = walker.wl->clone();
        shadow = walker.shadow;
        nextOp = walker.nextOp;
    }

    void
    progress(CrashPointOutcome &out) const override
    {
        out.committedOps = nextOp;
    }

    void
    forEachMachine(const std::function<void(McMachine &)> &fn) override
    {
        fn(*machine);
    }

    /** Either stage may be skipped by the config's fault injection. */
    std::size_t
    recover() override
    {
        const std::size_t replayed =
            target.cfg.skipHardwareReplay ? 0 : machine->recoverHardware();
        if (!target.cfg.skipUserRecovery)
            wl->recover(*machine);
        return replayed;
    }

    /** Trace keys the shadow lacks must NOT be visible: removed keys
     *  and the interrupted op's fresh insert. */
    void
    check(OracleLines &lines) override
    {
        verifyStructure({*machine, *wl}, shadow, lines,
                        {target.keys, "uncommitted or removed"});
    }

    void
    continueRun(std::size_t ops) override
    {
        insertContinuation(*wl, shadow, target.cfg.mix.seed, crashPoint,
                           ops, target.cfg.mix.valueBytes,
                           [&](std::size_t) -> PmContext & {
                               return *machine;
                           });
    }

    void checkContinuation(OracleLines &lines) override { check(lines); }

    void
    statNames(std::vector<std::string> &names) const override
    {
        flatNames(machine->stats(), names);
    }

    void
    stats(std::vector<std::uint64_t> &values) const override
    {
        flatValues(machine->stats(), values);
    }

  private:
    const CoreTarget &target;
    std::optional<PmSystem> machine;  //!< built on first use
    std::unique_ptr<Workload> wl;
    Shadow shadow;
    std::size_t nextOp = 0;  //!< the first trace op not yet completed
    std::uint64_t startStores = 0;  //!< run stores at the walk's base
};

std::unique_ptr<SweepPoint>
CoreTarget::newPoint() const
{
    return std::make_unique<CorePoint>(*this);
}

} // namespace

std::uint64_t
countTraceStores(const CrashSweepConfig &cfg)
{
    CoreTarget target(cfg);
    return countStores(target);
}

CrashPointOutcome
runCrashPoint(const CrashSweepConfig &cfg, std::uint64_t crash_point)
{
    const CoreTarget target(cfg);
    return runSweepPoint(target, crash_point);
}

CrashSweepReport
runCrashSweep(const CrashSweepConfig &cfg)
{
    CoreTarget target(cfg);
    CrashSweepReport report = runSweep(target, cfg);
    report.traceOps = target.trace.size();
    return report;
}

} // namespace slpmt
