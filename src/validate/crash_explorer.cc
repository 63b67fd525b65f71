#include "validate/crash_explorer.hh"

#include <memory>

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
    std::unique_ptr<SweepPoint>
    fork(const SweepBase *base, std::uint64_t crash_point) const override;

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

/** One machine replaying the trace from a base (or from setup). */
class CorePoint final : public SweepPoint
{
  public:
    CorePoint(const CoreTarget &target, const CoreBase *base,
              std::uint64_t crash_point)
        : target(target), sys(systemFor(target.cfg)),
          crashPoint(crash_point)
    {
        if (base) {
            base->machine.restore(sys);
            wl = base->workload->clone();
            shadow = base->shadow;
            nextOp = base->nextOp;
            armStores = crash_point > 0 ? crash_point - base->storesAt : 0;
        } else {
            wl = makeWorkload(target.cfg.workload);
            wl->setup(sys);
            armStores = crash_point;
        }
    }

    bool
    tail(CrashPointOutcome &out) override
    {
        out.committedOps = nextOp;
        if (armStores > 0)
            sys.armCrashAfterStores(armStores);
        for (std::size_t i = nextOp; i < target.trace.size(); ++i) {
            try {
                applyOp(sys, *wl, target.trace[i], shadow);
            } catch (const CrashInjected &) {
                out.fired = true;
                break;
            }
            ++out.committedOps;
        }
        sys.armCrashAfterStores(0);

        // A point past the last store (or the explicit post-completion
        // point 0): power off after the trace, with any lazily
        // persistent data still volatile in the caches.
        if (!out.fired)
            sys.crash();
        return true;
    }

    /** Either stage may be skipped by the config's fault injection. */
    std::size_t
    recover() override
    {
        const std::size_t replayed =
            target.cfg.skipHardwareReplay ? 0 : sys.recoverHardware();
        if (!target.cfg.skipUserRecovery)
            wl->recover(sys);
        return replayed;
    }

    /** Trace keys the shadow lacks must NOT be visible: removed keys
     *  and the interrupted op's fresh insert. */
    void
    check(OracleLines &lines) override
    {
        checkShadow(sys, *wl, shadow, target.keys,
                    "uncommitted or removed", lines);
    }

    void
    continueRun(std::size_t ops, OracleLines &lines) override
    {
        insertContinuation(*wl, shadow, target.cfg.mix.seed, crashPoint,
                           ops, target.cfg.mix.valueBytes,
                           [&](std::size_t) -> PmContext & { return sys; });
        check(lines);
    }

    void
    statNames(std::vector<std::string> &names) const override
    {
        flatNames(sys.stats(), names);
    }

    void
    stats(std::vector<std::uint64_t> &values) const override
    {
        flatValues(sys.stats(), values);
    }

  private:
    const CoreTarget &target;
    PmSystem sys;
    const std::uint64_t crashPoint;
    std::unique_ptr<Workload> wl;
    Shadow shadow;
    std::size_t nextOp = 0;
    std::uint64_t armStores = 0;
};

std::unique_ptr<SweepPoint>
CoreTarget::fork(const SweepBase *base, std::uint64_t crash_point) const
{
    return std::make_unique<CorePoint>(
        *this, static_cast<const CoreBase *>(base), crash_point);
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
    return CoreTarget(cfg).runPoint(nullptr, crash_point);
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
