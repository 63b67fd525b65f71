#include "sim/experiment.hh"

#include <algorithm>

#include "multicore/mc_ycsb.hh"
#include "service/service.hh"

namespace slpmt
{

namespace
{

/** The machine an experiment cell runs on (numCores is set by the
 *  driver that builds the machine). */
SystemConfig
systemConfigFor(const ExperimentConfig &cfg)
{
    SystemConfig sys;
    sys.scheme = SchemeConfig::forKind(cfg.scheme);
    sys.scheme.speculativeRounding = cfg.speculativeRounding;
    sys.scheme.numTxnIds = cfg.numTxnIds;
    sys.style = cfg.style;
    sys.pm.writeLatencyNs = cfg.pmWriteLatencyNs;
    return sys;
}

const AnnotationPolicy *
policyFor(AnnotationMode mode)
{
    static const NullAnnotationPolicy null_policy;
    static const ManualAnnotationPolicy manual_policy;
    static const CompilerAnnotationPolicy compiler_policy;
    switch (mode) {
      case AnnotationMode::None:
        return &null_policy;
      case AnnotationMode::Manual:
        return &manual_policy;
      case AnnotationMode::Compiler:
        return &compiler_policy;
    }
    return &manual_policy;
}

/**
 * A multicore YCSB cell: cfg.numCores cores, cfg.ycsb.numOps total
 * ops split across them. Cycles is the makespan.
 */
ExperimentResult
runMcExperiment(const std::string &workload_name,
                const ExperimentConfig &cfg)
{
    McYcsbConfig mc;
    mc.workload = workload_name;
    mc.numCores = cfg.numCores ? cfg.numCores : 1;
    mc.opsPerCore =
        std::max<std::size_t>(1, cfg.ycsb.numOps / mc.numCores);
    mc.valueBytes = cfg.ycsb.valueBytes;
    mc.seed = cfg.ycsb.seed;
    mc.sched.seed = cfg.ycsb.seed;
    mc.sys = systemConfigFor(cfg);
    mc.policy = policyFor(cfg.annotations);

    const McYcsbResult run = runMcYcsb(mc);

    ExperimentResult result;
    result.workload = workload_name;
    result.scheme = cfg.scheme;
    result.cycles = run.makespan;
    fillTotals(result,
               StatsRegistry::delta(run.statsBefore, run.statsAfter));
    result.verified = run.verified;
    result.failure = run.failure;
    return result;
}

/**
 * A service cell: cfg.service.* knobs, cfg.ycsb.numOps requests,
 * cfg.numCores cores per shard. Cycles is the service makespan.
 */
ExperimentResult
runServiceExperiment(const std::string &workload_name,
                     const ExperimentConfig &cfg)
{
    ServiceConfig svc;
    svc.workload = workload_name;
    svc.numShards = cfg.service.shards;
    svc.coresPerShard = std::max<std::size_t>(1, cfg.numCores);

    svc.load.mix = static_cast<YcsbMix>(cfg.service.mix);
    svc.load.skew = cfg.service.zipfian ? KeySkew::Zipfian
                                        : KeySkew::Uniform;
    svc.load.zipfThetaBp = cfg.service.zipfThetaBp;
    svc.load.keySpace = cfg.service.keySpace;
    svc.load.preloadRecords = cfg.service.preloadRecords;
    svc.load.numOps = cfg.ycsb.numOps;
    svc.load.valueBytesMax = cfg.ycsb.valueBytes;
    svc.load.valueBytesMin = cfg.service.valueBytesMin
                                 ? cfg.service.valueBytesMin
                                 : cfg.ycsb.valueBytes;
    svc.load.churnInterval = cfg.service.churnInterval;
    svc.load.seed = cfg.ycsb.seed;

    svc.sched.seed = cfg.ycsb.seed;
    svc.sys = systemConfigFor(cfg);
    svc.policy = policyFor(cfg.annotations);

    const KvServiceResult run = runService(svc);

    ExperimentResult result;
    result.workload = workload_name;
    result.scheme = cfg.scheme;
    result.cycles = run.makespan;
    fillTotals(result, run.stats);
    result.verified = run.verified;
    result.failure = run.failure;
    return result;
}

} // namespace

void
fillTotals(ExperimentResult &result, const StatsSnapshot &delta)
{
    auto sum = [&](const std::string &name) {
        const std::string dotted = "." + name;
        std::uint64_t total = 0;
        for (const auto &[key, value] : delta)
            if (key == name || key.ends_with(dotted))
                total += value;
        return total;
    };
    result.pmWriteBytes = sum("pm.bytesWritten");
    result.pmDataBytes = sum("pm.dataBytesWritten");
    result.pmLogBytes = sum("pm.logBytesWritten");
    result.commits = sum("txn.committed");
    result.logRecords = sum("txn.logRecordsCreated");
    result.stats = delta;
}

ExperimentResult
runExperiment(const std::string &workload_name,
              const ExperimentConfig &cfg)
{
    // Service cells route the generated request stream over shard
    // machines (src/service/).
    if (cfg.service.shards > 0)
        return runServiceExperiment(workload_name, cfg);

    // The interleaved driver runs per-core upsert streams under the
    // scheduler; mcDriver selects it even for one core so scaling
    // baselines share the scheduler and workload layer of the scaled
    // cells. Every other cell runs one structure's insert phase.
    if (cfg.numCores > 1 || cfg.mcDriver)
        return runMcExperiment(workload_name, cfg);

    PmSystem sys(systemConfigFor(cfg));
    sys.setAnnotationPolicy(policyFor(cfg.annotations));
    auto workload = makeWorkload(workload_name);
    workload->setup(sys);

    const auto ops = ycsbLoad(cfg.ycsb);

    // Measured window: the insert phase only.
    const Cycles cycles_before = sys.cycles();
    const StatsSnapshot before = sys.stats().snapshot();
    for (const auto &op : ops)
        workload->insert(sys, op.key, op.value);
    const StatsSnapshot after = sys.stats().snapshot();

    ExperimentResult result;
    result.workload = workload_name;
    result.scheme = cfg.scheme;
    result.cycles = sys.cycles() - cycles_before;
    fillTotals(result, StatsRegistry::delta(before, after));

    // Verification phase (outside the measured window).
    result.verified = true;
    std::string why;
    if (!workload->checkConsistency(sys, &why)) {
        result.verified = false;
        result.failure = "consistency: " + why;
        return result;
    }
    std::vector<std::uint8_t> got;
    for (const auto &op : ops) {
        if (!workload->lookup(sys, op.key, &got) || got != op.value) {
            result.verified = false;
            result.failure = "lookup mismatch";
            return result;
        }
    }
    if (workload->count(sys) != ops.size()) {
        result.verified = false;
        result.failure = "count mismatch";
    }
    return result;
}

} // namespace slpmt
