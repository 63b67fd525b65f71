/**
 * @file
 * Experiment runner: scheme x workload x parameters -> metrics.
 *
 * Reproduces the paper's measurement methodology: build the simulated
 * machine for a scheme, set the structure up, then run the ycsb-load
 * insert phase and report the cycles and PM write traffic of exactly
 * that phase (setup excluded; lazily persistent data that is still in
 * the cache at the end is *not* force-flushed — leaving it volatile
 * is the point of lazy persistency). Afterwards the runner verifies
 * every inserted pair and the structure invariants, outside the
 * measured window.
 */

#ifndef SLPMT_SIM_EXPERIMENT_HH
#define SLPMT_SIM_EXPERIMENT_HH

#include <string>

#include "compiler/compiler_policy.hh"
#include "core/pm_system.hh"
#include "workloads/factory.hh"
#include "workloads/ycsb.hh"

namespace slpmt
{

/** Which annotation source drives storeT emission. */
enum class AnnotationMode : std::uint8_t
{
    None,      //!< plain stores only
    Manual,    //!< programmer annotations (default, Section VI-A)
    Compiler,  //!< the automatic pass (Figure 13)
};

/** All knobs of one experiment run. */
struct ExperimentConfig
{
    SchemeKind scheme = SchemeKind::SLPMT;
    LoggingStyle style = LoggingStyle::Undo;
    AnnotationMode annotations = AnnotationMode::Manual;
    YcsbConfig ycsb;
    std::uint64_t pmWriteLatencyNs = 500;  //!< Figure 12 sweep knob
    bool speculativeRounding = false;      //!< Section III-B1 ablation
    std::uint8_t numTxnIds = 4;            //!< lazy-depth ablation

    /** @name Multicore cells (src/multicore/) */
    /** @{ */
    /** Cores of the simulated machine. > 1 runs the interleaved
     *  per-core upsert driver; 1 runs one structure's insert phase. */
    std::size_t numCores = 1;

    /** Force the interleaved driver even at numCores == 1 so scaling
     *  sweeps measure their 1-core baseline with the same scheduler
     *  and workload layer as the scaled cells. */
    bool mcDriver = false;
    /** @} */

    /** @name Sharded service cells (src/service/) */
    /** @{ */
    /**
     * Knobs of the sharded KV service harness. shards > 0 turns the
     * cell into a service run: numOps requests from the seeded YCSB
     * load generator routed over that many McMachine shards (each
     * with numCores cores), instead of the single-structure drivers.
     * ycsb.numOps/valueBytes/seed double as the request count, the
     * value-size maximum and the generator seed.
     */
    struct ServiceParams
    {
        std::size_t shards = 0;  //!< 0 = not a service cell

        /** YCSB core mix index: 0..5 = A..F. */
        unsigned mix = 0;

        /** Zipfian request skew (uniform otherwise). */
        bool zipfian = false;

        /** Zipfian theta in basis points (9900 = 0.99). */
        unsigned zipfThetaBp = 9900;

        /** Distinct-key universe inserts draw from. */
        std::size_t keySpace = std::size_t{1} << 20;

        /** Records inserted before the measured request stream. */
        std::size_t preloadRecords = 2000;

        /** Smallest value payload; 0 = fixed at ycsb.valueBytes. */
        std::size_t valueBytesMin = 0;

        /** Requests between hot-set rotations; 0 = no churn. */
        std::size_t churnInterval = 0;
    };
    ServiceParams service;
    /** @} */
};

/** Metrics of the measured insert phase plus verification outcome. */
struct ExperimentResult
{
    std::string workload;
    SchemeKind scheme = SchemeKind::SLPMT;
    Cycles cycles = 0;          //!< insert-phase core cycles
    Bytes pmWriteBytes = 0;     //!< total PM write traffic
    Bytes pmDataBytes = 0;      //!< data-line portion
    Bytes pmLogBytes = 0;       //!< log-record portion
    std::uint64_t commits = 0;
    std::uint64_t logRecords = 0;
    bool verified = false;      //!< lookups + invariants passed
    std::string failure;        //!< diagnostic when !verified

    /** Full flattened stats delta of the measured window. */
    StatsSnapshot stats;

    double
    speedupOver(const ExperimentResult &base) const
    {
        return cycles ? static_cast<double>(base.cycles) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Write-traffic reduction relative to @p base (paper metric). */
    double
    trafficReductionOver(const ExperimentResult &base) const
    {
        if (base.pmWriteBytes == 0)
            return 0.0;
        return 1.0 - static_cast<double>(pmWriteBytes) /
                         static_cast<double>(base.pmWriteBytes);
    }
};

/** Run one experiment to completion. */
ExperimentResult runExperiment(const std::string &workload_name,
                               const ExperimentConfig &cfg);

/**
 * Record a measured-window delta as @p result's stats and fill the
 * headline totals from it. A counter appears under its plain name
 * (single-core and shared-device registries) or under a dotted prefix
 * ("coreN.", "shardN.", "shardN.coreM."); summing exact and
 * ".name"-suffixed matches covers every machine shape.
 */
void fillTotals(ExperimentResult &result, const StatsSnapshot &delta);

} // namespace slpmt

#endif // SLPMT_SIM_EXPERIMENT_HH
