/**
 * @file
 * crash_sweep: CLI driver for the crash-sweep engine on every target.
 *
 * Sweeps schemes x workloads (x core or shard counts) over
 * systematically enumerated power-failure points, validates recovery
 * at every point against the target's oracle, prints one summary per
 * sweep and optionally a JSON report. Exit status is the number of
 * sweeps that found violations (0 = clean); usage errors exit 2.
 *
 * Typical runs:
 *   crash_sweep                             # sampled core sweep
 *   crash_sweep --full --workers=8          # every store, parallel
 *   crash_sweep --target=mc --cores=4       # interleaved multicore
 *   crash_sweep --target=service --shards=4 --tiny-cache
 *   crash_sweep --scheme=SLPMT --workload=hashtable --seed=42 \
 *               --crash-point=117           # reproduce one tuple
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "multicore/mc_crash.hh"
#include "service/service_crash.hh"
#include "validate/crash_explorer.hh"
#include "workloads/factory.hh"

namespace
{

using namespace slpmt;

enum class Target
{
    Core,
    Mc,
    Service
};

struct CliOptions
{
    Target target = Target::Core;
    std::vector<std::string> schemes = {"SLPMT", "FG"};
    std::vector<std::string> workloads;  //!< empty: the target's default
    LoggingStyle style = LoggingStyle::Undo;
    std::size_t numOps = 60;
    std::size_t valueBytes = 32;
    std::uint64_t seed = 42;
    unsigned insertPct = 80;
    unsigned updatePct = 12;
    unsigned removePct = 8;
    std::vector<std::size_t> coreCounts = {2, 4};
    std::size_t opsPerCore = 24;
    unsigned sharedPct = 25;
    std::vector<std::size_t> shardCounts = {2};
    std::optional<std::size_t> maxPoints;  //!< unset: the target's default
    bool full = false;
    std::size_t workers = 0;  //!< 0 on the command line: all cores
    bool tinyCache = false;
    std::string jsonPath;
    long long crashPoint = -1;  //!< >= 0: reproduce a single point
    bool useCheckpoints = true;
    std::optional<std::size_t> checkpointInterval;
};

/** One sweep of the matrix. */
struct Cell
{
    std::string scheme;
    std::string workload;
    std::size_t shape = 0;  //!< cores (mc) or shards (service)
};

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::size_t end = comma == std::string::npos ? s.size()
                                                           : comma;
        if (end > pos)
            out.push_back(s.substr(pos, end - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

[[noreturn]] void
badValue(const std::string &arg, const char *why)
{
    std::fprintf(stderr, "bad %s: %s\n", arg.c_str(), why);
    std::exit(2);
}

/** @p text as a whole number; a usage error (naming @p arg) when it
 *  is anything else. */
std::uint64_t
wholeNumber(const std::string &text, const std::string &arg)
{
    errno = 0;
    const std::uint64_t v = std::strtoull(text.c_str(), nullptr, 10);
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        errno == ERANGE)
        badValue(arg, "not a whole number");
    return v;
}

std::vector<std::size_t>
splitCounts(const std::string &s, const std::string &arg)
{
    std::vector<std::size_t> out;
    for (const auto &part : splitList(s))
        out.push_back(wholeNumber(part, arg));
    return out;
}

/** Core or shard counts: each must be at least 1, and a core count at
 *  most 16 (McMachine's limit). */
std::vector<std::size_t>
splitShapes(const std::string &s, const std::string &arg, bool cores)
{
    std::vector<std::size_t> out = splitCounts(s, arg);
    if (out.empty() || std::find(out.begin(), out.end(), 0u) != out.end())
        badValue(arg, "core and shard counts must be >= 1");
    if (cores && *std::max_element(out.begin(), out.end()) > 16)
        badValue(arg, "a machine has at most 16 cores");
    return out;
}

SchemeKind
parseScheme(const std::string &name)
{
    static const std::vector<SchemeKind> kinds = {
        SchemeKind::FG,    SchemeKind::FG_LG,    SchemeKind::FG_LZ,
        SchemeKind::SLPMT, SchemeKind::SLPMT_CL, SchemeKind::ATOM,
        SchemeKind::EDE,
    };
    for (SchemeKind kind : kinds) {
        if (schemeName(kind) == name)
            return kind;
    }
    std::fprintf(stderr, "unknown scheme: %s\n", name.c_str());
    std::exit(2);
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: crash_sweep [options]\n"
        "  --target=core|mc|service  what to crash (default core)\n"
        "  --scheme=A,B       schemes to sweep (default SLPMT,FG)\n"
        "  --workload=A,B     workloads (default hashtable,rbtree for "
        "core, hashtable otherwise)\n"
        "  --style=undo|redo  logging style (default undo)\n"
        "  --ops=N            core: trace length; service: requests "
        "(default 60)\n"
        "  --value-bytes=N    core, mc: value size (default 32)\n"
        "  --seed=N           trace / interleaving / load seed "
        "(default 42)\n"
        "  --mix=I,U,R        core: insert/update/remove %% (default "
        "80,12,8)\n"
        "  --cores=A,B        mc: core counts (default 2,4)\n"
        "  --ops-per-core=N   mc: ops per core (default 24)\n"
        "  --shared-pct=N     mc: shared-key op %% (default 25)\n"
        "  --shards=A,B       service: shard counts (default 2)\n"
        "  --max-points=N     sampled point budget (default 200 for "
        "core, 120 otherwise)\n"
        "  --full             explore every store (overrides budget)\n"
        "  --workers=N        sweep threads, this one included "
        "(default: all cores; 1 = serial)\n"
        "  --tiny-cache       shrink caches so dirty lines overflow\n"
        "                     mid-txn (exercises log replay)\n"
        "  --json=PATH        write the JSON report to PATH (with "
        "each sweep's host ms per point step)\n"
        "  --crash-point=K    reproduce one point (single sweep); K=0 "
        "is the post-completion point\n"
        "  --checkpoint-interval=N  stores between master-run "
        "checkpoints (default 64; service 256)\n"
        "  --no-checkpoint    audit mode: re-run every point from "
        "scratch (O(P*T))\n");
}

[[noreturn]] void
usageError()
{
    usage();
    std::exit(2);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto val = [&](const char *flag) -> const char * {
            const std::size_t n = std::strlen(flag);
            if (arg.compare(0, n, flag) == 0 && arg[n] == '=')
                return arg.c_str() + n + 1;
            return nullptr;
        };
        auto whole = [&](const char *v) { return wholeNumber(v, arg); };
        if (const char *v = val("--target")) {
            const std::string t = v;
            if (t == "core")
                opt.target = Target::Core;
            else if (t == "mc")
                opt.target = Target::Mc;
            else if (t == "service")
                opt.target = Target::Service;
            else
                usageError();
        } else if (const char *v = val("--scheme")) {
            opt.schemes = splitList(v);
        } else if (const char *v = val("--workload")) {
            opt.workloads = splitList(v);
        } else if (const char *v = val("--style")) {
            if (std::string(v) == "redo")
                opt.style = LoggingStyle::Redo;
            else if (std::string(v) == "undo")
                opt.style = LoggingStyle::Undo;
            else
                usageError();
        } else if (const char *v = val("--ops")) {
            opt.numOps = whole(v);
        } else if (const char *v = val("--value-bytes")) {
            opt.valueBytes = whole(v);
        } else if (const char *v = val("--seed")) {
            opt.seed = whole(v);
        } else if (const char *v = val("--mix")) {
            const auto parts = splitCounts(v, arg);
            if (parts.size() != 3)
                usageError();
            if (parts[0] + parts[1] + parts[2] != 100)
                badValue(arg, "the mix must sum to 100");
            opt.insertPct = static_cast<unsigned>(parts[0]);
            opt.updatePct = static_cast<unsigned>(parts[1]);
            opt.removePct = static_cast<unsigned>(parts[2]);
        } else if (const char *v = val("--cores")) {
            opt.coreCounts = splitShapes(v, arg, true);
        } else if (const char *v = val("--ops-per-core")) {
            opt.opsPerCore = whole(v);
        } else if (const char *v = val("--shared-pct")) {
            opt.sharedPct = static_cast<unsigned>(whole(v));
        } else if (const char *v = val("--shards")) {
            opt.shardCounts = splitShapes(v, arg, false);
        } else if (const char *v = val("--max-points")) {
            opt.maxPoints = whole(v);
        } else if (arg == "--full") {
            opt.full = true;
        } else if (const char *v = val("--workers")) {
            opt.workers = whole(v);
        } else if (arg == "--tiny-cache") {
            opt.tinyCache = true;
        } else if (const char *v = val("--json")) {
            opt.jsonPath = v;
        } else if (const char *v = val("--crash-point")) {
            opt.crashPoint = static_cast<long long>(whole(v));
        } else if (const char *v = val("--checkpoint-interval")) {
            opt.checkpointInterval = whole(v);
        } else if (arg == "--no-checkpoint") {
            opt.useCheckpoints = false;
        } else {
            usage();
            std::exit(arg == "--help" ? 0 : 2);
        }
    }
    if (opt.workloads.empty()) {
        opt.workloads = {"hashtable"};
        if (opt.target == Target::Core)
            opt.workloads.push_back("rbtree");
    }
    if (opt.workers == 0)
        opt.workers = std::max(1u, std::thread::hardware_concurrency());
    return opt;
}

/** The sweep matrix: schemes x workloads x core or shard counts. */
std::vector<Cell>
cellsFor(const CliOptions &opt)
{
    const std::vector<std::size_t> shapes =
        opt.target == Target::Mc        ? opt.coreCounts
        : opt.target == Target::Service ? opt.shardCounts
                                        : std::vector<std::size_t>{0};
    std::vector<Cell> cells;
    for (const auto &scheme : opt.schemes) {
        for (const auto &workload : opt.workloads) {
            for (std::size_t shape : shapes)
                cells.push_back({scheme, workload, shape});
        }
    }
    return cells;
}

/** The knobs every target shares. */
void
applyOptions(const CliOptions &opt, const Cell &c, SweepOptions &s)
{
    s.scheme = parseScheme(c.scheme);
    s.style = opt.style;
    s.maxPoints = opt.full ? 0
                           : opt.maxPoints.value_or(
                                 opt.target == Target::Core ? 200 : 120);
    s.tinyCache = opt.tinyCache;
    if (opt.checkpointInterval)
        s.checkpointInterval = *opt.checkpointInterval;
    s.useCheckpoints = opt.useCheckpoints;
    s.workers = opt.workers;
}

CrashSweepConfig
coreConfig(const CliOptions &opt, const Cell &c)
{
    CrashSweepConfig cfg;
    applyOptions(opt, c, cfg);
    cfg.workload = c.workload;
    cfg.mix.numOps = opt.numOps;
    cfg.mix.valueBytes = opt.valueBytes;
    cfg.mix.seed = opt.seed;
    cfg.mix.insertPct = opt.insertPct;
    cfg.mix.updatePct = opt.updatePct;
    cfg.mix.removePct = opt.removePct;
    return cfg;
}

McCrashSweepConfig
mcConfig(const CliOptions &opt, const Cell &c)
{
    McCrashSweepConfig cfg;
    applyOptions(opt, c, cfg);
    cfg.run.workload = c.workload;
    cfg.run.numCores = c.shape;
    cfg.run.opsPerCore = opt.opsPerCore;
    cfg.run.valueBytes = opt.valueBytes;
    cfg.run.seed = opt.seed;
    cfg.run.sharedPct = opt.sharedPct;
    return cfg;
}

ServiceCrashConfig
serviceConfig(const CliOptions &opt, const Cell &c)
{
    ServiceCrashConfig cfg;
    applyOptions(opt, c, cfg);
    cfg.workload = c.workload;
    cfg.numShards = c.shape;
    cfg.load.numOps = opt.numOps;
    cfg.load.seed = opt.seed;
    return cfg;
}

CrashSweepReport
runCell(const CliOptions &opt, const Cell &c)
{
    switch (opt.target) {
      case Target::Mc:
        return runMcCrashSweep(mcConfig(opt, c));
      case Target::Service:
        return runServiceCrashSweep(serviceConfig(opt, c));
      case Target::Core:
        break;
    }
    return runCrashSweep(coreConfig(opt, c));
}

CrashPointOutcome
runCellPoint(const CliOptions &opt, const Cell &c, std::uint64_t k)
{
    switch (opt.target) {
      case Target::Mc:
        return runMcCrashPoint(mcConfig(opt, c), k);
      case Target::Service:
        return runServiceCrashPoint(serviceConfig(opt, c), k);
      case Target::Core:
        break;
    }
    return runCrashPoint(coreConfig(opt, c), k);
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions opt = parseArgs(argc, argv);

    // Reject bad workload names here rather than deep inside a sweep.
    for (const auto &w : opt.workloads) {
        const auto &known = allWorkloads();
        if (std::find(known.begin(), known.end(), w) == known.end()) {
            std::fprintf(stderr, "unknown workload: %s\n", w.c_str());
            return 2;
        }
    }
    const std::vector<Cell> cells = cellsFor(opt);

    // Single-point reproduction mode.
    if (opt.crashPoint >= 0) {
        if (cells.size() != 1) {
            std::fprintf(stderr, "--crash-point needs exactly one "
                                 "scheme, workload and core or shard "
                                 "count\n");
            return 2;
        }
        const CrashPointOutcome out = runCellPoint(
            opt, cells.front(), static_cast<std::uint64_t>(opt.crashPoint));
        std::printf("crash_point=%llu fired=%d committed_ops=%zu "
                    "replayed_records=%zu violations=%zu\n",
                    static_cast<unsigned long long>(out.crashPoint),
                    out.fired ? 1 : 0, out.committedOps,
                    out.replayedRecords, out.violations.size());
        for (const auto &v : out.violations)
            std::printf("VIOLATION %s\n", v.c_str());
        return out.violations.empty() ? 0 : 1;
    }

    int failures = 0;
    double parallel_ms = 0.0;
    std::vector<std::string> sweep_jsons;
    std::string step_jsons;
    for (const Cell &c : cells) {
        const CrashSweepReport report = runCell(opt, c);
        parallel_ms += report.wallMs;
        sweep_jsons.push_back(report.toJson());
        step_jsons += step_jsons.empty() ? "{" : ",{";
        for (std::size_t i = 0; i < numPointSteps; ++i) {
            char step[64];
            std::snprintf(step, sizeof(step), "%s\"%s\":%.3f",
                          i ? "," : "", pointStepNames[i],
                          report.stepMs[i]);
            step_jsons += step;
        }
        step_jsons += '}';

        std::printf("%s", report.summaryText().c_str());
        if (report.violationCount() > 0)
            ++failures;
    }
    std::printf("%zu sweeps in %.0f ms (%zu workers)\n", cells.size(),
                parallel_ms, opt.workers);

    if (!opt.jsonPath.empty()) {
        std::string doc = "{\"sweeps\":[";
        for (std::size_t i = 0; i < sweep_jsons.size(); ++i) {
            if (i)
                doc += ',';
            doc += sweep_jsons[i];
        }
        char buf[96];
        std::snprintf(buf, sizeof(buf), "],\"parallel_wall_ms\":%.3f",
                      parallel_ms);
        doc += buf;
        // Host ms per point step, one object per sweep in "sweeps"
        // order; kept out of "sweeps" so that array stays timing-free.
        doc += ",\"step_ms\":[" + step_jsons + "]}";
        std::ofstream out(opt.jsonPath);
        out << doc << '\n';
    }
    return failures;
}
