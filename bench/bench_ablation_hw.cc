/**
 * @file
 * Hardware-design ablations called out in DESIGN.md:
 *  - speculative log-record rounding (Section III-B1): create records
 *    for clean words so aggregated L2 log bits stay set, trading
 *    extra records against duplicate logging after refetch;
 *  - transaction-ID count (Section III-C2): how deep the lazy window
 *    is before the circular allocator forces persists;
 *  - the tiered coalescing log buffer itself: FG with the buffer vs
 *    FG persisting each record as it is created.
 *
 * Exits 1 when any cell fails its post-run verification.
 */

#include "sim/experiment.hh"
#include "sim/report.hh"

namespace slpmt
{
namespace
{

/** Cleared by any cell that fails its post-run verification. */
bool allVerified = true;

ExperimentResult
runWith(const std::string &workload, SchemeKind kind, bool speculative,
        std::uint8_t txn_ids)
{
    ExperimentConfig cfg;
    cfg.scheme = kind;
    cfg.ycsb.numOps = 1000;
    cfg.ycsb.valueBytes = 256;
    cfg.speculativeRounding = speculative;
    cfg.numTxnIds = txn_ids;
    const ExperimentResult res = runExperiment(workload, cfg);
    allVerified = allVerified && res.verified;
    return res;
}

void
printSpeculative()
{
    TableReport table(
        "Ablation: speculative log-bit rounding (Section III-B1)");
    table.header({"benchmark", "records off", "records on",
                  "traffic off KB", "traffic on KB", "speedup on/off"});
    for (const auto &workload : kernelWorkloads()) {
        const auto off = runWith(workload, SchemeKind::SLPMT, false, 4);
        const auto on = runWith(workload, SchemeKind::SLPMT, true, 4);
        table.row({workload, TableReport::integer(off.logRecords),
                   TableReport::integer(on.logRecords),
                   TableReport::num(
                       static_cast<double>(off.pmWriteBytes) / 1024.0),
                   TableReport::num(
                       static_cast<double>(on.pmWriteBytes) / 1024.0),
                   TableReport::ratio(on.speedupOver(off))});
    }
    table.print();
}

void
printTxnIds()
{
    TableReport table(
        "Ablation: transaction-ID count (lazy window depth)");
    const std::vector<std::uint8_t> counts = {1, 2, 4, 8};
    std::vector<std::string> cols = {"benchmark"};
    for (auto n : counts)
        cols.push_back(std::to_string(n) + " IDs");
    table.header(cols);
    for (const auto &workload : {std::string("hashtable"),
                                 std::string("avl")}) {
        const auto base = runWith(workload, SchemeKind::FG, false, 4);
        std::vector<std::string> row = {workload};
        for (auto n : counts) {
            const auto res = runWith(workload, SchemeKind::SLPMT, false,
                                     n);
            row.push_back(TableReport::ratio(res.speedupOver(base)));
        }
        table.row(row);
    }
    table.print();
}

void
printLogBuffer()
{
    TableReport table(
        "Ablation: tiered coalescing log buffer (FG with vs without)");
    table.header({"benchmark", "with buffer KB", "without buffer KB",
                  "speedup with/without"});
    for (const auto &workload : kernelWorkloads()) {
        const auto with_buf = runWith(workload, SchemeKind::FG, false, 4);

        // FG without the buffer: like EDE's persist-per-record but
        // with hardware record creation (no software costs).
        const auto without_buf =
            runWith(workload, SchemeKind::EDE, false, 4);

        table.row({workload,
                   TableReport::num(
                       static_cast<double>(with_buf.pmWriteBytes) /
                       1024.0),
                   TableReport::num(
                       static_cast<double>(without_buf.pmWriteBytes) /
                       1024.0),
                   TableReport::ratio(with_buf.speedupOver(without_buf))});
    }
    table.print();
}

} // namespace
} // namespace slpmt

int
main()
{
    using namespace slpmt;

    printSpeculative();
    printTxnIds();
    printLogBuffer();
    return allVerified ? 0 : 1;
}
