/**
 * @file
 * PMKV-style usage: a persistent key-value store on the SLPMT API,
 * configurable with the btree, ctree, or rtree backend (the paper's
 * PMDK map example), compared across hardware transaction schemes.
 *
 *   ./kvstore [backend] [ops] [value_bytes]
 *   e.g. ./kvstore kv-ctree 500 128
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/figures.hh"

using namespace slpmt;

int
main(int argc, char **argv)
{
    const std::string backend = argc > 1 ? argv[1] : "kv-ctree";
    const std::size_t ops =
        argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 500;
    const std::size_t value_bytes =
        argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 128;

    std::printf("backend=%s ops=%zu value=%zuB\n\n", backend.c_str(),
                ops, value_bytes);

    // Functional demo: insert, look up, crash, recover, look up again.
    {
        SystemConfig config;
        PmSystem sys(config);
        auto store = makeWorkload(backend);
        store->setup(sys);

        const auto trace = ycsbLoad({ops, value_bytes, /*seed=*/7});
        for (const auto &op : trace)
            store->insert(sys, op.key, op.value);

        std::vector<std::uint8_t> value;
        const bool hit = store->lookup(sys, trace[0].key, &value);
        std::printf("lookup(first key): %s, %zu bytes\n",
                    hit ? "hit" : "MISS", value.size());

        sys.crash();
        sys.recoverHardware();
        store->recover(sys);
        std::string why;
        const bool consistent = store->checkConsistency(sys, &why);
        std::printf("after crash+recovery: %zu keys, %s\n",
                    store->count(sys),
                    consistent ? "consistent" : why.c_str());
    }

    // Scheme comparison on this backend.
    MatrixSpec spec;
    spec.workloads = {backend};
    spec.schemes = {SchemeKind::FG, SchemeKind::ATOM, SchemeKind::EDE,
                    SchemeKind::SLPMT};
    spec.valueSizes = {value_bytes};
    spec.numOps = ops;
    const MatrixResult result = runMatrix(spec, 0);
    std::string failures;
    if (!result.allVerified(&failures)) {
        std::printf("verification failed: %s", failures.c_str());
        return 1;
    }

    const Metric mcycles{[](const ExperimentResult &c,
                            const ExperimentResult &) {
                             return static_cast<double>(c.cycles) / 1e6;
                         },
                         NumberFormat::Decimal};
    TableSpec table{"scheme comparison (" + backend + ")",
                    {"scheme"},
                    {},
                    {{"Mcycles", "{}", "", mcycles},
                     {"PM write KB", "{}", "", kilobytes()},
                     {"speedup vs FG", "{}",
                      caseKey(backend, SchemeKind::FG), speedup()}}};
    for (SchemeKind scheme : spec.schemes)
        table.rows.push_back({{schemeName(scheme)}, caseKey(backend, scheme)});
    std::fputs(renderTable(table, result).c_str(), stdout);
    return 0;
}
