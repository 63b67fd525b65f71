/**
 * @file
 * The one verifier: a structure read back, through an OracleView,
 * against the state it must hold. The figure cells that check a
 * structure (runExperiment, the updates figure), runMcYcsb and
 * replaySerialOracle, runService, and the crash sweeps' oracles (all
 * but the service target's read-back of its continuation keys) call
 * it, and only build the expected state.
 *
 * For each part of the structure (one, or one per shard) it checks, in
 * order: the deep invariants; the count, which may be one higher where
 * an interrupted write's fresh key lands; every expected key's value,
 * old or new for the interrupted key; and that an interrupted fresh
 * key is not torn. Then every run key the state lacks must be
 * invisible. Each failure is one line to the caller's sink: a crash
 * point's capped OracleLines phase, or FirstFailure, the verdict of a
 * figure cell or a run.
 */

#ifndef SLPMT_MULTICORE_VERIFIER_HH
#define SLPMT_MULTICORE_VERIFIER_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "multicore/oracle_view.hh"
#include "workloads/workload.hh"

namespace slpmt
{

/** Where the verifier writes its failure lines. */
class VerifySink
{
  public:
    virtual void add(const std::string &line) = 0;

  protected:
    ~VerifySink() = default;
};

/** Keeps the first failure line: a figure cell's or a run's verdict. */
class FirstFailure final : public VerifySink
{
  public:
    void
    add(const std::string &line) override
    {
        if (first.empty())
            first = line;
    }

    bool passed() const { return first.empty(); }

    std::string first;  //!< empty while every check passed
};

/** Committed keys and the values a structure must hold for them. */
using Shadow = std::map<std::uint64_t, std::vector<std::uint8_t>>;

/** Whether @p got is a Shadow entry's value. A state that keeps a
 *  recipe per key instead (the service's) overloads this. */
inline bool
isExpected(const std::vector<std::uint8_t> &got, std::uint64_t,
           const std::vector<std::uint8_t> &value)
{
    return got == value;
}

/** A key as printed in violation lines. */
inline std::string
hexKey(std::uint64_t key)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

/** The structure a verifier reads: one workload on one machine, or a
 *  sharded store of one per shard, whose lines name the shard. */
struct VerifiedStructure
{
    using Part = std::pair<McMachine *, Workload *>;

    VerifiedStructure(McMachine &machine, Workload &wl)
        : parts{{&machine, &wl}}
    {}

    /** Shard s is @p wls[s] on @p machines[s]; @p shard_of routes a
     *  key to its shard. */
    VerifiedStructure(const std::vector<std::unique_ptr<McMachine>> &machines,
                      const std::vector<std::unique_ptr<Workload>> &wls,
                      std::function<std::size_t(std::uint64_t)> shard_of)
        : shardOf(std::move(shard_of))
    {
        for (std::size_t s = 0; s < machines.size(); ++s)
            parts.emplace_back(machines[s].get(), wls[s].get());
    }

    std::vector<Part> parts;
    std::function<std::size_t(std::uint64_t)> shardOf;  //!< empty: unsharded
};

/** A write a power failure interrupted: its key may hold its old value
 *  or @p value, and a fresh key may be absent, but never torn. */
struct InterruptedWrite
{
    std::uint64_t key = 0;
    std::vector<std::uint8_t> value;
};

/** What a crash point adds to the expected state: the keys its
 *  structure must not show, and the write its crash interrupted. */
struct Unwritten
{
    /** Keys the run touched, ascending: each one the expected state
     *  lacks, but the interrupted key, must be invisible. */
    std::span<const std::uint64_t> runKeys;

    /** Names those keys in lines ("uncommitted", "future", ...). */
    const char *label = "";

    /** The write the crash interrupted (nullptr: none). */
    const InterruptedWrite *interrupted = nullptr;
};

/**
 * Read @p st back against @p want and write every failure to @p sink
 * (checks and order in the file comment). @p want iterates ascending
 * (key, value) pairs, each value given to isExpected(got, key, value).
 * Each part is read through one OracleView per call, and each expected
 * key is routed to its part once.
 */
template <typename Expected>
void
verifyStructure(const VerifiedStructure &st, const Expected &want,
                VerifySink &sink, const Unwritten &crash = {})
{
    const InterruptedWrite *const iw = crash.interrupted;
    const bool sharded = static_cast<bool>(st.shardOf);

    // Expected keys per part, each entry's part (sharded only), and
    // whether the interrupted key is fresh: only a fresh key may add
    // one to its part's count.
    std::vector<std::size_t> expected(st.parts.size(), want.size());
    std::vector<std::uint32_t> route;
    bool fresh = iw != nullptr;
    if (sharded || iw) {
        std::fill(expected.begin(), expected.end(), 0);
        route.reserve(sharded ? want.size() : 0);
        for (const auto &[key, value] : want) {
            const std::size_t s = sharded ? st.shardOf(key) : 0;
            if (sharded)
                route.push_back(static_cast<std::uint32_t>(s));
            expected[s]++;
            fresh = fresh && key != iw->key;
        }
    }
    const auto partOf = [&](std::uint64_t key) -> std::size_t {
        return sharded ? st.shardOf(key) : 0;
    };

    std::deque<OracleView> views;
    std::vector<std::uint8_t> got;
    for (std::size_t s = 0; s < st.parts.size(); ++s) {
        OracleView &view = views.emplace_back(*st.parts[s].first);
        Workload &wl = *st.parts[s].second;
        const std::string where =
            sharded ? "shard " + std::to_string(s) + " " : "";

        std::string why;
        if (!wl.checkConsistency(view, &why))
            sink.add(where + "structure invariant violated: " + why);

        const std::size_t n = wl.count(view);
        const bool slack = fresh && partOf(iw->key) == s;
        if (n != expected[s] && !(slack && n == expected[s] + 1))
            sink.add(where + "count mismatch: structure holds " +
                     std::to_string(n) + ", oracle expects " +
                     std::to_string(expected[s]) +
                     (slack ? " (+1 allowed)" : ""));

        std::size_t entry = 0;
        for (const auto &[key, value] : want) {
            if (sharded && route[entry++] != s)
                continue;
            got.clear();
            if (iw && key == iw->key) {
                // Old-or-new, never torn.
                if (!wl.lookup(view, key, &got))
                    sink.add(where + "interrupted key " + hexKey(key) +
                             " lost its committed value");
                else if (!isExpected(got, key, value) && got != iw->value)
                    sink.add(where + "interrupted key " + hexKey(key) +
                             " holds neither old nor new value");
                continue;
            }
            if (!wl.lookup(view, key, &got))
                sink.add(where + "committed key " + hexKey(key) +
                         " missing");
            else if (!isExpected(got, key, value))
                sink.add(where + "value mismatch for committed key " +
                         hexKey(key));
        }

        // A fresh interrupted insert is allowed fully in or fully out.
        if (slack && wl.lookup(view, iw->key, &got) && got != iw->value)
            sink.add(where + "interrupted fresh key " + hexKey(iw->key) +
                     " visible with a torn value");
    }

    // Both key lists ascend, so one walk finds the run keys the
    // expected state lacks.
    auto next = want.begin();
    for (std::uint64_t key : crash.runKeys) {
        while (next != want.end() && next->first < key)
            ++next;
        if ((next != want.end() && next->first == key) ||
            (iw && key == iw->key))
            continue;
        const std::size_t s = partOf(key);
        if (st.parts[s].second->lookup(views[s], key, nullptr))
            sink.add(std::string(crash.label) + " key " + hexKey(key) +
                     " visible" +
                     (sharded ? " on shard " + std::to_string(s) : ""));
    }
}

} // namespace slpmt

#endif // SLPMT_MULTICORE_VERIFIER_HH
