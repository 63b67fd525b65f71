/**
 * @file
 * Ticket pool for the crash-point sweep and the figure orchestrator.
 *
 * Items are fully independent — each chunk of crash points walks its
 * own simulated machine from a base, each figure cell builds its own —
 * so the pool needs no partitioning: every worker draws the next
 * unclaimed item index from one shared atomic ticket until the tickets
 * run out. A worker that drew a cheap item simply draws again, so
 * per-item costs that vary by an order of magnitude (a chunk of points
 * inside a resize costs far more than one over plain updates) still
 * balance. Results are written to caller-owned slots indexed by item,
 * keeping the output independent of the worker count and schedule.
 */

#ifndef SLPMT_VALIDATE_WORK_QUEUE_HH
#define SLPMT_VALIDATE_WORK_QUEUE_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace slpmt
{

/**
 * Run @p fn(worker, item) for every item in [0, num_items) on at most
 * @p num_workers threads, the calling thread included as worker 0:
 * beside it the pool starts min(num_workers, num_items) - 1 threads,
 * so one worker, one item or none starts no thread. @p worker is
 * below min(num_workers, num_items) (or 0) and names one thread, so
 * per-worker state needs no lock.
 * Blocks until all items complete. The callable must be thread-safe
 * across distinct workers and must not throw (wrap and record
 * failures per item instead).
 */
inline void
parallelFor(std::size_t num_workers, std::size_t num_items,
            const std::function<void(std::size_t, std::size_t)> &fn)
{
    std::atomic<std::size_t> ticket{0};
    auto worker = [&](std::size_t self) {
        for (std::size_t i = ticket++; i < num_items; i = ticket++)
            fn(self, i);
    };

    const std::size_t threads = std::min(num_workers, num_items);
    std::vector<std::jthread> others;
    for (std::size_t w = 1; w < threads; ++w)
        others.emplace_back(worker, w);
    worker(0);
}

} // namespace slpmt

#endif // SLPMT_VALIDATE_WORK_QUEUE_HH
