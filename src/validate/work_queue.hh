/**
 * @file
 * Work-stealing thread pool for the crash-point sweep.
 *
 * Crash points are fully independent — each worker re-forks its own
 * simulated machine for every point it runs, and no point reads
 * another's — so the sweep is embarrassingly parallel, but per-point
 * runtime varies by an order of magnitude (a crash at store #3 replays
 * almost nothing; one at store #900 replays the whole trace). Static
 * partitioning would leave late-point workers dominating the wall
 * time, so each worker owns a deque of item indices: it pops from its
 * own back and, when empty, steals from the front of the busiest
 * victim. Results are written to caller-owned slots indexed by item,
 * keeping the output independent of the worker count and schedule.
 */

#ifndef SLPMT_VALIDATE_WORK_QUEUE_HH
#define SLPMT_VALIDATE_WORK_QUEUE_HH

#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace slpmt
{

/** One worker's deque of pending item indices. */
class StealableQueue
{
  public:
    void
    push(std::size_t item)
    {
        std::lock_guard<std::mutex> lock(mtx);
        items.push_back(item);
    }

    /** Owner takes the most recently pushed item (LIFO, cache-warm). */
    bool
    popBack(std::size_t *out)
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (items.empty())
            return false;
        *out = items.back();
        items.pop_back();
        return true;
    }

    /** A thief takes the oldest item (FIFO end, least contended). */
    bool
    stealFront(std::size_t *out)
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (items.empty())
            return false;
        *out = items.front();
        items.pop_front();
        return true;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mtx);
        return items.size();
    }

  private:
    mutable std::mutex mtx;
    std::deque<std::size_t> items;
};

/**
 * Run @p fn(worker, item) for every item in [0, num_items) on
 * @p num_workers threads with work stealing; @p worker names the
 * thread running the item (0 when the items run on the calling
 * thread, else an index below num_workers), so per-worker state needs
 * no lock. Blocks until all items complete. The callable must be
 * thread-safe across distinct workers and must not throw (wrap and
 * record failures per item instead).
 */
inline void
runWorkStealing(std::size_t num_workers, std::size_t num_items,
                const std::function<void(std::size_t, std::size_t)> &fn)
{
    if (num_workers <= 1 || num_items <= 1) {
        for (std::size_t i = 0; i < num_items; ++i)
            fn(0, i);
        return;
    }

    std::vector<StealableQueue> queues(num_workers);
    for (std::size_t i = 0; i < num_items; ++i)
        queues[i % num_workers].push(i);

    auto worker = [&](std::size_t self) {
        std::size_t item;
        for (;;) {
            if (queues[self].popBack(&item)) {
                fn(self, item);
                continue;
            }
            // Steal from the victim with the most pending work.
            std::size_t victim = self;
            std::size_t best = 0;
            for (std::size_t q = 0; q < queues.size(); ++q) {
                if (q == self)
                    continue;
                const std::size_t n = queues[q].size();
                if (n > best) {
                    best = n;
                    victim = q;
                }
            }
            // Queue sizes only ever shrink, so seeing every queue
            // empty means no unclaimed work remains anywhere.
            if (best == 0)
                break;
            // A lost race against another thief: rescan for a victim.
            if (queues[victim].stealFront(&item))
                fn(self, item);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(num_workers);
    for (std::size_t w = 0; w < num_workers; ++w)
        threads.emplace_back(worker, w);
    for (auto &t : threads)
        t.join();
}

} // namespace slpmt

#endif // SLPMT_VALIDATE_WORK_QUEUE_HH
