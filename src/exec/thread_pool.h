/**
 * @file
 * Persistent fixed-size worker pool for the search runtime.
 *
 * The paper's searcher runs each step across 128 accelerator shards; this
 * repository's shards are tasks on a ThreadPool. Tasks start in
 * submission (FIFO) order, and splitRngs() derives the per-shard random
 * streams from the parent stream alone, never from thread identity or
 * timing, so a search produces bit-identical results at any pool size
 * (including 1).
 *
 * Workers are created once and reused across all steps of a search,
 * replacing the per-step std::thread spawning the searchers used before.
 */

#ifndef H2O_EXEC_THREAD_POOL_H
#define H2O_EXEC_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace h2o::exec {

/** Fixed-size FIFO worker pool with task futures. */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 means one per CPU in the process's
     *                affinity mask (common::parallelWidth()).
     */
    explicit ThreadPool(size_t threads = 0);

    /** Drains nothing: outstanding tasks finish, queued tasks run. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    size_t size() const { return _workers.size(); }

    /**
     * Enqueue a task; returns a future that completes when the task
     * returns (or holds its exception). Tasks start in FIFO order.
     */
    std::future<void> submit(std::function<void()> task);

    /**
     * Resolve a --threads style request: 0 means one per CPU in the
     * affinity mask (common::parallelWidth()); the result is clamped to
     * [1, work_items] so a search never holds more workers than it has
     * shards.
     */
    static size_t resolve(size_t requested, size_t work_items);

    /**
     * The deterministic per-shard RNG-splitting contract: fork `n`
     * independent child streams from `parent` exactly as the serial
     * searchers always have (salt s + 1), as a pure function of the
     * parent state. The parent advances identically no matter how many
     * worker threads later consume the children.
     */
    static std::vector<common::Rng> splitRngs(common::Rng &parent, size_t n);

  private:
    void workerLoop();

    std::vector<std::thread> _workers;
    std::deque<std::packaged_task<void()>> _queue;
    std::mutex _mutex;
    std::condition_variable _cv;
    bool _stopping = false;
};

} // namespace h2o::exec

#endif // H2O_EXEC_THREAD_POOL_H
