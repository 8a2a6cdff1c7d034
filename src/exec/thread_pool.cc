#include "exec/thread_pool.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel.h"

namespace h2o::exec {

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0) {
        threads = std::max(1u, std::thread::hardware_concurrency());
    }
    _workers.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true;
    }
    _cv.notify_all();
    for (auto &w : _workers)
        w.join();
}

std::future<void>
ThreadPool::submit(std::function<void()> task)
{
    h2o_assert(task, "null task submitted to thread pool");
    std::packaged_task<void()> packaged(std::move(task));
    auto future = packaged.get_future();
    {
        std::lock_guard<std::mutex> lock(_mutex);
        h2o_assert(!_stopping, "submit on a stopping thread pool");
        _queue.push_back(std::move(packaged));
    }
    _cv.notify_one();
    return future;
}

void
ThreadPool::workerLoop()
{
    // Pool workers already fill the CPUs: kernels called from a task run
    // inline rather than fork-joining onto the shared helper threads.
    common::markPoolWorkerThread();
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _cv.wait(lock, [this] { return _stopping || !_queue.empty(); });
            if (_queue.empty())
                return; // stopping and drained
            task = std::move(_queue.front());
            _queue.pop_front();
        }
        task(); // exceptions land in the task's future
    }
}

size_t
ThreadPool::resolve(size_t requested, size_t work_items)
{
    size_t threads = requested;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    return std::max<size_t>(1, std::min(threads, std::max<size_t>(
                                                     1, work_items)));
}

std::vector<common::Rng>
ThreadPool::splitRngs(common::Rng &parent, size_t n)
{
    std::vector<common::Rng> streams;
    streams.reserve(n);
    for (size_t s = 0; s < n; ++s)
        streams.push_back(parent.fork(s + 1));
    return streams;
}

} // namespace h2o::exec
