#include "common/parallel.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace h2o::common {

namespace {

/** Polls a waiting thread makes before it blocks: long enough to catch
 *  the next kernel of a training step without a wake-up, short enough
 *  that idle helpers leave their CPUs within a fraction of a
 *  millisecond. */
constexpr uint32_t kSpinIterations = 1u << 12;

/** Every this many polls a waiter yields its CPU. When the scheduler
 *  has put a waiter on the same CPU as a thread with a part to finish,
 *  pure spinning made split kernels slower than inline ones until the
 *  threads were rebalanced, about a second later. */
constexpr uint32_t kPollsPerYield = 64;

/** Parts per thread: more parts than threads lets the caller and the
 *  awake helpers take over the share of a helper that is slow to wake
 *  or descheduled. */
constexpr size_t kPartsPerThread = 2;

thread_local bool t_poolWorker = false;

/** Set in every child forked after this library loaded. */
std::atomic<bool> g_forkChild{false};

/** Set once the helper team has been destroyed at exit. */
std::atomic<bool> g_teamGone{false};

std::atomic<size_t> g_splitCount{0};

const bool g_atforkRegistered = [] {
    ::pthread_atfork(nullptr, nullptr, [] {
        g_forkChild.store(true, std::memory_order_relaxed);
    });
    return true;
}();

/** One poll's wait: a CPU pause hint, or a yield every kPollsPerYield. */
inline void
pollPause(uint32_t poll)
{
    if (poll % kPollsPerYield == kPollsPerYield - 1) {
        std::this_thread::yield();
        return;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

size_t
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
        int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<size_t>(n);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * The persistent helpers. One job at a time (tryAcquire()); a job is
 * published as one 64-bit claim word — epoch | next part | part count —
 * so a helper that wakes late can never claim a part of a job it did
 * not read, and every thread, the caller included, claims parts from it
 * until none are left.
 */
class HelperTeam
{
  public:
    explicit HelperTeam(size_t helpers)
    {
        _threads.reserve(helpers);
        for (size_t i = 0; i < helpers; ++i)
            _threads.emplace_back([this] { helperLoop(); });
    }

    ~HelperTeam()
    {
        g_teamGone.store(true, std::memory_order_seq_cst);
        if (g_forkChild.load(std::memory_order_relaxed)) {
            // The helpers were not copied by fork(): nothing to join,
            // and destroying a joinable std::thread would terminate.
            new std::vector<std::thread>(std::move(_threads));
            return;
        }
        {
            std::lock_guard<std::mutex> lock(_workMutex);
            _stopping = true;
        }
        _workCv.notify_all();
        for (auto &t : _threads)
            t.join();
    }

    HelperTeam(const HelperTeam &) = delete;
    HelperTeam &operator=(const HelperTeam &) = delete;

    bool tryAcquire()
    {
        return !_busy.exchange(true, std::memory_order_acquire);
    }

    void release() { _busy.store(false, std::memory_order_release); }

    /** Run one job; the caller holds the team. */
    void run(size_t n, size_t align, size_t parts, detail::RangeFn fn,
             void *ctx)
    {
        _fn = fn;
        _ctx = ctx;
        _n = n;
        _align = align;
        _tiles = (n + align - 1) / align;
        _done.store(0, std::memory_order_relaxed);
        const uint32_t epoch = ++_epoch;
        _claim.store(pack(epoch, 0, parts), std::memory_order_seq_cst);
        if (_workSleepers.load(std::memory_order_seq_cst) > 0) {
            { std::lock_guard<std::mutex> lock(_workMutex); }
            _workCv.notify_all();
        }
        runParts(epoch);

        for (uint32_t i = 0; i < kSpinIterations; ++i) {
            if (_done.load(std::memory_order_acquire) == parts)
                return;
            pollPause(i);
        }
        std::unique_lock<std::mutex> lock(_doneMutex);
        _callerSleeping.store(true, std::memory_order_seq_cst);
        _doneCv.wait(lock, [&] {
            return _done.load(std::memory_order_seq_cst) == parts;
        });
        _callerSleeping.store(false, std::memory_order_relaxed);
    }

  private:
    static uint64_t pack(uint32_t epoch, size_t next, size_t parts)
    {
        return (uint64_t{epoch} << 32) | (uint64_t(next) << 16) |
               uint64_t(parts);
    }

    /** Claim and run parts of job `epoch` until none are left. */
    void runParts(uint32_t epoch)
    {
        uint64_t c = _claim.load(std::memory_order_acquire);
        for (;;) {
            const size_t next = (c >> 16) & 0xffff;
            const size_t parts = c & 0xffff;
            if (uint32_t(c >> 32) != epoch || next >= parts)
                return;
            if (!_claim.compare_exchange_weak(c, c + (uint64_t{1} << 16),
                                              std::memory_order_acquire))
                continue;
            // The claimed part pins the job: its fields stay put until
            // this part is counted done.
            const size_t t0 = next * _tiles / parts;
            const size_t t1 = (next + 1) * _tiles / parts;
            _fn(_ctx, t0 * _align, std::min(t1 * _align, _n));
            _done.fetch_add(1, std::memory_order_seq_cst);
            if (_callerSleeping.load(std::memory_order_seq_cst)) {
                { std::lock_guard<std::mutex> lock(_doneMutex); }
                _doneCv.notify_all();
            }
            c = _claim.load(std::memory_order_acquire);
        }
    }

    void helperLoop()
    {
        uint32_t seen = 0;
        for (;;) {
            uint32_t epoch = seen;
            for (uint32_t i = 0; i < kSpinIterations && epoch == seen; ++i) {
                pollPause(i);
                epoch = uint32_t(
                    _claim.load(std::memory_order_relaxed) >> 32);
            }
            if (epoch == seen) {
                std::unique_lock<std::mutex> lock(_workMutex);
                _workSleepers.fetch_add(1, std::memory_order_seq_cst);
                _workCv.wait(lock, [&] {
                    epoch = uint32_t(
                        _claim.load(std::memory_order_seq_cst) >> 32);
                    return _stopping || epoch != seen;
                });
                _workSleepers.fetch_sub(1, std::memory_order_relaxed);
                if (_stopping)
                    return;
            }
            seen = epoch;
            runParts(epoch);
        }
    }

    std::atomic<bool> _busy{false};
    uint32_t _epoch = 0; ///< written by the team's holder only

    // The current job, written by its caller before the claim word is
    // published and read by part runners after a successful claim.
    detail::RangeFn _fn = nullptr;
    void *_ctx = nullptr;
    size_t _n = 0;
    size_t _align = 1;
    size_t _tiles = 0;

    std::atomic<uint64_t> _claim{0};
    std::atomic<size_t> _done{0};

    std::mutex _workMutex; ///< guards _stopping; helpers block on it
    std::condition_variable _workCv;
    bool _stopping = false;
    std::atomic<uint32_t> _workSleepers{0};

    std::mutex _doneMutex; ///< the caller blocks on it
    std::condition_variable _doneCv;
    std::atomic<bool> _callerSleeping{false};

    std::vector<std::thread> _threads; ///< last: uses every member above
};

HelperTeam &
team()
{
    static HelperTeam helpers(parallelWidth() - 1);
    return helpers;
}

} // namespace

size_t
parallelWidth()
{
    static const size_t width = affinityCpus();
    return width;
}

void
markPoolWorkerThread()
{
    t_poolWorker = true;
}

size_t
parallelSplitCount()
{
    return g_splitCount.load(std::memory_order_relaxed);
}

namespace detail {

void
parallelForImpl(size_t n, size_t align, size_t work, RangeFn fn, void *ctx)
{
    (void)g_atforkRegistered;
    align = std::max<size_t>(align, 1);
    const size_t tiles = (n + align - 1) / align;
    const size_t parts =
        std::min({tiles, work / kParallelMinPartWork,
                  kPartsPerThread * parallelWidth(), size_t{0xffff}});
    if (parts < 2 || parallelWidth() < 2 || t_poolWorker ||
        g_forkChild.load(std::memory_order_relaxed) ||
        g_teamGone.load(std::memory_order_relaxed)) {
        fn(ctx, 0, n);
        return;
    }
    HelperTeam &helpers = team();
    if (!helpers.tryAcquire()) {
        fn(ctx, 0, n);
        return;
    }
    g_splitCount.fetch_add(1, std::memory_order_relaxed);
    helpers.run(n, align, parts, fn, ctx);
    helpers.release();
}

} // namespace detail

} // namespace h2o::common
