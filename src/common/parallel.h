/**
 * @file
 * Deterministic intra-op parallelism: a fork-join over one index range.
 *
 * parallelFor(n, align, work, body) splits [0, n) into contiguous parts
 * whose boundaries are multiples of `align` and runs body(begin, end)
 * once per part, on the calling thread and on a team of persistent
 * helper threads (one per CPU in the process's affinity mask, minus the
 * caller). It returns when every part has run.
 *
 * The contract that keeps results bit-identical at any core count lives
 * with the caller: a body must compute each output element from the
 * same inputs in the same order whichever part it lands in (the nn
 * kernels split only on register-tile boundaries, the optimizers by
 * element), and parts must write disjoint memory. Given that, WHICH
 * thread runs a part, and how many parts there are, cannot change any
 * value.
 *
 * parallelFor runs the whole range inline on the caller, as body(0, n),
 * when
 *  - the work is below a fixed size (a split would cost more than it
 *    saves), or the mask holds one CPU;
 *  - the caller is an exec::ThreadPool worker (markPoolWorkerThread()):
 *    pools already keep every CPU busy, so kernels there stay serial;
 *  - another thread holds the helpers (one fork-join at a time); or
 *  - the process is a fork child: ProcPool workers and daemon sessions
 *    stay single-threaded, and never wait on helpers the fork did not
 *    copy.
 *
 * Helpers start lazily on the first split call. Between jobs they poll
 * for a bounded number of iterations (a count, never a clock), then
 * block. A body runs on a helper's stack and must not allocate, throw,
 * or call back into code that waits on the caller.
 */

#ifndef H2O_COMMON_PARALLEL_H
#define H2O_COMMON_PARALLEL_H

#include <cstddef>
#include <memory>
#include <type_traits>

namespace h2o::common {

/**
 * Work, in the caller's units (about one multiply-add or one element
 * update each), that a part must carry before parallelFor splits the
 * range at all.
 */
inline constexpr size_t kParallelMinPartWork = size_t{1} << 15;

/** The most threads one parallelFor uses: the CPUs in the process's
 *  affinity mask when first asked (at least 1). */
size_t parallelWidth();

/** Mark the calling thread as a pool worker: its parallelFor calls run
 *  inline from now on. exec::ThreadPool calls it in every worker. */
void markPoolWorkerThread();

/** Number of parallelFor calls in this process that were split across
 *  helper threads (observational; tests use it to see the split path
 *  ran). */
size_t parallelSplitCount();

namespace detail {

using RangeFn = void (*)(void *ctx, size_t begin, size_t end);

void parallelForImpl(size_t n, size_t align, size_t work, RangeFn fn,
                     void *ctx);

} // namespace detail

/**
 * Run body(begin, end) over contiguous parts of [0, n) whose boundaries
 * are multiples of `align` (the last part ends at n), possibly on
 * several threads; see the file comment for when it runs inline.
 *
 * @param work Total work of the range, in the units of
 *             kParallelMinPartWork; sets how many parts are worth it.
 */
template <typename Body>
void
parallelFor(size_t n, size_t align, size_t work, Body &&body)
{
    using B = std::remove_reference_t<Body>;
    detail::parallelForImpl(
        n, align, work,
        [](void *ctx, size_t begin, size_t end) {
            (*static_cast<B *>(ctx))(begin, end);
        },
        const_cast<void *>(
            static_cast<const void *>(std::addressof(body))));
}

} // namespace h2o::common

#endif // H2O_COMMON_PARALLEL_H
