/**
 * @file
 * ShardRunner: one search step across N virtual accelerator shards.
 *
 * runStep() dispatches one task per shard onto a persistent ThreadPool,
 * barrier-waits for all of them (the cross-shard all-reduce point of
 * Figure 2), and reports which shards survived. A pool of one worker
 * runs the shards inline on the calling thread in shard-index order
 * instead (no cross-thread hand-off; nothing else is observable).
 *
 * Shard bodies touch shard-local state only (the shard's own RNG stream
 * and output slots). Everything that touches shared state — the
 * weight-sharing super-network, the batch pipeline, the cross-shard
 * REINFORCE / gradient aggregation — runs on the caller's thread after
 * runStep() returns, over report.survivors() in ascending shard order.
 * That is what keeps results bit-for-bit identical to a serial run at
 * any thread count.
 *
 * Fault tolerance: when a FaultInjector is attached, each shard attempt
 * may be failed (retry with exponential backoff, up to maxAttempts),
 * straggled (delayed), or preempted (shard lost for the step) — see
 * strikeAttempt. A shard whose attempts are exhausted is reported
 * Degraded; the caller aggregates over the surviving shards with scaled
 * baselines. Injected faults strike BEFORE the shard body executes, so a
 * failed attempt leaves no partial side effects. Thrown exceptions from
 * the body are treated as real failures and retried the same way.
 */

#ifndef H2O_EXEC_SHARD_RUNNER_H
#define H2O_EXEC_SHARD_RUNNER_H

#include <cstddef>
#include <functional>
#include <vector>

#include "exec/fault_injector.h"
#include "exec/thread_pool.h"

namespace h2o::exec {

/** Per-shard result of one step. */
enum class ShardState {
    Ok,       ///< completed on the first attempt
    Retried,  ///< completed after >= 1 failed attempt
    Degraded, ///< lost for this step (preempted or attempts exhausted)
};

/** One shard's step report. */
struct ShardResult
{
    ShardState state = ShardState::Ok;
    size_t attempts = 0; ///< attempts actually executed or injected-failed
};

/** One step's report across all shards. */
struct StepReport
{
    std::vector<ShardResult> shards;

    /** Indices of shards that completed (Ok or Retried), in order. */
    std::vector<size_t> survivors() const;

    /** Number of surviving shards. */
    size_t numOk() const { return survivors().size(); }

    /** True when at least one shard was lost this step. */
    bool degraded() const;
};

/** Runner configuration. */
struct ShardRunnerConfig
{
    size_t numShards = 1;
    /** Max attempts per shard per step (>= 1). */
    size_t maxAttempts = 3;
    /** Exponential backoff base between retries, in milliseconds. */
    double backoffBaseMs = 0.5;
};

/**
 * Runs the N shards of one search step concurrently and fault-tolerantly
 * on a caller-owned persistent pool.
 */
class ShardRunner
{
  public:
    /**
     * @param pool     Persistent worker pool (outlives the runner).
     * @param config   Shard count and retry policy.
     * @param injector Optional fault oracle; nullptr injects nothing.
     */
    ShardRunner(ThreadPool &pool, ShardRunnerConfig config,
                FaultInjector *injector = nullptr);

    /**
     * Execute `body(shard)` for every shard of one step and barrier-wait
     * for all of them. The body must touch shard-local state only.
     *
     * @param step Step index, used to key fault-injection decisions.
     */
    StepReport runStep(size_t step,
                       const std::function<void(size_t shard)> &body);

    /** Shard count. */
    size_t numShards() const { return _config.numShards; }

    /** Cumulative count of degraded (lost) shard-steps. */
    uint64_t degradedShardSteps() const { return _degradedShardSteps; }

    /** Steps executed inline on the caller's thread (one-worker pool) /
     *  via pool dispatch — telemetry for the benches and tests. */
    uint64_t inlineSteps() const { return _inlineSteps; }
    uint64_t dispatchedSteps() const { return _dispatchedSteps; }

  private:
    ShardResult runShard(size_t step, size_t shard,
                         const std::function<void(size_t)> &body);

    ThreadPool &_pool;
    ShardRunnerConfig _config;
    FaultInjector *_injector;
    uint64_t _degradedShardSteps = 0;
    uint64_t _inlineSteps = 0;
    uint64_t _dispatchedSteps = 0;
};

} // namespace h2o::exec

#endif // H2O_EXEC_SHARD_RUNNER_H
