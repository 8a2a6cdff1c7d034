/**
 * @file
 * ProcRunner: one search step across N shards on a ProcPool of worker
 * PROCESSES — the multi-process counterpart of ShardRunner.
 *
 * The thread runtime executes an arbitrary shard body closure; a
 * process boundary cannot ship a closure, so ProcRunner executes a
 * ProcShardTask codec instead: `encode(shard)` runs coordinator-side at
 * the exact point the thread path would run the shard body (so it may
 * draw from the shard's policy stream), the named registered task runs
 * the pure heavy work inside a worker process, and `decode(shard,
 * response)` applies the result coordinator-side — after the step
 * barrier, in ascending shard order, which is the order the thread
 * path's callers aggregate survivors in. Worker tasks are pure, so any
 * worker count (including 1) produces byte-identical results to the
 * thread path.
 *
 * Fault semantics are the thread runtime's, extended across process
 * death:
 *  - Injected faults (FaultInjector) strike coordinator-side before
 *    encode through the same strikeAttempt policy as ShardRunner —
 *    same decisions, same degradation pattern, same RNG
 *    non-advancement for preempted shards.
 *  - A task that THROWS in the worker counts as a thrown shard body:
 *    warn, consume the attempt, re-encode and retry (the thread path
 *    would also re-run the body).
 *  - Worker DEATH (kill -9, crash) is a transport failure: the
 *    in-flight shard consumes an attempt but keeps its encoded request
 *    (its RNG stream must not advance twice), the worker is respawned
 *    from current coordinator state between rounds, and the shard is
 *    retried with the SAME request bytes — a successful retry makes the
 *    whole run byte-identical to an unkilled one. Shards queued behind
 *    the corpse consume nothing and simply run in the next round. A
 *    shard whose attempts exhaust degrades exactly like an injected
 *    fault: excluded from the step's aggregation, search continues.
 */

#ifndef H2O_EXEC_PROC_RUNNER_H
#define H2O_EXEC_PROC_RUNNER_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exec/fault_injector.h"
#include "exec/proc_transport.h"
#include "exec/shard_runner.h"
#include "exec/thread_pool.h"

namespace h2o::exec {

/** The codec ProcRunner drives one step with (see file comment). */
struct ProcShardTask
{
    /** Registered task name (must predate the pool's forks). */
    std::string name;
    /** Coordinator-side: produce the shard's request bytes. Runs when
     *  the shard's attempt executes — exactly where the thread path
     *  runs the shard body — and at most once per step unless it (or
     *  the worker task) throws. May touch shard-local state only. */
    std::function<std::string(size_t shard)> encode;
    /** Coordinator-side: apply a surviving shard's response. Called
     *  after the step barrier, ascending shard order, caller's thread —
     *  free to touch shared state. */
    std::function<void(size_t shard, const std::string &response)> decode;
};

/**
 * Runs the N shards of one step across the transport's worker slots —
 * forked processes, remote daemons, or a mix — fault-tolerantly (see
 * file comment). Shard s is pinned to slot s % workers; each slot's
 * shards execute in ascending order.
 */
class ProcRunner
{
  public:
    /**
     * @param pool     Worker transport (caller-owned, outlives the
     *                 runner): a ProcPool, RemotePool or MixedTransport.
     *                 It must not serve unrelated calls during
     *                 runStep().
     * @param config   Shard count and retry policy (shared struct with
     *                 ShardRunner). A 1-worker transport is driven from
     *                 the caller's thread.
     * @param injector Optional fault oracle; nullptr injects nothing.
     */
    ProcRunner(ShardTransport &pool, ShardRunnerConfig config,
               FaultInjector *injector = nullptr);

    /** Execute one step of `task` across all shards and barrier-wait.
     *  @param step Step index keying fault-injection decisions. */
    StepReport runStep(size_t step, const ProcShardTask &task);

    /** Shard count. */
    size_t numShards() const { return _config.numShards; }

    /** Cumulative count of degraded (lost) shard-steps. */
    uint64_t degradedShardSteps() const { return _degradedShardSteps; }

    /** Transport failures observed (worker deaths mid-call). */
    uint64_t transportFailures() const { return _transportFailures; }

    /** Steps executed. */
    uint64_t stepsRun() const { return _stepsRun; }

    /** The underlying transport (telemetry, test kill hooks). */
    ShardTransport &pool() { return _pool; }
    const ShardTransport &pool() const { return _pool; }

  private:
    /** Per-shard, per-step retry state. */
    struct ShardAttempt
    {
        size_t attemptsUsed = 0;
        std::optional<std::string> request;  ///< cached encode() output
        std::optional<std::string> response; ///< set on success
        ShardResult result;
        bool settled = false; ///< responded or degraded
    };

    /** Drive one shard's attempt loop on its worker. Returns false
     *  when the worker died mid-call (shard left pending, queued
     *  shards behind it defer to the next round). */
    bool runShardAttempts(size_t step, size_t shard, size_t worker,
                          const ProcShardTask &task, ShardAttempt &st);

    ShardTransport &_pool;
    ShardRunnerConfig _config;
    FaultInjector *_injector;
    ThreadPool _io; ///< one blocking-I/O lane per worker process
    uint64_t _degradedShardSteps = 0;
    uint64_t _transportFailures = 0;
    uint64_t _stepsRun = 0;
};

} // namespace h2o::exec

#endif // H2O_EXEC_PROC_RUNNER_H
