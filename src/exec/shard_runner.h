/**
 * @file
 * ShardRunner: one search step across N virtual accelerator shards.
 *
 * runStep() runs every shard of one step, barrier-waits for all of them
 * (the cross-shard all-reduce point of Figure 2), and reports which
 * shards survived. Shards run on lanes: lane l starts on shard l, then
 * claims the next shard from the step's cursor, so a lane that finishes
 * early takes more. A one-lane step runs inline on the calling thread;
 * otherwise each lane is one task on the caller-owned ThreadPool.
 * forEach() runs plain items (no faults, no retries) through the same
 * lane loop.
 *
 * A step's work takes one of two forms, driven by the same attempt loop:
 *  - a closure `body(shard)`, run on the lanes (L = pool width). Shard
 *    bodies touch shard-local state only (the shard's own RNG stream and
 *    output slots);
 *  - a ProcShardTask, shipped to the worker slots of a ShardTransport
 *    (L = slot count, lane w drives slot w): `encode(shard)` runs on the
 *    lane where a closure would run, the named task runs the pure heavy
 *    work in a worker process or daemon, and `decode(shard, response)`
 *    applies the result on the caller after the barrier.
 *
 * Everything that aggregates across shards — the cross-shard REINFORCE
 * / gradient reduce, decode — runs on the caller's thread after the
 * barrier, over report.survivors() in ascending shard order. That is
 * what keeps results bit-for-bit identical to a serial run at any lane
 * count and fleet shape.
 *
 * Fault tolerance:
 *  - Injected faults (FaultInjector) strike before the shard's work: a
 *    failed attempt backs off exponentially and retries (up to
 *    maxAttempts), a straggled one is delayed, a preempted shard is lost
 *    for the step. A struck attempt has no side effects, so a preempted
 *    shard never advances its RNG stream.
 *  - A body, encode or worker task that THROWS consumes the attempt and
 *    is retried the same way (a task step re-encodes).
 *  - Worker DEATH (kill -9, crash, dropped connection) consumes the
 *    in-flight shard's attempt but keeps its encoded request: the step
 *    runs another round, dead slots are respawned from current
 *    coordinator state between rounds, and the shard is retried with
 *    the SAME request bytes (its RNG stream never advances twice), so a
 *    successful retry is byte-identical to an unkilled run. The dead
 *    slot's lane stops claiming; the other lanes take the shards left
 *    in the round.
 * A shard whose attempts are exhausted is reported Degraded; the caller
 * aggregates over the survivors with scaled baselines.
 */

#ifndef H2O_EXEC_SHARD_RUNNER_H
#define H2O_EXEC_SHARD_RUNNER_H

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exec/fault_injector.h"
#include "exec/thread_pool.h"

namespace h2o::exec {

class ShardTransport;

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

/** The codec a transport step runs (see file comment). */
struct ProcShardTask
{
    /** Registered task name (must predate the transport's forks). */
    std::string name;
    /** Produce the shard's request bytes. Runs where a closure step
     *  runs its body, at most once per step unless it (or the worker
     *  task) throws. May touch shard-local state only. */
    std::function<std::string(size_t shard)> encode;
    /** Apply a surviving shard's response. Called after the step
     *  barrier, ascending shard order, caller's thread — free to touch
     *  shared state. */
    std::function<void(size_t shard, const std::string &response)> decode;
};

/**
 * Runs the N shards of one search step concurrently and fault-tolerantly
 * on a caller-owned persistent pool, optionally shipping their work to
 * a worker transport (see file comment).
 */
class ShardRunner
{
  public:
    /**
     * @param pool      Persistent lane pool (outlives the runner).
     * @param config    Shard count and retry policy.
     * @param injector  Optional fault oracle; nullptr injects nothing.
     * @param transport Optional worker transport (caller-owned,
     *                  outlives the runner) for ProcShardTask steps: a
     *                  ProcPool, RemotePool or MixedTransport. It must
     *                  not serve unrelated calls during runStep().
     */
    ShardRunner(ThreadPool &pool, ShardRunnerConfig config,
                FaultInjector *injector = nullptr,
                ShardTransport *transport = nullptr);

    /**
     * Execute `body(shard)` for every shard of one step and barrier-wait
     * for all of them. The body must touch shard-local state only.
     *
     * @param step Step index, used to key fault-injection decisions.
     */
    StepReport runStep(size_t step,
                       const std::function<void(size_t shard)> &body);

    /** Execute one step of `task` across the transport's worker slots
     *  and barrier-wait; requires a transport. */
    StepReport runStep(size_t step, const ProcShardTask &task);

    /**
     * Run `body(item, lane)` for every item in [0, items) on the lanes
     * (the pool's width, at most `items`), each lane claiming the next
     * item in ascending order, and barrier-wait. No fault decisions are
     * consumed and nothing is retried: this is for work on already
     * settled shards (a supernet step's per-survivor forward/backward).
     * Concurrent calls of `body` share the lane index only within one
     * lane, so per-lane state indexed by `lane` needs no locking.
     *
     * @param lead Optional work for the calling thread while the lanes
     *             run (before the lane, when there is only one): e.g.
     *             producing the items' inputs in order for bodies that
     *             wait on them. It must not wait on any body.
     */
    void forEach(size_t items,
                 const std::function<void(size_t item, size_t lane)> &body,
                 const std::function<void()> &lead = nullptr);

    /** Lanes a closure step or forEach() may use (the pool's width). */
    size_t lanes() const { return _pool.size(); }

    /** Cumulative count of degraded (lost) shard-steps. */
    uint64_t degradedShardSteps() const { return _degradedShardSteps; }

    /** Transport failures observed (worker deaths mid-call). */
    uint64_t transportFailures() const { return _transportFailures; }

    /** Steps executed inline on the caller's thread (one lane) / on
     *  the pool's lanes — telemetry for the benches and tests. */
    uint64_t inlineSteps() const { return _inlineSteps; }
    uint64_t dispatchedSteps() const { return _dispatchedSteps; }

  private:
    /** Per-shard, per-step retry state. */
    struct ShardAttempt
    {
        size_t attemptsUsed = 0;
        std::optional<std::string> request;  ///< cached encode() output
        std::optional<std::string> response; ///< set on success
        ShardResult result;
        bool settled = false; ///< completed or degraded
    };

    /** One attempt's work for a shard on a lane. Returns false when
     *  the lane's worker died mid-call; throws when the work failed. */
    using AttemptFn =
        std::function<bool(size_t shard, size_t lane, ShardAttempt &st)>;

    /** Drive one shard's attempt loop. Returns false when the worker
     *  died mid-call (shard left pending). */
    bool runAttempts(size_t step, size_t shard, size_t lane,
                     const AttemptFn &work, ShardAttempt &st);

    /** Run `lane(l)` for l in [0, lanes): inline when one lane,
     *  otherwise as pool tasks while `lead` (when set) runs on the
     *  caller; barrier-waits for all of them. */
    void onLanes(size_t lanes, const std::function<void(size_t)> &lane,
                 const std::function<void()> &lead = nullptr);

    /** The lane loop: rounds of lanes until every shard settled (dead
     *  transport slots respawn between rounds), then the report. */
    StepReport runLanes(size_t step, size_t lanes, const AttemptFn &work,
                        std::vector<ShardAttempt> &shards);

    ThreadPool &_pool;
    ShardRunnerConfig _config;
    FaultInjector *_injector;
    ShardTransport *_transport;
    uint64_t _degradedShardSteps = 0;
    uint64_t _transportFailures = 0;
    uint64_t _inlineSteps = 0;
    uint64_t _dispatchedSteps = 0;
};

} // namespace h2o::exec

#endif // H2O_EXEC_SHARD_RUNNER_H
