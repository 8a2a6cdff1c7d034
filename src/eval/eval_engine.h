/**
 * @file
 * eval::EvalEngine — the candidate -> reward evaluation pipeline shared
 * by every search loop.
 *
 * One search step evaluates N candidates (the virtual accelerator
 * shards of Figure 2). Before this subsystem each search loop owned its
 * own copy of the plumbing: a ThreadPool + ShardRunner pair, a per-shard
 * body that sampled/evaluated/rewarded one candidate, and ad-hoc
 * survivor bookkeeping. EvalEngine centralizes that pipeline:
 *
 *   1. draw + quality stage — the caller's draw-only shard body runs
 *      per shard INSIDE ShardRunner::runStep, so FaultInjector semantics
 *      hold: an injected fault strikes before the shard body, a degraded
 *      shard never draws its sample and never advances its RNG stream.
 *      Quality then comes from one of two sources:
 *      - the constructor's PURE QualityFn, per candidate inside the
 *        shard body (or inside a worker process in proc mode);
 *      - a QualityBatchFn passed to evaluate(), ONE call on the
 *        coordinator over the survivors in ascending shard order.
 *        Quality that touches shared state (the weight-sharing
 *        supernet, the batch pipeline) goes here. The call may fan out
 *        over runner().forEach() — the H2O supernet step leases the
 *        survivors' batches in shard order on the coordinator while the
 *        lanes run each candidate's forward/backward, reading the
 *        shared weights and writing only that shard's gradient.
 *   2. performance stage — in one of two modes, chosen by which functor
 *      type the engine is built with:
 *      - PerfBatchFn: ONE batched call over the step's surviving
 *        candidates, on the coordinator thread. Callers back it with the
 *        batched entry points (PerfModel::predictBatch,
 *        Simulator::runBatch behind a SimCache), amortizing feature
 *        packing, striped-lock traffic and workspace setup across the
 *        step. Use this for cheap, pure, CPU-side functions.
 *      - PerfFn: per candidate, INSIDE the shard body on the worker
 *        pool. Use this when the function occupies a device or
 *        otherwise blocks (the production shape: each shard's candidate
 *        runs on a remote accelerator) — shard occupancy then overlaps
 *        across worker threads instead of serializing on the
 *        coordinator.
 *      Performance functions are pure, so the two modes produce
 *      element-for-element identical values.
 *   3. reward stage — the multi-objective RewardFunction over
 *      (quality, performance), per surviving shard, in shard order.
 *
 * Aggregation (REINFORCE update, merged weight update) stays in the
 * caller, which consumes StepEval in shard-index order on its own
 * thread — bit-for-bit identical to a serial run at any thread count.
 */

#ifndef H2O_EVAL_EVAL_ENGINE_H
#define H2O_EVAL_EVAL_ENGINE_H

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "exec/proc_transport.h"
#include "exec/run_options.h"
#include "exec/shard_runner.h"
#include "exec/thread_pool.h"
#include "reward/reward.h"
#include "searchspace/decision_space.h"

namespace h2o::eval {

/** Candidate -> performance objective values (e.g. perf-model query). */
using PerfFn =
    std::function<std::vector<double>(const searchspace::Sample &)>;

/** Candidate -> quality signal; PURE (same candidate, same answer,
 *  regardless of process or thread). Drives the evaluate(step,
 *  SampleBodyFn) overload: inside the shard body on the thread path,
 *  inside the worker processes in proc mode. */
using QualityFn = std::function<double(const searchspace::Sample &)>;

/** Batch of candidates -> objective values, one vector per candidate.
 *  The batched analogue of PerfFn; must be pure (same answer for the
 *  same sample regardless of batch composition). A multi-target search
 *  returns each candidate's PER-CHIP cost vector here (one serving
 *  step time per deployment target, in hw::TargetSet order — see
 *  CachedDlrmTimer::serveStepTimesMulti); the engine treats it as any
 *  other objective vector and the reward/front layers interpret the
 *  per-chip columns. */
using PerfBatchFn = std::function<std::vector<std::vector<double>>(
    std::span<const searchspace::Sample>)>;

/** Wrap a per-candidate performance function into a PerfBatchFn. */
PerfBatchFn batchify(PerfFn fn);

/**
 * The performance stage in one of its two execution modes (see the file
 * comment). Implicitly constructible from either functor type, so search
 * ctor overloads forward their performance argument straight through.
 */
struct PerfStage
{
    /** Per-candidate mode: runs inside the shard body on the worker
     *  pool (device-in-the-loop / blocking functions). */
    PerfStage(PerfFn fn) : perCandidate(std::move(fn)) {}
    /** Batched mode: one coordinator-side call per step over the
     *  surviving candidates (batch entry points). */
    PerfStage(PerfBatchFn fn) : batched(std::move(fn)) {}

    PerfFn perCandidate;  ///< exactly one of the two is non-null
    PerfBatchFn batched;
};

/** Engine configuration: the shard count, the coordinator's thread
 *  count and the shared fleet/retry options (exec::RunOptions). With
 *  `procs` or `workers` set the engine ships each shard's pure work to
 *  worker processes / daemons and sizes its pool to their slot count
 *  instead of `threads`. Every thread count and fleet shape yields
 *  byte-identical results. */
struct EvalEngineConfig : exec::RunOptions
{
    /** Virtual accelerator shards = candidates per step. */
    size_t numShards = 1;
    /** Worker threads; 0 = one per CPU in the affinity mask. Clamped to
     *  numShards. One worker runs the shard bodies inline on the
     *  evaluate() caller's thread. */
    size_t threads = 0;
};

/**
 * One evaluated step. Vectors are indexed by shard; entries for
 * degraded shards are value-initialized and excluded from `survivors`.
 */
struct StepEval
{
    std::vector<searchspace::Sample> samples;
    std::vector<double> qualities;
    std::vector<std::vector<double>> performance;
    std::vector<double> rewards;
    /** Shards that completed the quality stage, ascending. */
    std::vector<size_t> survivors;
    exec::StepReport report;
};

/**
 * The engine. Owns the persistent worker pool, the worker transport (in
 * fleet mode) and the fault-tolerant ShardRunner over both; outlives
 * many evaluate() calls.
 */
class EvalEngine
{
  public:
    /**
     * Draw-only shard body: fill in the shard's candidate (from the
     * shard's own RNG stream, so a degraded shard leaves its stream
     * untouched) WITHOUT computing quality. Touches shard-local state
     * only; in proc mode it runs coordinator-side.
     */
    using SampleBodyFn =
        std::function<void(size_t shard, searchspace::Sample &sample)>;

    /**
     * Batched quality stage: one coordinator-side call per step over the
     * step's surviving candidates, in ascending shard order — the order
     * a serial run visits them. Returns one quality per candidate (same
     * indexing as `samples`).
     *
     * @param shards  Surviving shard indices, ascending.
     * @param samples The candidates those shards drew, same order.
     */
    using QualityBatchFn = std::function<std::vector<double>(
        std::span<const size_t> shards,
        std::span<const searchspace::Sample> samples)>;

    /**
     * @param perf    Performance stage (pure). A PerfBatchFn runs once
     *                per step on the caller's thread; a PerfFn runs per
     *                candidate inside the shard body (or inside a
     *                worker process in proc mode).
     * @param rewardf Multi-objective reward; not owned, must outlive
     *                the engine.
     * @param config  Shard count and runtime knobs.
     * @param quality Optional PURE per-candidate quality. Enables the
     *                evaluate(step, SampleBodyFn) overload; in proc
     *                mode it runs inside the worker processes (it is
     *                captured before the workers fork).
     */
    EvalEngine(PerfStage perf, const reward::RewardFunction &rewardf,
               EvalEngineConfig config, QualityFn quality = nullptr);

    /**
     * Evaluate one step with the constructor's pure quality (required):
     * run `body` for every shard (concurrently, fault-tolerantly), with
     * quality — and a per-candidate performance stage, when configured
     * — computed per candidate inside the shard body on the thread path
     * or inside the worker processes in proc mode; then one batched
     * performance call and the reward over the survivors.
     *
     * @param step Step index keying fault-injection decisions; callers
     *             with multiple runStep phases (warm-up, W-steps) must
     *             keep the combined sequence strictly increasing.
     */
    StepEval evaluate(size_t step, const SampleBodyFn &body);

    /**
     * As above, but quality comes from ONE `quality` call over the
     * survivors on this thread, after the shard stage (per-candidate
     * performance still rides along inside the shard body when
     * configured). The constructor's quality is not used.
     */
    StepEval evaluate(size_t step, const SampleBodyFn &body,
                      const QualityBatchFn &quality);

    /** The underlying runner, for non-evaluation steps (weight
     *  warm-up, W-steps) that must share the fault-injection step
     *  sequence. */
    exec::ShardRunner &runner() { return _runner; }

    /** Shard count. */
    size_t numShards() const { return _config.numShards; }

    /** Per-worker transport/liveness counters; empty on the thread
     *  path (no worker processes to report on). */
    exec::ProcPoolStats transportStats() const
    {
        return _transport ? _transport->stats() : exec::ProcPoolStats{};
    }

  private:
    /** Shared stage-2/3 tail: batched performance over the survivors,
     *  then the reward in shard-index order. */
    void finishStep(StepEval &ev);

    /** Stage 1 under the fault-tolerant runner: draw, plus the
     *  per-candidate quality (`withQuality`) and performance stages,
     *  per shard — in the shard bodies on the thread path, in the
     *  worker processes in fleet mode (`withQuality` = ask workers for
     *  quality). Fills in survivors. */
    StepEval runShards(size_t step, const SampleBodyFn &body,
                       bool withQuality);

    PerfStage _perf;
    const reward::RewardFunction &_reward;
    EvalEngineConfig _config;
    QualityFn _quality;
    /** Process/remote transport (procs > 0 or workers nonempty only).
     *  Registration order matters: the task must be registered before
     *  workers fork and before remote connections handshake. */
    std::unique_ptr<exec::ProcTaskRegistration> _taskReg;
    std::unique_ptr<exec::ShardTransport> _transport;
    exec::ThreadPool _pool;
    exec::ShardRunner _runner;
};

} // namespace h2o::eval

#endif // H2O_EVAL_EVAL_ENGINE_H
