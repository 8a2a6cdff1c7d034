/**
 * @file
 * The full H2O-NAS search for DLRM: the massively parallel UNIFIED
 * single-step algorithm of Section 4 (right side of Figure 2), wired to
 * the real weight-sharing super-network and the in-memory production
 * traffic pipeline.
 *
 * Each search step runs three stages across N virtual accelerator
 * shards:
 *
 *  (1) each shard samples its own candidate alpha_i from pi and runs a
 *      forward pass with the shared weights W on a FRESH batch from the
 *      pipeline to estimate the quality Q(alpha_i);
 *  (2) Q(alpha_i) and the performance model's T(alpha_i) form the reward
 *      R(alpha_i); all shards' rewards feed ONE cross-shard REINFORCE
 *      update of pi;
 *  (3) in parallel (same step, same batches), all shards backpropagate
 *      their candidates and the merged cross-shard gradient updates the
 *      shared weights W.
 *
 * The pipeline's BatchLease enforces the alpha-before-W invariant: the
 * batch informs the architecture decision before it trains weights, so
 * pi is always learned on data W has never seen — the property that
 * replaces the train/validation split (Section 4.1).
 *
 * Execution model: steps run on the h2o::exec runtime. Shards of one
 * step draw their candidates concurrently on a persistent worker pool
 * (threads stand in for TPU cores), with per-candidate perf-model queries
 * riding along. The survivors then train data-parallel on the same
 * lanes: batches are leased in ascending shard order, each candidate's
 * forward/backward reads the shared weights and writes its own shard
 * gradient, and the coordinator sums the shard gradients in ascending
 * shard order inside one fused SGD step. Results are therefore
 * bit-for-bit identical at any thread count. With a
 * FaultInjector attached, the runtime also reproduces the paper's
 * preemptible-fleet reality: failed shards retry with backoff, preempted
 * shards are dropped and the step aggregates over the survivors with
 * scaled baselines. With a checkpoint path configured, the full search
 * state (policy, baseline, supernet weights, pipeline cursor, shard RNG
 * streams, telemetry, candidate history) is committed atomically every
 * few steps, and a restarted search resumes to an identical
 * SearchOutcome.
 */

#ifndef H2O_SEARCH_H2O_DLRM_SEARCH_H
#define H2O_SEARCH_H2O_DLRM_SEARCH_H

#include <functional>
#include <string>

#include "common/rng.h"
#include "controller/reinforce.h"
#include "exec/run_options.h"
#include "pipeline/pipeline.h"
#include "reward/reward.h"
#include "search/surrogate_search.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

namespace h2o::search {

/** Sample -> performance objective values (e.g. via the perf model). */
using DlrmPerfFn = PerfFn;

/** Batched performance stage (one call per step over the survivors). */
using DlrmPerfBatchFn = PerfBatchFn;

/** Configuration of the unified single-step search. The fleet and
 *  retry options (exec::RunOptions) reach the shard stage unchanged;
 *  worker processes and daemons run the pure per-candidate work, while
 *  the supernet trains on the coordinator process's lanes. */
struct H2oSearchConfig : exec::RunOptions
{
    size_t numShards = 8;      ///< virtual accelerators per step
    size_t numSteps = 200;
    double weightLr = 0.05;    ///< shared-weight SGD learning rate
    /** Steps of pure weight warm-up (uniform sampling, no policy
     *  updates) so early rewards are not dominated by random init. */
    size_t warmupSteps = 30;
    controller::ReinforceConfig rl{};

    /** Worker threads (lanes) for the shard draws, per-candidate perf
     *  and the survivors' forward/backward; 0 = one per CPU in the
     *  affinity mask. Clamped to numShards. Any value yields
     *  bit-identical results at the same seed. */
    size_t threads = 0;

    // --- Checkpoint/resume.
    /** Checkpoint file; empty disables checkpointing. When the file
     *  already exists, run() resumes from it instead of starting over. */
    std::string checkpointPath;
    /** Steps between checkpoint commits. */
    size_t checkpointEvery = 1;

    /** Joint multi-target annotation (per-chip costs in the
     *  performance vectors, per-chip Pareto fronts in the outcome,
     *  checkpoint version 2); disabled (empty) by default — checkpoint
     *  bytes are then exactly the historical version-1 layout. */
    MultiTargetSpec multiTarget{};
};

/** Step-level telemetry. */
struct H2oStepStats
{
    size_t step = 0;
    double meanReward = 0.0;
    double meanQuality = 0.0;
    double meanEntropy = 0.0;
    double trainLoss = 0.0;
    /** Shards that survived this step (== numShards without faults). */
    size_t liveShards = 0;
};

/** The unified single-step DLRM searcher. */
class H2oDlrmSearch
{
  public:
    /**
     * @param space    DLRM search space.
     * @param supernet Trainable weight-sharing super-network.
     * @param pipe     In-memory production-traffic pipeline.
     * @param perf     Performance signal (thread-safe). Runs per
     *                 candidate INSIDE the shard body, so a blocking
     *                 function (device-in-the-loop) overlaps across
     *                 worker threads.
     * @param rewardf  Multi-objective reward.
     */
    H2oDlrmSearch(const searchspace::DlrmSearchSpace &space,
                  supernet::DlrmSupernet &supernet,
                  pipeline::InMemoryPipeline &pipe, DlrmPerfFn perf,
                  const reward::RewardFunction &rewardf,
                  H2oSearchConfig config);

    /** As above with a batched performance stage (perf-model /
     *  simulator batch entry points, one coordinator-side call per
     *  step over the survivors). */
    H2oDlrmSearch(const searchspace::DlrmSearchSpace &space,
                  supernet::DlrmSupernet &supernet,
                  pipeline::InMemoryPipeline &pipe,
                  DlrmPerfBatchFn perf_batch,
                  const reward::RewardFunction &rewardf,
                  H2oSearchConfig config);

    /** Run the search to completion (resuming from the configured
     *  checkpoint when one exists). */
    SearchOutcome run(common::Rng &rng);

    /** Step-wise execution; bit-identical to run() (see
     *  search/stepwise.h). Warm-up runs lazily inside the first step();
     *  a load()ed stepper skips it (the restored weights contain it).
     *  stepStats() accumulates as the stepper advances. The searcher
     *  and its supernet/pipeline must outlive the stepper. Unlike
     *  run(), makeStepper ignores checkpointPath — the caller owns
     *  persistence via save()/load(). */
    std::unique_ptr<StepwiseSearch> makeStepper(common::Rng &rng);

    /** Per-step telemetry from the last run(). */
    const std::vector<H2oStepStats> &stepStats() const { return _stats; }

  private:
    friend class H2oDlrmStepper;

    H2oDlrmSearch(const searchspace::DlrmSearchSpace &space,
                  supernet::DlrmSupernet &supernet,
                  pipeline::InMemoryPipeline &pipe, eval::PerfStage perf,
                  const reward::RewardFunction &rewardf,
                  H2oSearchConfig config);

    const searchspace::DlrmSearchSpace &_space;
    supernet::DlrmSupernet &_supernet;
    pipeline::InMemoryPipeline &_pipeline;
    eval::PerfStage _perf;
    const reward::RewardFunction &_reward;
    H2oSearchConfig _config;
    std::vector<H2oStepStats> _stats;
};

} // namespace h2o::search

#endif // H2O_SEARCH_H2O_DLRM_SEARCH_H
