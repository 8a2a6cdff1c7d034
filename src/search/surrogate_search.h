/**
 * @file
 * Surrogate-quality H2O-NAS search.
 *
 * For the vision domains (CNN / ViT) this repository cannot train real
 * ImageNet-scale networks, so quality comes from a calibrated analytical
 * quality model while performance comes honestly from the hardware
 * simulator / performance model (see DESIGN.md, substitution table).
 * The NAS machinery — sampling from pi, the multi-objective reward, the
 * massively parallel cross-shard REINFORCE update, argmax finalization —
 * is the same code path the DLRM search uses.
 *
 * Each step draws `samplesPerStep` candidates (the virtual accelerator
 * shards of Figure 2), evaluates them concurrently on the h2o::exec
 * runtime's persistent worker pool, and applies one aggregated policy
 * update over the shards that survived the step (all of them unless a
 * FaultInjector is attached).
 */

#ifndef H2O_SEARCH_SURROGATE_SEARCH_H
#define H2O_SEARCH_SURROGATE_SEARCH_H

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "controller/reinforce.h"
#include "eval/eval_engine.h"
#include "exec/run_options.h"
#include "reward/reward.h"
#include "search/pareto.h"
#include "searchspace/decision_space.h"

namespace h2o::search {

class StepwiseSearch;

/** Sample -> quality signal (higher is better). */
using QualityFn = std::function<double(const searchspace::Sample &)>;

/** Sample -> performance objective values (parallel to the reward's). */
using PerfFn = eval::PerfFn;

/** Batched performance stage (see eval::PerfBatchFn). */
using PerfBatchFn = eval::PerfBatchFn;

/** One evaluated candidate. */
struct CandidateRecord
{
    searchspace::Sample sample;
    double quality = 0.0;
    std::vector<double> performance;
    double reward = 0.0;
    size_t step = 0;
};

/**
 * Annotation that a search scores each candidate across k deployment
 * targets (hw::TargetSet order). Costs live in the usual per-candidate
 * performance vector: performance[perfOffset + c] is target c's cost.
 * An empty name list means single-target mode — every stepper then
 * behaves (and checkpoints) exactly as before this field existed.
 */
struct MultiTargetSpec
{
    std::vector<std::string> targetNames; ///< ordered; empty = disabled
    size_t perfOffset = 0; ///< index of target 0's cost in performance

    bool enabled() const { return !targetNames.empty(); }
    size_t numTargets() const { return targetNames.size(); }
};

/** One target's Pareto front (quality vs that target's cost) over a
 *  search history. */
struct TargetFront
{
    std::string target;          ///< target name (chip registry name)
    std::vector<size_t> indices; ///< into history, cost ascending
};

/** Search outcome. */
struct SearchOutcome
{
    searchspace::Sample finalSample;   ///< per-decision argmax of pi
    std::vector<CandidateRecord> history;
    double finalEntropy = 0.0;
    double finalMeanReward = 0.0;
    /** Per-target Pareto fronts, one per MultiTargetSpec entry (empty
     *  for single-target searches). Derived from history by finish() —
     *  never serialized, so checkpoint bytes are unchanged. */
    std::vector<TargetFront> targetFronts;
};

/** Search configuration. With worker processes or daemons
 *  (exec::RunOptions) the quality and per-candidate performance
 *  functions run inside the workers, so they must be pure. */
struct SurrogateSearchConfig : exec::RunOptions
{
    size_t numSteps = 200;
    size_t samplesPerStep = 16; ///< parallel shards per step
    controller::ReinforceConfig rl{};
    /** Worker threads; 0 = one per CPU in the affinity mask. Clamped
     *  to samplesPerStep. One worker runs the shard bodies inline on
     *  the caller's thread. Any value yields bit-identical results. */
    size_t threads = 0;
    /** Joint multi-target annotation; disabled (empty) by default. */
    MultiTargetSpec multiTarget{};
};

/** The surrogate-quality searcher. */
class SurrogateSearch
{
  public:
    /**
     * @param space   Decision space.
     * @param quality Quality signal (thread-safe when threads != 1).
     * @param perf    Performance signal (same thread-safety requirement).
     *                Runs per candidate INSIDE the shard body, so a
     *                blocking function (device-in-the-loop) overlaps
     *                across worker threads.
     * @param rewardf Multi-objective reward combining the two.
     */
    SurrogateSearch(const searchspace::DecisionSpace &space,
                    QualityFn quality, PerfFn perf,
                    const reward::RewardFunction &rewardf,
                    SurrogateSearchConfig config);

    /** As above with a batched performance stage: one coordinator-side
     *  call per step over the step's surviving candidates (perf-model /
     *  simulator batch entry points) instead of one call per candidate. */
    SurrogateSearch(const searchspace::DecisionSpace &space,
                    QualityFn quality, PerfBatchFn perf_batch,
                    const reward::RewardFunction &rewardf,
                    SurrogateSearchConfig config);

    /** Run the search to completion. */
    SearchOutcome run(common::Rng &rng);

    /** Step-wise execution of the same search: driving the stepper to
     *  exhaustion then calling finish() is bit-identical to run() (see
     *  search/stepwise.h). @p rng seeds the per-shard streams; it is
     *  forked up front, not referenced afterwards. The searcher must
     *  outlive the stepper. */
    std::unique_ptr<StepwiseSearch> makeStepper(common::Rng &rng);

  private:
    friend class SurrogateStepper;

    SurrogateSearch(const searchspace::DecisionSpace &space,
                    QualityFn quality, eval::PerfStage perf,
                    const reward::RewardFunction &rewardf,
                    SurrogateSearchConfig config);

    const searchspace::DecisionSpace &_space;
    QualityFn _quality;
    eval::PerfStage _perf;
    const reward::RewardFunction &_reward;
    SurrogateSearchConfig _config;
};

} // namespace h2o::search

#endif // H2O_SEARCH_SURROGATE_SEARCH_H
