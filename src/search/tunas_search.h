/**
 * @file
 * The TuNAS baseline search algorithm (left side of Figure 2): the
 * state-of-the-art alternating two-step RL one-shot search the paper
 * compares against.
 *
 * Each iteration alternates:
 *   W-step: sample alpha from pi, train the shared weights W on a batch
 *           of TRAINING data;
 *   pi-step: sample alpha from pi, evaluate quality on a SEPARATE batch
 *           of VALIDATION data, and apply a REINFORCE update.
 *
 * Differences from the H2O unified single-step algorithm, faithfully
 * reproduced here: two data consumers instead of one (the validation
 * stream is modeled as additional leased batches that never train
 * weights), one candidate per step rather than one per shard (TuNAS "was
 * not built for hyperscale deployments, and therefore lacks
 * parallelism"), and twice the steps for the same number of updates.
 */

#ifndef H2O_SEARCH_TUNAS_SEARCH_H
#define H2O_SEARCH_TUNAS_SEARCH_H

#include "common/rng.h"
#include "controller/reinforce.h"
#include "exec/run_options.h"
#include "pipeline/pipeline.h"
#include "reward/reward.h"
#include "search/surrogate_search.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

namespace h2o::search {

/** Configuration of the alternating baseline. TuNAS runs one shard: the
 *  fleet options (exec::RunOptions) serve its pi-step with at most one
 *  worker, and an injected fault strikes the whole warm-up, W- or
 *  pi-step (a preempted step is simply lost). The pi-step's quality
 *  comes from the supernet's packed multi-candidate pass
 *  (DlrmSupernet::evaluateBatch) on the coordinator. */
struct TunasSearchConfig : exec::RunOptions
{
    size_t numIterations = 200; ///< one W-step + one pi-step each
    double weightLr = 0.05;
    size_t warmupSteps = 30;
    controller::ReinforceConfig rl{};
    /** Joint multi-target annotation; disabled (empty) by default. */
    MultiTargetSpec multiTarget{};
};

/** The TuNAS alternating two-step searcher. */
class TunasSearch
{
  public:
    TunasSearch(const searchspace::DlrmSearchSpace &space,
                supernet::DlrmSupernet &supernet,
                pipeline::InMemoryPipeline &pipe, PerfFn perf,
                const reward::RewardFunction &rewardf,
                TunasSearchConfig config);

    /** As above with a batched performance stage. */
    TunasSearch(const searchspace::DlrmSearchSpace &space,
                supernet::DlrmSupernet &supernet,
                pipeline::InMemoryPipeline &pipe, PerfBatchFn perf_batch,
                const reward::RewardFunction &rewardf,
                TunasSearchConfig config);

    /** Run the search to completion. */
    SearchOutcome run(common::Rng &rng);

    /** Step-wise execution (one W-step + one pi-step per call);
     *  bit-identical to run() — see search/stepwise.h. The searcher and
     *  its supernet/pipeline must outlive the stepper. */
    std::unique_ptr<StepwiseSearch> makeStepper(common::Rng &rng);

  private:
    friend class TunasStepper;

    TunasSearch(const searchspace::DlrmSearchSpace &space,
                supernet::DlrmSupernet &supernet,
                pipeline::InMemoryPipeline &pipe, eval::PerfStage perf,
                const reward::RewardFunction &rewardf,
                TunasSearchConfig config);

    const searchspace::DlrmSearchSpace &_space;
    supernet::DlrmSupernet &_supernet;
    pipeline::InMemoryPipeline &_pipeline;
    eval::PerfStage _perf;
    const reward::RewardFunction &_reward;
    TunasSearchConfig _config;
};

} // namespace h2o::search

#endif // H2O_SEARCH_TUNAS_SEARCH_H
