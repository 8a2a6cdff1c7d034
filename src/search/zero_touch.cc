#include "search/zero_touch.h"

#include "common/logging.h"
#include "reward/reward.h"

namespace h2o::search {

ZeroTouchOptimizer::ZeroTouchOptimizer(
    const searchspace::DecisionSpace &space,
    searchspace::Sample baseline_sample, ScalarFn quality,
    ScalarFn step_time, ScalarFn model_bytes)
    : _space(space), _baselineSample(std::move(baseline_sample)),
      _quality(std::move(quality)), _stepTime(std::move(step_time)),
      _modelBytes(std::move(model_bytes))
{
    h2o_assert(_quality && _stepTime && _modelBytes,
               "null zero-touch functor");
    h2o_assert(_space.validSample(_baselineSample),
               "baseline sample invalid for this space");
}

ZeroTouchResult
ZeroTouchOptimizer::optimize(const LaunchCriteria &criteria,
                             const ZeroTouchConfig &config,
                             common::Rng &rng) const
{
    h2o_assert(criteria.stepTimeTargetRel > 0.0,
               "non-positive step-time target");

    ZeroTouchResult result;
    result.baselineQuality = _quality(_baselineSample);
    result.baselineStepSec = _stepTime(_baselineSample);
    result.baselineBytes = _modelBytes(_baselineSample);

    // Build the reward from the launch criteria.
    std::vector<reward::PerformanceObjective> objectives;
    objectives.push_back({"step_time",
                          criteria.stepTimeTargetRel *
                              result.baselineStepSec,
                          criteria.stepTimeBeta});
    bool size_constrained = criteria.modelSizeTargetRel > 0.0;
    if (size_constrained) {
        objectives.push_back({"model_size",
                              criteria.modelSizeTargetRel *
                                  result.baselineBytes,
                              criteria.modelSizeBeta});
    }
    reward::ReluReward rwd(std::move(objectives));

    auto perf_fn = [&](const searchspace::Sample &s) {
        std::vector<double> perf{_stepTime(s)};
        if (size_constrained)
            perf.push_back(_modelBytes(s));
        return perf;
    };

    SurrogateSearchConfig scfg;
    scfg.numSteps = config.numSteps;
    scfg.samplesPerStep = config.samplesPerStep;
    scfg.rl.learningRate = config.learningRate;
    scfg.rl.entropyWeight = config.entropyWeight;
    scfg.threads = 1; // inline; evaluation dominates
    SurrogateSearch search(_space, _quality, perf_fn, rwd, scfg);
    auto outcome = search.run(rng);

    // Deployment selection: best-reward candidate actually evaluated.
    const CandidateRecord *best = nullptr;
    for (const auto &c : outcome.history)
        if (!best || c.reward > best->reward)
            best = &c;
    h2o_assert(best, "search produced no candidates");

    // Never deploy a regression: if even the best candidate scores
    // below the baseline's own reward, keep the baseline (zero-touch
    // must be safe to run continuously).
    double baseline_reward = rwd.compute(
        {result.baselineQuality, perf_fn(_baselineSample)});
    if (best->reward >= baseline_reward) {
        result.deployed = best->sample;
    } else {
        result.deployed = _baselineSample;
    }

    result.deployedQuality = _quality(result.deployed);
    result.deployedStepSec = _stepTime(result.deployed);
    result.deployedBytes = _modelBytes(result.deployed);
    return result;
}

} // namespace h2o::search
