#include "search/surrogate_search.h"

#include "common/logging.h"
#include "common/serialize.h"
#include "eval/eval_engine.h"
#include "exec/fault_injector.h"
#include "exec/thread_pool.h"
#include "search/stepwise.h"

namespace h2o::search {

/**
 * Step-wise state of a SurrogateSearch: the policy, the per-shard RNG
 * streams, and the accumulated history — everything run() kept on its
 * stack, promoted to members so steps can interleave with other jobs
 * and survive save()/load() (see search/stepwise.h for the contract).
 */
class SurrogateStepper final : public StepwiseSearch
{
  public:
    static eval::EvalEngineConfig
    engineConfig(const SurrogateSearchConfig &c)
    {
        eval::EvalEngineConfig ec;
        static_cast<exec::RunOptions &>(ec) = c;
        ec.numShards = c.samplesPerStep;
        ec.threads = c.threads;
        return ec;
    }

    SurrogateStepper(SurrogateSearch &owner, common::Rng &rng)
        : _owner(owner),
          _controller(owner._space, owner._config.rl),
          _rngs(exec::ThreadPool::splitRngs(rng,
                                            owner._config.samplesPerStep)),
          _engine(owner._perf, owner._reward,
                  engineConfig(owner._config), owner._quality)
    {
        _outcome.history.reserve(owner._config.numSteps *
                                 owner._config.samplesPerStep);
        _fronts.reset(owner._config.multiTarget);
    }

    bool step() override
    {
        if (done())
            return false;
        const size_t step = _next;

        // Stages (1)-(2) of Figure 2, per shard: sample a candidate from
        // pi on the shard's own stream, then evaluate quality — inside
        // the shard body on the thread path, inside the worker processes
        // when procs > 0 (the engine holds the pure quality functor; the
        // draw stays coordinator-side either way). Shards share no
        // mutable state.
        auto ev = _engine.evaluate(
            step, [&](size_t s, searchspace::Sample &sample) {
                sample = _controller.policy().sample(_rngs[s]);
            });
        ++_next;

        // Stage (3): cross-shard policy update over the survivors.
        if (ev.survivors.empty()) {
            common::warn("surrogate step ", step,
                         " lost all shards; skipping update");
            return !done();
        }
        std::vector<searchspace::Sample> live_samples;
        std::vector<double> live_rewards;
        live_samples.reserve(ev.survivors.size());
        for (size_t s : ev.survivors) {
            live_samples.push_back(ev.samples[s]);
            live_rewards.push_back(ev.rewards[s]);
        }
        auto stats = _controller.update(live_samples, live_rewards);
        _outcome.finalMeanReward = stats.meanReward;
        _outcome.finalEntropy = stats.meanEntropy;

        for (size_t s : ev.survivors) {
            _outcome.history.push_back({std::move(ev.samples[s]),
                                        ev.qualities[s],
                                        std::move(ev.performance[s]),
                                        ev.rewards[s], step});
        }
        _fronts.absorb(_outcome);
        return !done();
    }

    size_t stepIndex() const override { return _next; }
    size_t totalSteps() const override { return _owner._config.numSteps; }
    double lastMeanReward() const override
    {
        return _outcome.finalMeanReward;
    }
    const SearchOutcome &partialOutcome() const override
    {
        return _outcome;
    }

    exec::ProcPoolStats transportStats() const override
    {
        return _engine.transportStats();
    }

    SearchOutcome finish() override
    {
        _fronts.emit(_outcome);
        _outcome.finalSample = _controller.policy().argmax();
        return std::move(_outcome);
    }

    void save(std::ostream &os) const override
    {
        // Multi-target searches write version 2 with a validation
        // record appended to the header; single-target bytes are the
        // historical version-1 layout, unchanged.
        const bool multi = _fronts.enabled();
        common::writeTaggedU64(os, "surrogate_stepper",
                               {multi ? kVersionMulti : kVersion, _next,
                                _owner._config.samplesPerStep,
                                _owner._config.numSteps});
        if (multi)
            writeMultiTargetTagged(os, _fronts.spec());
        _controller.save(os);
        for (const auto &r : _rngs)
            r.save(os);
        writeOutcomeTagged(os, _outcome);
    }

    void load(std::istream &is) override
    {
        const bool multi = _owner._config.multiTarget.enabled();
        auto header = common::readTaggedU64(is, "surrogate_stepper");
        if (header.size() != 4 ||
            header[0] != (multi ? kVersionMulti : kVersion))
            h2o_fatal("unsupported surrogate stepper checkpoint (single/"
                      "multi-target or version mismatch)");
        if (header[2] != _owner._config.samplesPerStep)
            h2o_fatal("surrogate checkpoint shard count mismatch: saved ",
                      header[2], ", configured ",
                      _owner._config.samplesPerStep);
        if (multi)
            readMultiTargetTagged(is, _owner._config.multiTarget);
        _next = header[1];
        _controller.load(is);
        for (auto &r : _rngs)
            r.load(is);
        readOutcomeTagged(is, _owner._space.numDecisions(), _outcome);
        // Fronts are a deterministic function of the history: rebuild
        // instead of serializing them.
        _fronts.reset(_owner._config.multiTarget);
        _fronts.absorb(_outcome);
    }

  private:
    static constexpr uint64_t kVersion = 1;
    static constexpr uint64_t kVersionMulti = 2;

    SurrogateSearch &_owner;
    controller::ReinforceController _controller;
    std::vector<common::Rng> _rngs;
    eval::EvalEngine _engine;
    SearchOutcome _outcome;
    TargetFrontTracker _fronts;
    size_t _next = 0;
};

SurrogateSearch::SurrogateSearch(const searchspace::DecisionSpace &space,
                                 QualityFn quality, PerfFn perf,
                                 const reward::RewardFunction &rewardf,
                                 SurrogateSearchConfig config)
    : SurrogateSearch(space, std::move(quality),
                      eval::PerfStage(std::move(perf)), rewardf, config)
{
}

SurrogateSearch::SurrogateSearch(const searchspace::DecisionSpace &space,
                                 QualityFn quality, PerfBatchFn perf_batch,
                                 const reward::RewardFunction &rewardf,
                                 SurrogateSearchConfig config)
    : SurrogateSearch(space, std::move(quality),
                      eval::PerfStage(std::move(perf_batch)), rewardf,
                      config)
{
}

SurrogateSearch::SurrogateSearch(const searchspace::DecisionSpace &space,
                                 QualityFn quality, eval::PerfStage perf,
                                 const reward::RewardFunction &rewardf,
                                 SurrogateSearchConfig config)
    : _space(space), _quality(std::move(quality)), _perf(std::move(perf)),
      _reward(rewardf), _config(config)
{
    h2o_assert(_quality && (_perf.perCandidate || _perf.batched),
               "null quality/perf functor");
    h2o_assert(_config.numSteps > 0 && _config.samplesPerStep > 0,
               "degenerate search configuration");
}

SearchOutcome
SurrogateSearch::run(common::Rng &rng)
{
    SurrogateStepper stepper(*this, rng);
    while (stepper.step()) {
    }
    return stepper.finish();
}

std::unique_ptr<StepwiseSearch>
SurrogateSearch::makeStepper(common::Rng &rng)
{
    return std::make_unique<SurrogateStepper>(*this, rng);
}

} // namespace h2o::search
