#include "search/tunas_search.h"

#include "common/logging.h"
#include "common/serialize.h"
#include "eval/eval_engine.h"
#include "exec/shard_runner.h"
#include "exec/thread_pool.h"
#include "search/stepwise.h"

namespace h2o::search {

/**
 * Step-wise TuNAS state. One step() is one alternating iteration (a
 * W-step plus a pi-step); the uniform-sampling warmup runs lazily
 * inside the first step() so a freshly constructed stepper is cheap and
 * a load()ed one (whose supernet weights already contain the warmup)
 * skips it.
 */
class TunasStepper final : public StepwiseSearch
{
  public:
    static eval::EvalEngineConfig
    engineConfig(const TunasSearchConfig &c)
    {
        eval::EvalEngineConfig ec;
        static_cast<exec::RunOptions &>(ec) = c;
        ec.numShards = 1;
        ec.threads = 1;
        return ec;
    }

    TunasStepper(TunasSearch &owner, common::Rng &rng)
        : _owner(owner),
          _controller(owner._space.decisions(), owner._config.rl),
          _sampleRng(rng.fork(1)),
          // TuNAS "was not built for hyperscale deployments, and
          // therefore lacks parallelism": a single worker and a single
          // shard, executed inline on the calling thread (see run()).
          _engine(owner._perf, owner._reward,
                  engineConfig(owner._config))
    {
        _fronts.reset(owner._config.multiTarget);
    }

    bool step() override
    {
        if (done())
            return false;
        auto &cfg = _owner._config;
        exec::ShardRunner &runner = _engine.runner();

        if (!_warmed) {
            for (size_t step = 0; step < cfg.warmupSteps; ++step) {
                runner.runStep(step, [&](size_t) {
                    trainOn(_owner._space.decisions().uniformSample(
                        _sampleRng));
                });
            }
            _warmed = true;
        }

        const size_t iter = _next;
        // --- W-step on a "training" batch (no candidate evaluation —
        // the runner alone keeps the fault-step sequence contiguous).
        runner.runStep(cfg.warmupSteps + 2 * iter, [&](size_t) {
            trainOn(_controller.policy().sample(_sampleRng));
        });
        // --- pi-step on a separate "validation" batch (never trains W):
        // pure no-grad candidate evaluation. The shard body only draws
        // the sample; the supernet's packed multi-candidate pass computes
        // the quality.
        auto ev = _engine.evaluate(
            cfg.warmupSteps + 2 * iter + 1,
            [&](size_t, searchspace::Sample &sample) {
                sample = _controller.policy().sample(_sampleRng);
            },
            [&](std::span<const size_t>,
                std::span<const searchspace::Sample> samples) {
                auto lease = _owner._pipeline.lease();
                auto res =
                    _owner._supernet.evaluateBatch(samples, lease.batch());
                lease.markAlphaUse();
                std::vector<double> qs(res.size());
                for (size_t i = 0; i < res.size(); ++i)
                    qs[i] = res[i].quality();
                return qs;
            });
        ++_next;
        if (ev.survivors.empty())
            return !done(); // preempted pi-step: the iteration is lost
        auto cstats = _controller.update({ev.samples[0]},
                                         {ev.rewards[0]});
        _outcome.finalMeanReward = cstats.meanReward;
        _outcome.finalEntropy = cstats.meanEntropy;
        _outcome.history.push_back({std::move(ev.samples[0]),
                                    ev.qualities[0],
                                    std::move(ev.performance[0]),
                                    ev.rewards[0], iter});
        _fronts.absorb(_outcome);
        return !done();
    }

    size_t stepIndex() const override { return _next; }
    size_t totalSteps() const override
    {
        return _owner._config.numIterations;
    }
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
        // Version 2 + validation record when multi-target; historical
        // version-1 bytes otherwise.
        const bool multi = _fronts.enabled();
        common::writeTaggedU64(os, "tunas_stepper",
                               {multi ? kVersionMulti : kVersion, _next,
                                _owner._config.numIterations,
                                _owner._config.warmupSteps});
        if (multi)
            writeMultiTargetTagged(os, _fronts.spec());
        _controller.save(os);
        _sampleRng.save(os);
        _owner._supernet.save(os);
        _owner._pipeline.save(os);
        writeOutcomeTagged(os, _outcome);
    }

    void load(std::istream &is) override
    {
        const bool multi = _owner._config.multiTarget.enabled();
        auto header = common::readTaggedU64(is, "tunas_stepper");
        if (header.size() != 4 ||
            header[0] != (multi ? kVersionMulti : kVersion))
            h2o_fatal("unsupported tunas stepper checkpoint (single/"
                      "multi-target or version mismatch)");
        if (multi)
            readMultiTargetTagged(is, _owner._config.multiTarget);
        if (header[3] != _owner._config.warmupSteps)
            h2o_fatal("tunas checkpoint warmup mismatch: saved ",
                      header[3], ", configured ",
                      _owner._config.warmupSteps);
        _next = header[1];
        _controller.load(is);
        _sampleRng.load(is);
        _owner._supernet.load(is);
        _owner._pipeline.load(is);
        readOutcomeTagged(is, _owner._space.decisions().numDecisions(),
                          _outcome);
        // Fronts are a deterministic replay of the restored history.
        _fronts.reset(_owner._config.multiTarget);
        _fronts.absorb(_outcome);
        _warmed = true; // the restored weights already contain warmup
    }

  private:
    static constexpr uint64_t kVersion = 1;
    static constexpr uint64_t kVersionMulti = 2;

    /** One W-step: the candidate's SGD step on a fresh batch (the
     *  data-parallel step with one shard). */
    void trainOn(const searchspace::Sample &sample)
    {
        auto lease = _owner._pipeline.lease();
        _owner._supernet.configure(sample);
        (void)_owner._supernet.trainStep(lease.batch(),
                                         _owner._config.weightLr);
        lease.markAlphaUse(); // pipeline ordering contract
        lease.markWeightUse();
    }

    TunasSearch &_owner;
    controller::ReinforceController _controller;
    common::Rng _sampleRng;
    eval::EvalEngine _engine;
    SearchOutcome _outcome;
    TargetFrontTracker _fronts;
    size_t _next = 0;
    bool _warmed = false;
};

TunasSearch::TunasSearch(const searchspace::DlrmSearchSpace &space,
                         supernet::DlrmSupernet &supernet,
                         pipeline::InMemoryPipeline &pipe, PerfFn perf,
                         const reward::RewardFunction &rewardf,
                         TunasSearchConfig config)
    : TunasSearch(space, supernet, pipe,
                  eval::PerfStage(std::move(perf)), rewardf, config)
{
}

TunasSearch::TunasSearch(const searchspace::DlrmSearchSpace &space,
                         supernet::DlrmSupernet &supernet,
                         pipeline::InMemoryPipeline &pipe,
                         PerfBatchFn perf_batch,
                         const reward::RewardFunction &rewardf,
                         TunasSearchConfig config)
    : TunasSearch(space, supernet, pipe,
                  eval::PerfStage(std::move(perf_batch)), rewardf, config)
{
}

TunasSearch::TunasSearch(const searchspace::DlrmSearchSpace &space,
                         supernet::DlrmSupernet &supernet,
                         pipeline::InMemoryPipeline &pipe,
                         eval::PerfStage perf,
                         const reward::RewardFunction &rewardf,
                         TunasSearchConfig config)
    : _space(space), _supernet(supernet), _pipeline(pipe),
      _perf(std::move(perf)), _reward(rewardf), _config(config)
{
    h2o_assert(_perf.perCandidate || _perf.batched,
               "null performance functor");
    h2o_assert(_config.numIterations > 0, "degenerate configuration");
}

SearchOutcome
TunasSearch::run(common::Rng &rng)
{
    TunasStepper stepper(*this, rng);
    while (stepper.step()) {
    }
    return stepper.finish();
}

std::unique_ptr<StepwiseSearch>
TunasSearch::makeStepper(common::Rng &rng)
{
    return std::make_unique<TunasStepper>(*this, rng);
}

} // namespace h2o::search
