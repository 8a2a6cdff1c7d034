#include "search/h2o_dlrm_search.h"

#include <condition_variable>
#include <mutex>
#include <optional>

#include "common/logging.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "eval/eval_engine.h"
#include "exec/checkpoint.h"
#include "exec/shard_runner.h"
#include "exec/thread_pool.h"
#include "search/stepwise.h"

namespace h2o::search {

/**
 * Step-wise state of the unified single-step search: the policy, the
 * per-shard RNG streams, the eval engine and the accumulated outcome.
 * Warm-up runs lazily inside the first step(); a load()ed stepper
 * skips it because the restored supernet weights already contain it.
 * save()/load() speak the pre-existing H2oDlrmSearch checkpoint format
 * (version 1), so checkpoints written before the stepper refactor keep
 * loading byte-for-byte.
 */
class H2oDlrmStepper final : public StepwiseSearch
{
  public:
    static eval::EvalEngineConfig
    engineConfig(const H2oSearchConfig &c)
    {
        eval::EvalEngineConfig ec;
        static_cast<exec::RunOptions &>(ec) = c;
        ec.numShards = c.numShards;
        ec.threads = c.threads;
        return ec;
    }

    H2oDlrmStepper(H2oDlrmSearch &owner, common::Rng &rng)
        : _owner(owner),
          _controller(owner._space.decisions(), owner._config.rl),
          // Per-shard RNG streams: forked from the caller's stream
          // exactly as the serial implementation always did,
          // independent of thread count.
          _rngs(exec::ThreadPool::splitRngs(rng, owner._config.numShards)),
          // The candidate -> reward pipeline: per-shard draws on the
          // engine's worker pool, then the data-parallel supernet pass
          // on its lanes and one batched performance + reward pass per
          // step.
          _engine(owner._perf, owner._reward,
                  engineConfig(owner._config)),
          _contexts(_engine.runner().lanes())
    {
        // Sized here, on the coordinator, for any candidate: lanes never
        // allocate activation buffers.
        for (auto &ctx : _contexts)
            owner._supernet.reserve(ctx, owner._pipeline.batchSize());
        owner._stats.clear();
        _fronts.reset(owner._config.multiTarget);
    }

    bool step() override
    {
        if (done())
            return false;
        auto &cfg = _owner._config;

        // --- Warm-up: train shared weights on uniformly-sampled
        // candidates so early rewards reflect architecture, not
        // initialization. Shard bodies only draw (concurrently); the
        // survivors then train data-parallel (train()) and one merged
        // update applies their gradients. Warm-up shares the engine's
        // runner so the fault-injection step sequence stays contiguous.
        if (!_warmed) {
            std::vector<searchspace::Sample> samples(cfg.numShards);
            std::vector<searchspace::Sample> live_samples;
            for (size_t w = 0; w < cfg.warmupSteps; ++w) {
                auto report = _engine.runner().runStep(w, [&](size_t s) {
                    samples[s] =
                        _owner._space.decisions().uniformSample(_rngs[s]);
                });
                live_samples.clear();
                for (size_t s : report.survivors())
                    live_samples.push_back(samples[s]);
                (void)train(live_samples);
                applyGradients(live_samples.size());
            }
            _warmed = true;
        }

        // --- One step of the unified single-step search (Figure 2,
        // right).
        const size_t step = _next;
        std::vector<double> losses(cfg.numShards, 0.0);

        // Stage (1). The H2O quality signal is GRAD-CARRYING: each
        // candidate's forward+backward on a FRESH batch both measures
        // quality (alpha use) and computes its shard's shared-weight
        // gradient (W use), in that mandatory order. Shard bodies only
        // draw their samples (per-shard RNG streams, fault semantics);
        // the survivors then train data-parallel on the engine's lanes.
        auto ev = _engine.evaluate(
            cfg.warmupSteps + step,
            [&](size_t s, searchspace::Sample &sample) {
                sample = _controller.policy().sample(_rngs[s]);
            },
            [&](std::span<const size_t> shards,
                std::span<const searchspace::Sample> samples) {
                std::vector<double> qs = train(samples);
                for (size_t i = 0; i < qs.size(); ++i) {
                    losses[shards[i]] = qs[i];
                    qs[i] = -qs[i]; // negated log-loss
                }
                return qs;
            });
        ++_next;

        // Graceful degradation: aggregate over the shards that survived
        // this step; baselines scale with the live shard count.
        const auto &live = ev.survivors;
        H2oStepStats st;
        st.step = step;
        st.liveShards = live.size();
        if (!live.empty()) {
            std::vector<searchspace::Sample> live_samples;
            std::vector<double> live_rewards, live_qualities,
                live_losses;
            live_samples.reserve(live.size());
            for (size_t s : live) {
                live_samples.push_back(ev.samples[s]);
                live_rewards.push_back(ev.rewards[s]);
                live_qualities.push_back(ev.qualities[s]);
                live_losses.push_back(losses[s]);
            }

            // Stage (2): cross-shard policy update over survivors.
            auto cstats = _controller.update(live_samples, live_rewards);

            // Stage (3): cross-shard (merged) weight update, scaled by
            // the number of shards that actually contributed gradients.
            applyGradients(live.size());

            st.meanReward = cstats.meanReward;
            st.meanQuality = common::mean(live_qualities);
            st.meanEntropy = cstats.meanEntropy;
            st.trainLoss = common::mean(live_losses);
            _outcome.finalMeanReward = cstats.meanReward;
            _outcome.finalEntropy = cstats.meanEntropy;

            for (size_t s : live) {
                _outcome.history.push_back({std::move(ev.samples[s]),
                                            ev.qualities[s],
                                            std::move(ev.performance[s]),
                                            ev.rewards[s], step});
            }
            _fronts.absorb(_outcome);
        } else {
            // Every shard lost: the step is skipped entirely (no policy
            // or weight update), which a preemptible fleet survives.
            st.meanEntropy = _controller.policy().meanEntropy();
            common::warn("search step ", step,
                         " lost all shards; skipping update");
        }
        _owner._stats.push_back(st);
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
        // record after the header; single-target checkpoints keep the
        // historical version-1 bytes exactly.
        const bool multi = _fronts.enabled();
        common::writeTaggedU64(os, "h2o_search_ckpt",
                               {multi ? kCheckpointVersionMulti
                                      : kCheckpointVersion,
                                _next, _owner._config.numShards,
                                _owner._config.numSteps,
                                _owner._config.warmupSteps});
        if (multi)
            writeMultiTargetTagged(os, _fronts.spec());
        _controller.save(os);
        _owner._supernet.save(os);
        _owner._pipeline.save(os);
        for (const auto &r : _rngs)
            r.save(os);

        // Step telemetry.
        std::vector<uint64_t> stat_steps, stat_live;
        std::vector<double> stat_reward, stat_quality, stat_entropy,
            stat_loss;
        for (const auto &st : _owner._stats) {
            stat_steps.push_back(st.step);
            stat_live.push_back(st.liveShards);
            stat_reward.push_back(st.meanReward);
            stat_quality.push_back(st.meanQuality);
            stat_entropy.push_back(st.meanEntropy);
            stat_loss.push_back(st.trainLoss);
        }
        common::writeTaggedU64(os, "stat_steps", stat_steps);
        common::writeTaggedU64(os, "stat_live", stat_live);
        common::writeTagged(os, "stat_reward", stat_reward);
        common::writeTagged(os, "stat_quality", stat_quality);
        common::writeTagged(os, "stat_entropy", stat_entropy);
        common::writeTagged(os, "stat_loss", stat_loss);

        // Search outcome so far (samples all have numDecisions entries,
        // so the history flattens into parallel arrays).
        writeOutcomeTagged(os, _outcome);
    }

    void load(std::istream &is) override
    {
        const bool multi = _owner._config.multiTarget.enabled();
        auto header = common::readTaggedU64(is, "h2o_search_ckpt");
        if (header.size() != 5 ||
            header[0] !=
                (multi ? kCheckpointVersionMulti : kCheckpointVersion))
            h2o_fatal("unsupported search checkpoint header (single/"
                      "multi-target or version mismatch)");
        if (multi)
            readMultiTargetTagged(is, _owner._config.multiTarget);
        if (header[2] != _owner._config.numShards ||
            header[4] != _owner._config.warmupSteps) {
            h2o_fatal("checkpoint was taken with ", header[2],
                      " shards / ", header[4],
                      " warmup steps; config has ",
                      _owner._config.numShards, " / ",
                      _owner._config.warmupSteps);
        }
        _next = header[1];

        _controller.load(is);
        _owner._supernet.load(is);
        _owner._pipeline.load(is);
        for (auto &r : _rngs)
            r.load(is);

        auto stat_steps = common::readTaggedU64(is, "stat_steps");
        auto stat_live = common::readTaggedU64(is, "stat_live");
        auto stat_reward = common::readTagged(is, "stat_reward");
        auto stat_quality = common::readTagged(is, "stat_quality");
        auto stat_entropy = common::readTagged(is, "stat_entropy");
        auto stat_loss = common::readTagged(is, "stat_loss");
        if (stat_live.size() != stat_steps.size() ||
            stat_reward.size() != stat_steps.size() ||
            stat_quality.size() != stat_steps.size() ||
            stat_entropy.size() != stat_steps.size() ||
            stat_loss.size() != stat_steps.size())
            h2o_fatal("inconsistent telemetry arrays in checkpoint");
        _owner._stats.clear();
        for (size_t i = 0; i < stat_steps.size(); ++i) {
            _owner._stats.push_back(
                {stat_steps[i], stat_reward[i], stat_quality[i],
                 stat_entropy[i], stat_loss[i],
                 static_cast<size_t>(stat_live[i])});
        }

        readOutcomeTagged(is, _owner._space.decisions().numDecisions(),
                          _outcome);
        // Fronts are a deterministic replay of the restored history.
        _fronts.reset(_owner._config.multiTarget);
        _fronts.absorb(_outcome);
        _warmed = true; // the restored weights already contain warm-up
    }

  private:
    static constexpr uint64_t kCheckpointVersion = 1;
    static constexpr uint64_t kCheckpointVersionMulti = 2;

    /**
     * The survivors' forward+backward (`samples` in ascending shard
     * order). The coordinator plans every candidate and lays out the
     * step's gradient arena; then, while the engine's lanes claim the
     * survivors, it leases their fresh batches in ascending survivor
     * order — every shard trains on the batch a serial run would give
     * it — and each lane runs its survivor's candidate, as soon as that
     * batch is out, into the survivor's gradient with the lane's own
     * context. The batch informs alpha before it trains W (the lease's
     * order contract). Returns the training losses, same order.
     */
    std::vector<double> train(std::span<const searchspace::Sample> samples)
    {
        const size_t n = samples.size();
        const supernet::DlrmSupernet &net = _owner._supernet;
        _plans.resize(n);
        for (size_t i = 0; i < n; ++i)
            _plans[i] = net.plan(samples[i]);
        _grads.layout(net, _plans);

        std::vector<double> losses(n);
        std::vector<std::optional<pipeline::BatchLease>> leases(n);
        std::mutex mutex;
        std::condition_variable leased_cv;
        size_t leased = 0;
        bool failed = false;
        _engine.runner().forEach(
            n,
            [&](size_t i, size_t lane) {
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    leased_cv.wait(lock,
                                   [&] { return leased > i || failed; });
                    if (leased <= i)
                        return; // the lease failed; its error propagates
                }
                losses[i] = net.accumulateGradients(
                    _plans[i], leases[i]->batch(), _contexts[lane],
                    _grads[i]);
                leases[i]->markAlphaUse();
                leases[i]->markWeightUse();
            },
            [&] {
                try {
                    for (size_t i = 0; i < n; ++i) {
                        pipeline::BatchLease lease =
                            _owner._pipeline.lease();
                        {
                            std::lock_guard<std::mutex> lock(mutex);
                            leases[i].emplace(std::move(lease));
                            ++leased;
                        }
                        leased_cv.notify_all();
                    }
                } catch (...) {
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        failed = true;
                    }
                    leased_cv.notify_all();
                    throw;
                }
            });
        return losses;
    }

    /** Stage (3): one merged update from the first `live` survivors'
     *  gradients, summed in ascending shard order; the step size scales
     *  with the shards that contributed. */
    void applyGradients(size_t live)
    {
        if (live == 0)
            return;
        _owner._supernet.applyGradients(
            _grads.shards().first(live),
            _owner._config.weightLr / static_cast<double>(live));
    }

    H2oDlrmSearch &_owner;
    controller::ReinforceController _controller;
    std::vector<common::Rng> _rngs;
    eval::EvalEngine _engine;
    /** One forward/backward context per engine lane. */
    std::vector<supernet::SupernetContext> _contexts;
    /** The current step's survivors: their plans and gradients. */
    std::vector<supernet::SupernetPlan> _plans;
    supernet::StepGradients _grads;
    SearchOutcome _outcome;
    TargetFrontTracker _fronts;
    size_t _next = 0;
    bool _warmed = false;
};

H2oDlrmSearch::H2oDlrmSearch(const searchspace::DlrmSearchSpace &space,
                             supernet::DlrmSupernet &supernet,
                             pipeline::InMemoryPipeline &pipe,
                             DlrmPerfFn perf,
                             const reward::RewardFunction &rewardf,
                             H2oSearchConfig config)
    : H2oDlrmSearch(space, supernet, pipe,
                    eval::PerfStage(std::move(perf)), rewardf,
                    std::move(config))
{
}

H2oDlrmSearch::H2oDlrmSearch(const searchspace::DlrmSearchSpace &space,
                             supernet::DlrmSupernet &supernet,
                             pipeline::InMemoryPipeline &pipe,
                             DlrmPerfBatchFn perf_batch,
                             const reward::RewardFunction &rewardf,
                             H2oSearchConfig config)
    : H2oDlrmSearch(space, supernet, pipe,
                    eval::PerfStage(std::move(perf_batch)), rewardf,
                    std::move(config))
{
}

H2oDlrmSearch::H2oDlrmSearch(const searchspace::DlrmSearchSpace &space,
                             supernet::DlrmSupernet &supernet,
                             pipeline::InMemoryPipeline &pipe,
                             eval::PerfStage perf,
                             const reward::RewardFunction &rewardf,
                             H2oSearchConfig config)
    : _space(space), _supernet(supernet), _pipeline(pipe),
      _perf(std::move(perf)), _reward(rewardf),
      _config(std::move(config))
{
    h2o_assert(_perf.perCandidate || _perf.batched,
               "null performance functor");
    h2o_assert(_config.numShards > 0 && _config.numSteps > 0,
               "degenerate search configuration");
    h2o_assert(_config.checkpointEvery > 0, "zero checkpoint interval");
}

SearchOutcome
H2oDlrmSearch::run(common::Rng &rng)
{
    H2oDlrmStepper stepper(*this, rng);

    // --- Resume: a pre-existing checkpoint replaces warm-up and the
    // already-completed steps with their exact recorded state.
    const bool checkpointing = !_config.checkpointPath.empty();
    if (checkpointing &&
        exec::CheckpointReader::exists(_config.checkpointPath)) {
        exec::CheckpointReader reader(_config.checkpointPath);
        stepper.load(reader.stream());
        common::inform("resumed search from '", _config.checkpointPath,
                       "' at step ", stepper.stepIndex());
    }

    while (!stepper.done()) {
        stepper.step();
        if (checkpointing &&
            (stepper.stepIndex() % _config.checkpointEvery == 0 ||
             stepper.stepIndex() == _config.numSteps)) {
            exec::CheckpointWriter writer;
            stepper.save(writer.stream());
            writer.commit(_config.checkpointPath);
        }
    }
    return stepper.finish();
}

std::unique_ptr<StepwiseSearch>
H2oDlrmSearch::makeStepper(common::Rng &rng)
{
    return std::make_unique<H2oDlrmStepper>(*this, rng);
}

} // namespace h2o::search
