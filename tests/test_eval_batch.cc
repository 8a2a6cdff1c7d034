/**
 * @file
 * Tests for the batched candidate-evaluation path: Simulator::runBatch
 * vs per-graph run(), PerfModel::predictBatch vs per-row predict(),
 * eval::EvalEngine thread-count invariance, engine rewards through the
 * batched SimCache perf stage vs hand-rolled per-candidate rewards, and
 * graceful degradation when a FaultInjector drops individual candidates
 * out of a batch.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/dlrm_arch.h"
#include "baselines/quality_model.h"
#include "common/rng.h"
#include "eval/dlrm_timer.h"
#include "eval/eval_engine.h"
#include "exec/fault_injector.h"
#include "perfmodel/perf_model.h"
#include "reward/reward.h"
#include "search/surrogate_search.h"
#include "searchspace/dlrm_space.h"
#include "sim/simulator.h"

namespace arch = h2o::arch;
namespace ev = h2o::eval;
namespace ex = h2o::exec;
namespace pm = h2o::perfmodel;
namespace rw = h2o::reward;
namespace sr = h2o::search;
namespace ss = h2o::searchspace;
namespace sim = h2o::sim;
namespace hw = h2o::hw;
using h2o::common::Rng;

// --------------------------------------------------- Simulator::runBatch

TEST(SimulatorRunBatch, BitwiseIdenticalToSerialRuns)
{
    ss::DlrmSearchSpace space(arch::baselineDlrm());
    hw::Platform platform = hw::trainingPlatform();
    Rng rng(31);

    std::vector<sim::Graph> graphs;
    graphs.reserve(6);
    for (size_t i = 0; i < 6; ++i) {
        arch::DlrmArch a = space.decode(space.decisions().uniformSample(rng));
        graphs.push_back(
            arch::buildDlrmGraph(a, platform, arch::ExecMode::Training));
    }
    // Repeat a pointer mid-batch: validation is amortized per distinct
    // graph, which must not change the result of the repeat.
    std::vector<const sim::Graph *> ptrs;
    for (const auto &g : graphs)
        ptrs.push_back(&g);
    ptrs.push_back(&graphs[2]);

    sim::Simulator simulator({platform.chip, true, true, {}});
    auto batch = simulator.runBatch(ptrs);
    ASSERT_EQ(batch.size(), ptrs.size());

    for (size_t i = 0; i < ptrs.size(); ++i) {
        sim::SimResult one = simulator.run(*ptrs[i]);
        const sim::SimResult &b = batch[i];
        // EXPECT_EQ on doubles is exact comparison: the batch must be
        // bitwise what N separate run() calls produce.
        EXPECT_EQ(one.stepTimeSec, b.stepTimeSec) << "graph " << i;
        EXPECT_EQ(one.totalFlops, b.totalFlops);
        EXPECT_EQ(one.achievedFlops, b.achievedFlops);
        EXPECT_EQ(one.hbmBytes, b.hbmBytes);
        EXPECT_EQ(one.onChipBytes, b.onChipBytes);
        EXPECT_EQ(one.networkBytes, b.networkBytes);
        EXPECT_EQ(one.tensorBusySec, b.tensorBusySec);
        EXPECT_EQ(one.vpuBusySec, b.vpuBusySec);
        EXPECT_EQ(one.criticalPathSec, b.criticalPathSec);
        EXPECT_EQ(one.avgPowerW, b.avgPowerW);
        EXPECT_EQ(one.energyPerStepJ, b.energyPerStepJ);
        EXPECT_EQ(one.liveOps, b.liveOps);
        EXPECT_EQ(one.fusedOps, b.fusedOps);
        ASSERT_EQ(one.perOp.size(), b.perOp.size());
        for (size_t j = 0; j < one.perOp.size(); ++j)
            EXPECT_EQ(one.perOp[j].seconds, b.perOp[j].seconds);
    }
}

TEST(SimulatorRunBatch, EmptyBatch)
{
    sim::Simulator simulator({hw::tpuV4i(), true, true, {}});
    EXPECT_TRUE(simulator.runBatch({}).empty());
}

// ------------------------------------------------ PerfModel::predictBatch

namespace {

/** A tiny trained model over synthetic positive-time targets. */
pm::PerfModel
trainedToyModel(size_t dim, Rng &rng)
{
    pm::PerfModelConfig cfg;
    cfg.hiddenWidth = 32;
    cfg.hiddenLayers = 2;
    cfg.epochs = 5;
    cfg.batchSize = 32;
    pm::PerfModel model(dim, cfg, rng);
    std::vector<std::vector<double>> feats;
    std::vector<std::array<double, 2>> targets;
    for (size_t i = 0; i < 128; ++i) {
        std::vector<double> f(dim);
        double s = 0.0;
        for (auto &v : f) {
            v = rng.normal();
            s += v;
        }
        feats.push_back(f);
        targets.push_back({1e-3 * std::exp(0.3 * s), 4e-4 * std::exp(0.2 * s)});
    }
    model.train(feats, targets, rng);
    return model;
}

} // namespace

TEST(PerfModelPredictBatch, MatchesPerRowPredict)
{
    Rng rng(7);
    const size_t dim = 6;
    pm::PerfModel model = trainedToyModel(dim, rng);

    std::vector<std::vector<double>> queries;
    for (size_t i = 0; i < 33; ++i) { // not a multiple of any tile size
        std::vector<double> f(dim);
        for (auto &v : f)
            v = rng.normal();
        queries.push_back(f);
    }
    auto batch = model.predictBatch(queries);
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
        pm::PerfPrediction one = model.predict(queries[i]);
        EXPECT_NEAR(one.trainStepTimeSec, batch[i].trainStepTimeSec,
                    1e-12 * one.trainStepTimeSec);
        EXPECT_NEAR(one.servingTimeSec, batch[i].servingTimeSec,
                    1e-12 * one.servingTimeSec);
    }
}

TEST(PerfModelPredictBatch, MatchesPerRowPredictWithCalibration)
{
    Rng rng(9);
    const size_t dim = 4;
    pm::PerfModel model = trainedToyModel(dim, rng);
    model.setCalibration(0, {0.01, 1.0, 0.002}, -20.0, 0.0);
    model.setCalibration(1, {-0.02, 0.98}, -20.0, 0.0);

    std::vector<std::vector<double>> queries;
    for (size_t i = 0; i < 17; ++i) {
        std::vector<double> f(dim);
        for (auto &v : f)
            v = rng.normal();
        queries.push_back(f);
    }
    auto batch = model.predictBatch(queries);
    auto raw = model.rawLogPredictionBatch(queries);
    ASSERT_EQ(batch.size(), queries.size());
    ASSERT_EQ(raw.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
        pm::PerfPrediction one = model.predict(queries[i]);
        EXPECT_NEAR(one.trainStepTimeSec, batch[i].trainStepTimeSec,
                    1e-12 * one.trainStepTimeSec);
        EXPECT_NEAR(one.servingTimeSec, batch[i].servingTimeSec,
                    1e-12 * one.servingTimeSec);
        EXPECT_NEAR(model.rawLogPrediction(queries[i], 0), raw[i][0], 1e-12);
        EXPECT_NEAR(model.rawLogPrediction(queries[i], 1), raw[i][1], 1e-12);
    }
}

// ------------------------------------------- thread-count invariance

namespace {

/** Toy task mirroring test_search's: known quality/cost structure. */
struct ToyTask
{
    ss::DecisionSpace space;

    ToyTask()
    {
        space.add("a", 5);
        space.add("b", 5);
    }

    double quality(const ss::Sample &s) const
    {
        return 0.1 * (double(s[0]) + double(s[1]));
    }

    std::vector<double> perf(const ss::Sample &s) const
    {
        return {1.0 + 0.25 * (double(s[0]) + double(s[1]))};
    }
};

sr::SearchOutcome
runBatchedSearch(size_t threads)
{
    ToyTask task;
    rw::ReluReward reward({{"cost", 2.0, -2.0}});
    sr::SurrogateSearchConfig cfg;
    cfg.numSteps = 60;
    cfg.samplesPerStep = 8;
    cfg.threads = threads;
    cfg.rl.learningRate = 0.15;
    ev::PerfBatchFn perf_batch =
        [task](std::span<const ss::Sample> samples) {
            std::vector<std::vector<double>> out;
            out.reserve(samples.size());
            for (const auto &s : samples)
                out.push_back(task.perf(s));
            return out;
        };
    sr::SurrogateSearch search(
        task.space, [task](const ss::Sample &s) { return task.quality(s); },
        perf_batch, reward, cfg);
    Rng rng(41);
    return search.run(rng);
}

} // namespace

TEST(EvalEngine, BatchPathBitIdenticalAcrossThreadCounts)
{
    sr::SearchOutcome t1 = runBatchedSearch(1);
    sr::SearchOutcome t4 = runBatchedSearch(4);
    sr::SearchOutcome t8 = runBatchedSearch(8);

    auto expect_identical = [](const sr::SearchOutcome &a,
                               const sr::SearchOutcome &b) {
        EXPECT_EQ(a.finalSample, b.finalSample);
        EXPECT_EQ(a.finalEntropy, b.finalEntropy);
        EXPECT_EQ(a.finalMeanReward, b.finalMeanReward);
        ASSERT_EQ(a.history.size(), b.history.size());
        for (size_t i = 0; i < a.history.size(); ++i) {
            EXPECT_EQ(a.history[i].sample, b.history[i].sample);
            EXPECT_EQ(a.history[i].quality, b.history[i].quality);
            EXPECT_EQ(a.history[i].performance, b.history[i].performance);
            EXPECT_EQ(a.history[i].reward, b.history[i].reward);
        }
    };
    expect_identical(t1, t4);
    expect_identical(t1, t8);
}

// -------------------------------- batched perf stage vs hand-rolled

// The same candidates evaluated (a) one at a time through hand-rolled
// quality -> perf -> reward calls, and (b) through EvalEngine steps with
// the batched performance stage (SimCache::getOrComputeBatch +
// Simulator::runBatch behind CachedDlrmTimer::trainStepTimes, cold
// cache, parallel fill). Pure functions: every reward is bitwise equal.
TEST(EvalEngine, BatchedPerfStageRewardsMatchHandRolledBitwise)
{
    ss::DlrmSearchSpace space(arch::baselineDlrm());
    const hw::Platform train = hw::trainingPlatform();
    const hw::Platform serve = hw::servingPlatform();
    rw::ReluReward reward(
        {{"step_time", 1e-3, -2.0},
         {"model_size", space.baseline().modelBytes(), -2.0}});
    auto quality = [&](const ss::Sample &s) {
        return 100.0 *
               h2o::baselines::dlrmQualitySurrogate(space.decode(s));
    };
    const size_t steps = 3, shards = 4;
    Rng rng(17);
    std::vector<ss::Sample> candidates;
    for (size_t i = 0; i < steps * shards; ++i)
        candidates.push_back(space.decisions().uniformSample(rng));

    std::vector<double> expected;
    {
        ev::CachedDlrmTimer timer(train, serve);
        for (const auto &s : candidates) {
            std::vector<double> perf{timer.trainStepTime(space, s),
                                     space.decode(s).modelBytes()};
            expected.push_back(reward.compute({quality(s), perf}));
        }
    }

    for (size_t threads : {1u, 4u, 8u}) {
        ev::CachedDlrmTimer timer(train, serve, 1 << 16, threads);
        ev::PerfBatchFn perf_batch =
            [&](std::span<const ss::Sample> batch) {
                auto times = timer.trainStepTimes(space, batch);
                std::vector<std::vector<double>> out;
                for (size_t i = 0; i < batch.size(); ++i)
                    out.push_back(
                        {times[i], space.decode(batch[i]).modelBytes()});
                return out;
            };
        ev::EvalEngineConfig cfg;
        cfg.numShards = shards;
        cfg.threads = threads;
        ev::EvalEngine engine(perf_batch, reward, cfg, quality);
        for (size_t step = 0; step < steps; ++step) {
            auto e = engine.evaluate(
                step, [&](size_t s, ss::Sample &sample) {
                    sample = candidates[step * shards + s];
                });
            ASSERT_EQ(e.survivors.size(), shards);
            for (size_t s = 0; s < shards; ++s)
                EXPECT_EQ(std::bit_cast<uint64_t>(e.rewards[s]),
                          std::bit_cast<uint64_t>(
                              expected[step * shards + s]))
                    << "threads " << threads << " step " << step
                    << " shard " << s;
        }
    }
}

// ------------------------------------------- inline single-worker path

namespace {

/** One engine run with faults; threads = 1 takes the caller-thread
 *  inline path, threads > 1 dispatches to the pool. Returns everything
 *  observable. */
struct EngineRunResult
{
    std::vector<ev::StepEval> evals;
    std::vector<double> rng_probes; ///< post-run per-shard draws
    uint64_t inline_steps = 0;
    uint64_t dispatched_steps = 0;
};

EngineRunResult
runFaultyEngine(size_t threads)
{
    ToyTask task;
    rw::ReluReward reward({{"cost", 2.0, -2.0}});
    ex::FaultInjector faults({0.15, 0.0, 0.0, 0.2, 77});
    const size_t shards = 6, steps = 20;

    ev::EvalEngineConfig cfg;
    cfg.numShards = shards;
    cfg.threads = threads;
    cfg.faults = &faults;
    ev::PerfBatchFn perf_batch =
        [&](std::span<const ss::Sample> samples) {
            std::vector<std::vector<double>> out;
            for (const auto &s : samples)
                out.push_back(task.perf(s));
            return out;
        };
    ev::EvalEngine engine(
        perf_batch, reward, cfg,
        [&](const ss::Sample &s) { return task.quality(s); });

    std::vector<Rng> shard_rngs;
    for (size_t s = 0; s < shards; ++s)
        shard_rngs.emplace_back(300 + s);

    EngineRunResult run;
    for (size_t step = 0; step < steps; ++step) {
        run.evals.push_back(engine.evaluate(
            step, [&](size_t s, ss::Sample &sample) {
                sample = task.space.uniformSample(shard_rngs[s]);
            }));
    }
    run.inline_steps = engine.runner().inlineSteps();
    run.dispatched_steps = engine.runner().dispatchedSteps();
    // Probe each shard's stream position: equal probes mean the two
    // paths advanced every stream identically — including NOT advancing
    // the streams of degraded shards.
    for (size_t s = 0; s < shards; ++s)
        run.rng_probes.push_back(double(
            task.space.uniformSample(shard_rngs[s])[0]));
    return run;
}

} // namespace

TEST(EvalEngine, InlinePathBitIdenticalToDispatch)
{
    EngineRunResult inl = runFaultyEngine(1);
    EngineRunResult disp = runFaultyEngine(4);

    // The two runs took the paths their thread counts select.
    EXPECT_EQ(inl.inline_steps, inl.evals.size());
    EXPECT_EQ(inl.dispatched_steps, 0u);
    EXPECT_EQ(disp.inline_steps, 0u);
    EXPECT_EQ(disp.dispatched_steps, disp.evals.size());

    ASSERT_EQ(inl.evals.size(), disp.evals.size());
    size_t degraded_total = 0;
    for (size_t i = 0; i < inl.evals.size(); ++i) {
        const ev::StepEval &a = inl.evals[i];
        const ev::StepEval &b = disp.evals[i];
        EXPECT_EQ(a.samples, b.samples) << "step " << i;
        EXPECT_EQ(a.qualities, b.qualities) << "step " << i;
        EXPECT_EQ(a.performance, b.performance) << "step " << i;
        EXPECT_EQ(a.rewards, b.rewards) << "step " << i;
        EXPECT_EQ(a.survivors, b.survivors) << "step " << i;
        ASSERT_EQ(a.report.shards.size(), b.report.shards.size());
        for (size_t s = 0; s < a.report.shards.size(); ++s) {
            EXPECT_EQ(a.report.shards[s].state, b.report.shards[s].state);
            EXPECT_EQ(a.report.shards[s].attempts,
                      b.report.shards[s].attempts);
        }
        degraded_total +=
            a.report.shards.size() - a.survivors.size();
    }
    // The fault rates above must actually have degraded shards, or the
    // RNG non-advancement half of the check is vacuous.
    EXPECT_GT(degraded_total, 0u);

    // Every shard's RNG stream ended at the same position.
    EXPECT_EQ(inl.rng_probes, disp.rng_probes);
}

// ------------------------------------------------- fault degradation

TEST(EvalEngine, FaultsDropCandidatesFromBatchGracefully)
{
    ToyTask task;
    rw::ReluReward reward({{"cost", 2.0, -2.0}});
    ex::FaultInjector faults({0.0, 0.0, 0.0, 0.35, 99});

    const size_t shards = 8, steps = 25;
    size_t perf_calls = 0, perf_samples = 0;
    ev::PerfBatchFn perf_batch =
        [&](std::span<const ss::Sample> samples) {
            ++perf_calls;
            perf_samples += samples.size();
            std::vector<std::vector<double>> out;
            for (const auto &s : samples)
                out.push_back(task.perf(s));
            return out;
        };
    ev::EvalEngineConfig cfg;
    cfg.numShards = shards;
    cfg.faults = &faults;
    ev::EvalEngine engine(
        perf_batch, reward, cfg,
        [&](const ss::Sample &s) { return task.quality(s); });

    std::vector<Rng> shard_rngs;
    for (size_t s = 0; s < shards; ++s)
        shard_rngs.emplace_back(1000 + s);

    size_t total_survivors = 0, total_degraded = 0;
    std::vector<size_t> body_runs(shards, 0);
    for (size_t step = 0; step < steps; ++step) {
        auto step_eval = engine.evaluate(
            step, [&](size_t s, ss::Sample &sample) {
                ++body_runs[s];
                sample = task.space.uniformSample(shard_rngs[s]);
            });

        // Survivors ascending, consistent with the runner's report.
        EXPECT_EQ(step_eval.survivors, step_eval.report.survivors());
        ASSERT_EQ(step_eval.samples.size(), shards);
        ASSERT_EQ(step_eval.rewards.size(), shards);
        size_t cursor = 0;
        for (size_t s = 0; s < shards; ++s) {
            bool survived = cursor < step_eval.survivors.size() &&
                            step_eval.survivors[cursor] == s;
            if (survived) {
                ++cursor;
                ASSERT_EQ(step_eval.performance[s].size(), 1u);
                EXPECT_EQ(step_eval.performance[s], task.perf(
                              step_eval.samples[s]));
                EXPECT_EQ(step_eval.rewards[s], reward.compute(
                              {step_eval.qualities[s],
                               step_eval.performance[s]}));
            } else {
                // Degraded shard: value-initialized, no perf/reward.
                EXPECT_EQ(step_eval.report.shards[s].state,
                          ex::ShardState::Degraded);
                EXPECT_TRUE(step_eval.performance[s].empty());
                EXPECT_EQ(step_eval.qualities[s], 0.0);
                EXPECT_EQ(step_eval.rewards[s], 0.0);
            }
        }
        total_survivors += step_eval.survivors.size();
        total_degraded += shards - step_eval.survivors.size();
    }

    // At preemptProb 0.35 over 200 decisions both outcomes must occur.
    EXPECT_GT(total_survivors, 0u);
    EXPECT_GT(total_degraded, 0u);
    EXPECT_EQ(faults.stats().preemptions.load(), total_degraded);
    // The batched perf stage saw exactly the survivors, once per step.
    EXPECT_EQ(perf_calls, steps);
    EXPECT_EQ(perf_samples, total_survivors);
    // A degraded shard's body never ran: its RNG stream is untouched, so
    // per-shard body counts equal that shard's survivals.
    size_t body_total = 0;
    for (size_t s = 0; s < shards; ++s)
        body_total += body_runs[s];
    EXPECT_EQ(body_total, total_survivors);
}

TEST(EvalEngine, TransientFailuresRetryToFullBatch)
{
    ToyTask task;
    rw::ReluReward reward({{"cost", 2.0, -2.0}});
    // Fail-only config: retries always recover within maxShardAttempts'
    // default of 3 often enough that most steps stay complete; crucially
    // no shard is ever silently skipped without a Degraded mark.
    ex::FaultInjector faults({0.3, 0.0, 0.0, 0.0, 7});

    const size_t shards = 4, steps = 20;
    ev::PerfBatchFn perf_batch =
        [&](std::span<const ss::Sample> samples) {
            std::vector<std::vector<double>> out;
            for (const auto &s : samples)
                out.push_back(task.perf(s));
            return out;
        };
    ev::EvalEngineConfig cfg;
    cfg.numShards = shards;
    cfg.faults = &faults;
    ev::EvalEngine engine(
        perf_batch, reward, cfg,
        [&](const ss::Sample &s) { return task.quality(s); });

    std::vector<Rng> shard_rngs;
    for (size_t s = 0; s < shards; ++s)
        shard_rngs.emplace_back(500 + s);

    size_t retried = 0;
    for (size_t step = 0; step < steps; ++step) {
        auto step_eval = engine.evaluate(
            step, [&](size_t s, ss::Sample &sample) {
                sample = task.space.uniformSample(shard_rngs[s]);
            });
        for (size_t s = 0; s < shards; ++s) {
            const auto &res = step_eval.report.shards[s];
            if (res.state == ex::ShardState::Retried) {
                ++retried;
                // A retried shard still delivers a full evaluation.
                EXPECT_FALSE(step_eval.performance[s].empty());
            }
        }
    }
    EXPECT_GT(faults.stats().failures.load(), 0u);
    EXPECT_GT(retried, 0u);
}
