/**
 * @file
 * Integration tests: miniature end-to-end versions of the paper's
 * headline experiments, wiring search space + supernet + pipeline +
 * simulator + performance model + reward + controller together.
 */

#include <gtest/gtest.h>

#include <memory>

#include "arch/dlrm_arch.h"
#include "baselines/quality_model.h"
#include "common/rng.h"
#include "hw/chip.h"
#include "perfmodel/features.h"
#include "perfmodel/perf_model.h"
#include "perfmodel/two_phase.h"
#include "pipeline/pipeline.h"
#include "reward/reward.h"
#include "search/h2o_dlrm_search.h"
#include "search/pareto.h"
#include "search/surrogate_search.h"
#include "searchspace/dlrm_space.h"
#include "sim/simulator.h"
#include "supernet/dlrm_supernet.h"

namespace ss = h2o::searchspace;
namespace sr = h2o::search;
namespace rw = h2o::reward;
namespace pm = h2o::perfmodel;
namespace pl = h2o::pipeline;
namespace sn = h2o::supernet;
namespace arch = h2o::arch;
namespace hw = h2o::hw;
namespace sim = h2o::sim;
namespace bl = h2o::baselines;
using h2o::common::Rng;

namespace {

arch::DlrmArch
miniDlrm()
{
    arch::DlrmArch a;
    a.numDenseFeatures = 4;
    a.tables = {{4096, 16, 1.0}, {1024, 16, 1.0}, {256, 8, 2.0}};
    a.bottomMlp = {{32, 0}};
    a.topMlp = {{64, 0}, {32, 0}};
    a.globalBatch = 4096;
    return a;
}

/** Simulated training step time of a decoded DLRM on a mini platform. */
double
simulatedStepTime(const ss::DlrmSearchSpace &space, const ss::Sample &s,
                  const hw::Platform &platform)
{
    arch::DlrmArch a = space.decode(s);
    sim::Simulator simulator({platform.chip, true, true, {}});
    return simulator
        .run(arch::buildDlrmGraph(a, platform, arch::ExecMode::Training))
        .stepTimeSec;
}

} // namespace

TEST(Integration, ReluBeatsAbsoluteWithMultipleObjectives)
{
    // Miniature Figure 5: a surrogate DLRM search with TWO performance
    // objectives (step time + model size). The ReLU reward must produce
    // a Pareto front with at least the hypervolume of the absolute
    // reward's front.
    ss::DlrmSearchSpace space(miniDlrm());
    hw::Platform platform{hw::tpuV4(), 8};

    double base_time =
        simulatedStepTime(space, space.baselineSample(), platform);
    double base_size = space.baseline().modelBytes();

    auto quality = [&](const ss::Sample &s) {
        return 100.0 * bl::dlrmQualitySurrogate(space.decode(s), 1);
    };
    auto perf = [&](const ss::Sample &s) {
        arch::DlrmArch a = space.decode(s);
        return std::vector<double>{
            simulatedStepTime(space, s, platform), a.modelBytes()};
    };

    auto run = [&](const std::string &kind, uint64_t seed) {
        auto reward = rw::makeReward(
            kind, {{"step_time", base_time, -2.0},
                   {"model_size", base_size, -2.0}});
        sr::SurrogateSearchConfig cfg;
        cfg.numSteps = 120;
        cfg.samplesPerStep = 8;
        cfg.rl.learningRate = 0.1;
        sr::SurrogateSearch search(space.decisions(), quality, perf,
                                   *reward, cfg);
        Rng rng(seed);
        return search.run(rng);
    };

    auto relu = run("relu", 5);
    auto abs = run("absolute", 5);

    auto to_points = [](const sr::SearchOutcome &o) {
        std::vector<sr::ParetoPoint> pts;
        for (const auto &c : o.history)
            pts.push_back({c.quality, c.performance[0]});
        return pts;
    };
    sr::ParetoPoint ref{-40.0, 10.0 * base_time};
    double hv_relu = sr::hypervolume(to_points(relu), ref);
    double hv_abs = sr::hypervolume(to_points(abs), ref);
    EXPECT_GE(hv_relu, 0.95 * hv_abs);
}

TEST(Integration, PerfModelDrivenDlrmSearch)
{
    // Full pipeline: pretrain the perf model on the simulator, fine-tune
    // on the oracle, then run the REAL single-step search (trained
    // supernet + in-memory pipeline) with perf-model rewards.
    ss::DlrmSearchSpace space(miniDlrm());
    hw::Platform platform{hw::tpuV4(), 8};
    pm::DlrmFeatureEncoder enc(space);

    auto simulate = [&](const ss::Sample &s) {
        double t = simulatedStepTime(space, s, platform);
        return pm::SimTimes{t, t * 0.4};
    };
    pm::HardwareOracle oracle({}, 7);
    pm::TwoPhaseTrainer trainer(space.decisions(), enc, simulate, oracle);

    Rng rng(8);
    pm::PerfModelConfig mcfg;
    mcfg.hiddenWidth = 64;
    mcfg.epochs = 25;
    pm::PerfModel model(enc.dim(), mcfg, rng);
    // 600 samples is deliberately tiny — this test verifies wiring,
    // not model fidelity (bench_table1_perfmodel covers accuracy).
    auto pre = trainer.pretrain(model, 600, rng);
    EXPECT_LT(pre.train, 0.4);
    trainer.finetune(model, 20, rng);

    // Wire the fine-tuned model into the real search.
    Rng net_rng(9);
    sn::DlrmSupernet supernet(space, sn::SupernetConfig{256, 64}, net_rng);
    std::vector<uint64_t> vocabs;
    std::vector<double> ids;
    for (const auto &t : miniDlrm().tables) {
        vocabs.push_back(t.vocab);
        ids.push_back(t.avgIds);
    }
    auto gen = std::make_unique<pl::TrafficGenerator>(
        pl::trafficConfigFor(4, vocabs, ids), 10);
    pl::InMemoryPipeline pipe(std::move(gen), 32);

    double base_time =
        simulatedStepTime(space, space.baselineSample(), platform);
    rw::ReluReward reward({{"step_time", base_time, -1.0}});

    sr::H2oSearchConfig cfg;
    cfg.numShards = 4;
    cfg.numSteps = 30;
    cfg.warmupSteps = 10;
    sr::H2oDlrmSearch search(
        space, supernet, pipe,
        [&](const ss::Sample &s) {
            auto p = model.predict(enc.encode(s));
            return std::vector<double>{p.trainStepTimeSec};
        },
        reward, cfg);
    Rng search_rng(11);
    auto outcome = search.run(search_rng);

    ASSERT_TRUE(space.decisions().validSample(outcome.finalSample));
    // The found architecture must decode and simulate.
    arch::DlrmArch final_arch = space.decode(outcome.finalSample);
    EXPECT_GT(final_arch.paramCount(), 0.0);
    double final_time =
        simulatedStepTime(space, outcome.finalSample, platform);
    EXPECT_GT(final_time, 0.0);
}

TEST(Integration, SearchRespectsLatencyTarget)
{
    // With a tight step-time target and a strong penalty, the searched
    // architecture must simulate at or near the target even though
    // bigger models have better surrogate quality.
    ss::DlrmSearchSpace space(miniDlrm());
    hw::Platform platform{hw::tpuV4(), 8};
    double base_time =
        simulatedStepTime(space, space.baselineSample(), platform);
    double target = 0.9 * base_time;

    auto quality = [&](const ss::Sample &s) {
        return 100.0 * bl::dlrmQualitySurrogate(space.decode(s), 2);
    };
    auto perf = [&](const ss::Sample &s) {
        return std::vector<double>{simulatedStepTime(space, s, platform)};
    };
    rw::ReluReward reward({{"step_time", target, -8.0}});
    sr::SurrogateSearchConfig cfg;
    cfg.numSteps = 150;
    cfg.samplesPerStep = 8;
    cfg.rl.learningRate = 0.1;
    sr::SurrogateSearch search(space.decisions(), quality, perf, reward,
                               cfg);
    Rng rng(12);
    auto outcome = search.run(rng);
    double final_time = simulatedStepTime(space, outcome.finalSample,
                                          platform);
    EXPECT_LT(final_time, 1.25 * target);
}

TEST(Integration, EndToEndDeterminism)
{
    // The same seeds must reproduce the same search, bit for bit.
    auto run_once = [] {
        ss::DlrmSearchSpace space(miniDlrm());
        Rng net_rng(3);
        sn::DlrmSupernet net(space, sn::SupernetConfig{128, 64}, net_rng);
        std::vector<uint64_t> vocabs;
        std::vector<double> ids;
        for (const auto &t : miniDlrm().tables) {
            vocabs.push_back(t.vocab);
            ids.push_back(t.avgIds);
        }
        auto gen = std::make_unique<pl::TrafficGenerator>(
            pl::trafficConfigFor(4, vocabs, ids), 4);
        pl::InMemoryPipeline pipe(std::move(gen), 16);
        rw::ReluReward reward({{"size", 1e9, -1.0}});
        sr::H2oSearchConfig cfg;
        cfg.numShards = 2;
        cfg.numSteps = 10;
        cfg.warmupSteps = 2;
        sr::H2oDlrmSearch search(
            space, net, pipe,
            [&](const ss::Sample &s) {
                return std::vector<double>{
                    space.decode(s).modelBytes()};
            },
            reward, cfg);
        Rng rng(5);
        return search.run(rng);
    };
    auto a = run_once();
    auto b = run_once();
    EXPECT_EQ(a.finalSample, b.finalSample);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (size_t i = 0; i < a.history.size(); ++i)
        EXPECT_DOUBLE_EQ(a.history[i].reward, b.history[i].reward);
}
