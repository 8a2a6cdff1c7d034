/**
 * @file
 * Unit tests for the search engines: Pareto utilities, the surrogate
 * searcher, the unified single-step H2O DLRM searcher, and the TuNAS
 * baseline — including the data-usage invariants that distinguish the
 * two algorithms (Figure 2).
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "pipeline/pipeline.h"
#include "reward/reward.h"
#include "search/h2o_dlrm_search.h"
#include "search/pareto.h"
#include "search/surrogate_search.h"
#include "search/tunas_search.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

namespace sr = h2o::search;
namespace ss = h2o::searchspace;
namespace rw = h2o::reward;
namespace pl = h2o::pipeline;
namespace sn = h2o::supernet;
namespace arch = h2o::arch;
using h2o::common::Rng;

// -------------------------------------------------------------- pareto

TEST(Pareto, Dominance)
{
    sr::ParetoPoint a{0.9, 1.0}, b{0.8, 2.0}, c{0.9, 1.0};
    EXPECT_TRUE(sr::dominates(a, b));
    EXPECT_FALSE(sr::dominates(b, a));
    EXPECT_FALSE(sr::dominates(a, c)); // equal: no strict improvement
}

TEST(Pareto, FrontExtraction)
{
    std::vector<sr::ParetoPoint> pts = {
        {0.9, 3.0}, // on front (best quality)
        {0.8, 1.0}, // on front (cheapest good)
        {0.7, 2.0}, // dominated by {0.8, 1.0}
        {0.85, 2.0}, // on front
        {0.6, 0.5}, // on front (cheapest)
    };
    auto front = sr::paretoFront(pts);
    std::vector<size_t> expected = {4, 1, 3, 0};
    EXPECT_EQ(front, expected);
}

TEST(Pareto, FrontOfEmptyAndSingle)
{
    EXPECT_TRUE(sr::paretoFront({}).empty());
    auto f = sr::paretoFront({{0.5, 1.0}});
    EXPECT_EQ(f.size(), 1u);
}

TEST(Pareto, HypervolumeOrdersFronts)
{
    sr::ParetoPoint ref{0.0, 10.0};
    std::vector<sr::ParetoPoint> good = {{0.9, 2.0}, {0.8, 1.0}};
    std::vector<sr::ParetoPoint> bad = {{0.6, 5.0}, {0.5, 4.0}};
    EXPECT_GT(sr::hypervolume(good, ref), sr::hypervolume(bad, ref));
}

TEST(Pareto, HypervolumeRectangle)
{
    sr::ParetoPoint ref{0.0, 2.0};
    std::vector<sr::ParetoPoint> pts = {{1.0, 1.0}};
    EXPECT_DOUBLE_EQ(sr::hypervolume(pts, ref), 1.0);
}

// ---------------------------------------------------- surrogate search

namespace {

/** A toy space where quality prefers high choice indices and cost grows
 *  with them: the reward target admits a known optimum. */
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
        // Cost: 1.0 at choice 0, 3.0 at choice 4 (per decision, summed).
        return {1.0 + 0.25 * (double(s[0]) + double(s[1]))};
    }
};

} // namespace

TEST(SurrogateSearch, FindsConstrainedOptimum)
{
    ToyTask task;
    // Target cost 2.0: the best feasible candidates have s[0]+s[1] = 4.
    rw::ReluReward reward({{"cost", 2.0, -2.0}});
    sr::SurrogateSearchConfig cfg;
    cfg.numSteps = 400;
    cfg.samplesPerStep = 8;
    cfg.threads = 1;
    cfg.rl.learningRate = 0.15;
    sr::SurrogateSearch search(
        task.space, [&](const ss::Sample &s) { return task.quality(s); },
        [&](const ss::Sample &s) { return task.perf(s); }, reward, cfg);
    Rng rng(21);
    auto outcome = search.run(rng);
    double sum = double(outcome.finalSample[0] + outcome.finalSample[1]);
    // Optimum at total 4 (cost exactly at target); allow one step slack.
    EXPECT_GE(sum, 3.0);
    EXPECT_LE(sum, 5.0);
    EXPECT_EQ(outcome.history.size(), 400u * 8u);
}

TEST(SurrogateSearch, UnconstrainedMaximizesQuality)
{
    ToyTask task;
    rw::ReluReward reward({{"cost", 100.0, -1.0}}); // never binding
    sr::SurrogateSearchConfig cfg;
    cfg.numSteps = 300;
    cfg.samplesPerStep = 8;
    cfg.threads = 1;
    cfg.rl.learningRate = 0.15;
    sr::SurrogateSearch search(
        task.space, [&](const ss::Sample &s) { return task.quality(s); },
        [&](const ss::Sample &s) { return task.perf(s); }, reward, cfg);
    Rng rng(22);
    auto outcome = search.run(rng);
    EXPECT_EQ(outcome.finalSample[0], 4u);
    EXPECT_EQ(outcome.finalSample[1], 4u);
}

TEST(SurrogateSearch, MultithreadMatchesSequentialStatistics)
{
    ToyTask task;
    rw::ReluReward reward({{"cost", 2.0, -2.0}});
    sr::SurrogateSearchConfig cfg;
    cfg.numSteps = 50;
    cfg.samplesPerStep = 4;
    cfg.rl.learningRate = 0.1;

    cfg.threads = 4;
    sr::SurrogateSearch mt(
        task.space, [&](const ss::Sample &s) { return task.quality(s); },
        [&](const ss::Sample &s) { return task.perf(s); }, reward, cfg);
    Rng rng1(23);
    auto o1 = mt.run(rng1);

    cfg.threads = 1;
    sr::SurrogateSearch st(
        task.space, [&](const ss::Sample &s) { return task.quality(s); },
        [&](const ss::Sample &s) { return task.perf(s); }, reward, cfg);
    Rng rng2(23);
    auto o2 = st.run(rng2);

    // Same seeds, deterministic evaluation: identical trajectories.
    EXPECT_EQ(o1.finalSample, o2.finalSample);
    ASSERT_EQ(o1.history.size(), o2.history.size());
    EXPECT_DOUBLE_EQ(o1.history.back().reward, o2.history.back().reward);
}

// ----------------------------------------------- H2O unified single-step

namespace {

arch::DlrmArch
searchDlrm()
{
    arch::DlrmArch a;
    a.numDenseFeatures = 4;
    a.tables = {{512, 8, 1.0}, {256, 8, 1.0}};
    a.bottomMlp = {{16, 0}};
    a.topMlp = {{32, 0}};
    a.globalBatch = 256;
    return a;
}

struct DlrmFixture
{
    ss::DlrmSearchSpace space;
    Rng rng;
    sn::DlrmSupernet net;
    std::unique_ptr<pl::InMemoryPipeline> pipe;

    DlrmFixture()
        : space(searchDlrm()), rng(31),
          net(space, sn::SupernetConfig{128, 64}, rng)
    {
        std::vector<uint64_t> vocabs;
        std::vector<double> ids;
        for (const auto &t : searchDlrm().tables) {
            vocabs.push_back(t.vocab);
            ids.push_back(t.avgIds);
        }
        auto gen = std::make_unique<pl::TrafficGenerator>(
            pl::trafficConfigFor(4, vocabs, ids), 99);
        pipe = std::make_unique<pl::InMemoryPipeline>(std::move(gen), 32);
    }
};

std::vector<double>
cheapPerf(const ss::DlrmSearchSpace &space, const ss::Sample &s)
{
    arch::DlrmArch a = space.decode(s);
    return {a.flopsPerExample() / 1e5};
}

} // namespace

TEST(H2oSearch, RunsAndEnforcesPipelineContract)
{
    DlrmFixture f;
    rw::ReluReward reward({{"step_time", 2.0, -0.5}});
    sr::H2oSearchConfig cfg;
    cfg.numShards = 4;
    cfg.numSteps = 20;
    cfg.warmupSteps = 5;
    sr::H2oDlrmSearch search(
        f.space, f.net, *f.pipe,
        [&](const ss::Sample &s) { return cheapPerf(f.space, s); }, reward,
        cfg);
    Rng rng(32);
    auto outcome = search.run(rng);

    EXPECT_TRUE(f.space.decisions().validSample(outcome.finalSample));
    EXPECT_EQ(outcome.history.size(), 20u * 4u);
    // Every leased batch must have completed alpha-then-W usage.
    auto stats = f.pipe->stats();
    EXPECT_EQ(stats.batchesIssued, (5u + 20u) * 4u);
    EXPECT_EQ(stats.completeLeases, stats.batchesIssued);
    EXPECT_EQ(stats.alphaOnlyLeases, 0u);
    EXPECT_EQ(search.stepStats().size(), 20u);
}

TEST(H2oSearch, QualityImprovesOverSearch)
{
    DlrmFixture f;
    rw::ReluReward reward({{"step_time", 1e9, -0.5}}); // non-binding
    sr::H2oSearchConfig cfg;
    cfg.numShards = 4;
    cfg.numSteps = 60;
    cfg.warmupSteps = 10;
    sr::H2oDlrmSearch search(
        f.space, f.net, *f.pipe,
        [&](const ss::Sample &s) { return cheapPerf(f.space, s); }, reward,
        cfg);
    Rng rng(33);
    auto outcome = search.run(rng);
    const auto &st = search.stepStats();
    double early = 0.0, late = 0.0;
    for (size_t i = 0; i < 10; ++i) {
        early += st[i].trainLoss;
        late += st[st.size() - 1 - i].trainLoss;
    }
    EXPECT_LT(late, early); // shared weights learned during the search
}

// ------------------------------------------------------ TuNAS baseline

TEST(TunasSearch, RunsAndUsesSeparateValidationBatches)
{
    DlrmFixture f;
    rw::AbsoluteReward reward({{"step_time", 2.0, -0.5}});
    sr::TunasSearchConfig cfg;
    cfg.numIterations = 15;
    cfg.warmupSteps = 5;
    sr::TunasSearch search(
        f.space, f.net, *f.pipe,
        [&](const ss::Sample &s) { return cheapPerf(f.space, s); }, reward,
        cfg);
    Rng rng(34);
    auto outcome = search.run(rng);
    EXPECT_TRUE(f.space.decisions().validSample(outcome.finalSample));
    EXPECT_EQ(outcome.history.size(), 15u);
    auto stats = f.pipe->stats();
    // TuNAS leases TWICE per iteration: train + validation. The
    // validation batches never train weights (alpha-only).
    EXPECT_EQ(stats.batchesIssued, 5u + 2u * 15u);
    EXPECT_EQ(stats.alphaOnlyLeases, 15u);
}

TEST(TunasSearch, ConsumesMoreDataThanH2oPerPolicyUpdate)
{
    // The structural efficiency argument of Section 4: H2O extracts one
    // policy update and one weight update from EVERY batch; TuNAS needs
    // two batches per (weight, policy) update pair.
    DlrmFixture h2o_f, tunas_f;
    rw::ReluReward reward({{"step_time", 2.0, -0.5}});

    sr::H2oSearchConfig hcfg;
    hcfg.numShards = 1;
    hcfg.numSteps = 20;
    hcfg.warmupSteps = 0;
    sr::H2oDlrmSearch h2o_search(
        h2o_f.space, h2o_f.net, *h2o_f.pipe,
        [&](const ss::Sample &s) { return cheapPerf(h2o_f.space, s); },
        reward, hcfg);
    Rng r1(35);
    h2o_search.run(r1);

    sr::TunasSearchConfig tcfg;
    tcfg.numIterations = 20;
    tcfg.warmupSteps = 0;
    sr::TunasSearch tunas_search(
        tunas_f.space, tunas_f.net, *tunas_f.pipe,
        [&](const ss::Sample &s) { return cheapPerf(tunas_f.space, s); },
        reward, tcfg);
    Rng r2(35);
    tunas_search.run(r2);

    // Same number of policy updates (20), but TuNAS consumed 2x data.
    EXPECT_EQ(h2o_f.pipe->stats().batchesIssued, 20u);
    EXPECT_EQ(tunas_f.pipe->stats().batchesIssued, 40u);
}
