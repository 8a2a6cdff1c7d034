/**
 * @file
 * Tests for joint multi-target search: hw::TargetSet construction and
 * validation, Simulator::runBatchMulti, the per-chip batched timer
 * entry point, the MultiTargetReward combiners, the end-to-end search
 * contract (k per-chip Pareto fronts from one run, bit-identical at any
 * thread count, one-element TargetSet == legacy single-target search),
 * the version-2 checkpoint round trip, and the serve-layer JobSpec
 * target list.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <sstream>

#include "arch/dlrm_arch.h"
#include "baselines/quality_model.h"
#include "common/rng.h"
#include "eval/dlrm_timer.h"
#include "hw/target_set.h"
#include "reward/reward.h"
#include "search/pareto.h"
#include "search/surrogate_search.h"
#include "search/stepwise.h"
#include "searchspace/dlrm_space.h"
#include "serve/job.h"
#include "sim/sim_cache.h"
#include "sim/simulator.h"

namespace arch = h2o::arch;
namespace bl = h2o::baselines;
namespace ev = h2o::eval;
namespace hw = h2o::hw;
namespace rw = h2o::reward;
namespace sr = h2o::search;
namespace ss = h2o::searchspace;
namespace sv = h2o::serve;
namespace sim = h2o::sim;

namespace {

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Bitwise history + finalSample + front comparison. */
void
expectSameOutcome(const sr::SearchOutcome &a, const sr::SearchOutcome &b)
{
    ASSERT_EQ(a.history.size(), b.history.size());
    for (size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(a.history[i].sample, b.history[i].sample) << i;
        EXPECT_TRUE(sameBits(a.history[i].quality, b.history[i].quality))
            << i;
        ASSERT_EQ(a.history[i].performance.size(),
                  b.history[i].performance.size())
            << i;
        for (size_t j = 0; j < a.history[i].performance.size(); ++j)
            EXPECT_TRUE(sameBits(a.history[i].performance[j],
                                 b.history[i].performance[j]))
                << i << "," << j;
        EXPECT_TRUE(sameBits(a.history[i].reward, b.history[i].reward))
            << i;
        EXPECT_EQ(a.history[i].step, b.history[i].step) << i;
    }
    EXPECT_EQ(a.finalSample, b.finalSample);
    ASSERT_EQ(a.targetFronts.size(), b.targetFronts.size());
    for (size_t c = 0; c < a.targetFronts.size(); ++c) {
        EXPECT_EQ(a.targetFronts[c].target, b.targetFronts[c].target);
        EXPECT_EQ(a.targetFronts[c].indices, b.targetFronts[c].indices);
    }
}

/** Everything one small multi-target surrogate search needs. Owns the
 *  space, timer and reward so steppers can outlive local scopes. */
struct MiniSearch
{
    MiniSearch(const hw::TargetSet &target_set, size_t threads = 1,
               size_t steps = 4, size_t shards = 3)
        : targets(target_set), space(arch::baselineDlrm()),
          timer(hw::trainingPlatform(), hw::servingPlatform(),
                size_t{1} << 12, threads == 0 ? 1 : threads)
    {
        std::vector<ss::Sample> base{space.baselineSample()};
        auto base_times = timer.serveStepTimesMulti(space, base, targets)[0];
        std::vector<rw::PerformanceObjective> objs;
        for (size_t c = 0; c < targets.size(); ++c)
            objs.push_back({targets[c].name, base_times[c], -2.0});
        reward = std::make_unique<rw::MultiTargetReward>(std::move(objs));

        sr::SurrogateSearchConfig cfg;
        cfg.numSteps = steps;
        cfg.samplesPerStep = shards;
        cfg.rl.learningRate = 0.08;
        cfg.rl.entropyWeight = 5e-3;
        cfg.threads = threads == 0 ? 1 : threads;
        cfg.multiTarget.targetNames = targets.names();
        search = std::make_unique<sr::SurrogateSearch>(
            space.decisions(),
            [this](const ss::Sample &s) {
                return 100.0 * bl::dlrmQualitySurrogate(space.decode(s));
            },
            sr::PerfBatchFn([this](std::span<const ss::Sample> samples) {
                return timer.serveStepTimesMulti(space, samples, targets);
            }),
            *reward, cfg);
    }

    sr::SearchOutcome run(uint64_t seed = 11)
    {
        h2o::common::Rng rng(seed);
        return search->run(rng);
    }

    hw::TargetSet targets;
    ss::DlrmSearchSpace space;
    ev::CachedDlrmTimer timer;
    std::unique_ptr<rw::MultiTargetReward> reward;
    std::unique_ptr<sr::SurrogateSearch> search;
};

} // namespace

// ----------------------------------------------------------- TargetSet

TEST(TargetSet, FromNamesParsesAndCanonicalizes)
{
    auto ts = hw::TargetSet::fromNames("tpuv4i,edgecpu,edgenpu");
    ASSERT_EQ(ts.size(), 3u);
    EXPECT_EQ(ts[0].name, "tpuv4i");
    EXPECT_EQ(ts[0].platform.chip.name, "TPUv4i");
    EXPECT_EQ(ts[1].platform.chip.name, "EdgeCPU");
    EXPECT_EQ(ts[2].platform.chip.name, "EdgeNPU");
    EXPECT_EQ(ts[0].platform.numChips, 1u);
    EXPECT_EQ(ts.names(),
              (std::vector<std::string>{"tpuv4i", "edgecpu", "edgenpu"}));
    // Aliases canonicalize to the registry name.
    auto alias = hw::TargetSet::fromNames("gpuv100");
    ASSERT_EQ(alias.size(), 1u);
    EXPECT_EQ(alias[0].name, "v100");
}

TEST(TargetSet, EmptyCsvIsSingleTargetMode)
{
    EXPECT_TRUE(hw::TargetSet().empty());
    EXPECT_TRUE(hw::TargetSet::fromNames("").empty());
    EXPECT_TRUE(hw::TargetSet::fromNames(",,").empty());
}

TEST(TargetSet, ValidationFailures)
{
    EXPECT_EXIT(hw::TargetSet::fromNames("tpuv4i,abacus"),
                testing::ExitedWithCode(1), "unknown chip");
    EXPECT_EXIT(hw::TargetSet::fromNames("edgecpu,edgecpu"),
                testing::ExitedWithCode(1), "duplicate target name");
    // The alias and its canonical name collide after canonicalization.
    EXPECT_EXIT(hw::TargetSet::fromNames("v100,gpuv100"),
                testing::ExitedWithCode(1), "duplicate target name");
    EXPECT_EXIT(hw::TargetSet(std::vector<hw::Target>{
                    {"x", hw::Platform{hw::tpuV4i(), 0}}}),
                testing::ExitedWithCode(1), "zero chips");
    EXPECT_EXIT(hw::TargetSet(std::vector<hw::Target>{
                    {"", hw::Platform{hw::tpuV4i(), 1}}}),
                testing::ExitedWithCode(1), "empty name");
}

TEST(TargetSet, FromModelsCoversRegistry)
{
    auto ts = hw::TargetSet::fromModels(hw::allChipModels());
    EXPECT_EQ(ts.size(), hw::allChipModels().size());
    for (size_t c = 0; c < ts.size(); ++c)
        EXPECT_EQ(ts[c].name, hw::chipModelName(hw::allChipModels()[c]));
}

// ------------------------------------------------------- runBatchMulti

TEST(RunBatchMulti, MatchesPerPairRuns)
{
    hw::Platform v4i{hw::tpuV4i(), 1};
    hw::Platform npu{hw::edgeNpu(), 1};
    arch::DlrmArch a = arch::baselineDlrm();
    a.globalBatch = 1024;
    sim::Graph g0 = arch::buildDlrmGraph(a, v4i, arch::ExecMode::Serving);
    sim::Graph g1 = arch::buildDlrmGraph(a, npu, arch::ExecMode::Serving);
    sim::SimConfig c0{v4i.chip, true, true, {}};
    sim::SimConfig c1{npu.chip, true, true, {}};

    // Interleave graphs and configs so the per-config simulator reuse
    // path is exercised out of order.
    std::vector<sim::SimRequest> reqs = {
        {&g0, &c0}, {&g1, &c1}, {&g0, &c1}, {&g1, &c0}, {&g0, &c0}};
    auto batch = sim::Simulator::runBatchMulti(reqs);
    ASSERT_EQ(batch.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        sim::Simulator solo(*reqs[i].config);
        sim::SimResult ref = solo.run(*reqs[i].graph);
        EXPECT_TRUE(sameBits(batch[i].stepTimeSec, ref.stepTimeSec)) << i;
        EXPECT_TRUE(sameBits(batch[i].totalFlops, ref.totalFlops)) << i;
    }
    // The chips genuinely differ, so cross-chip results must too.
    EXPECT_FALSE(sameBits(batch[0].stepTimeSec, batch[2].stepTimeSec));
}

// --------------------------------------------------- serveStepTimesMulti

TEST(ServeStepTimesMulti, OneTargetBitwiseEqualsLegacyEntryPoint)
{
    ss::DlrmSearchSpace space(arch::baselineDlrm());
    std::vector<ss::Sample> samples;
    for (size_t i = 0; i < 6; ++i) {
        ss::Sample s = space.baselineSample();
        s[i % s.size()] = (s[i % s.size()] + i) % 2;
        samples.push_back(s);
    }
    hw::TargetSet solo = hw::TargetSet::fromNames("tpuv4i");

    ev::CachedDlrmTimer legacy(hw::trainingPlatform(),
                               hw::servingPlatform(), size_t{1} << 10);
    auto ref = legacy.serveStepTimes(space, samples);

    ev::CachedDlrmTimer multi(hw::trainingPlatform(),
                              hw::servingPlatform(), size_t{1} << 10);
    auto out = multi.serveStepTimesMulti(space, samples, solo);

    ASSERT_EQ(out.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(out[i].size(), 1u);
        EXPECT_TRUE(sameBits(out[i][0], ref[i])) << i;
    }
    // Identical key sequence: identical counters, and repeating the
    // multi call through the OTHER timer's cache is all hits.
    EXPECT_EQ(multi.cacheStats().hits, legacy.cacheStats().hits);
    EXPECT_EQ(multi.cacheStats().misses, legacy.cacheStats().misses);
    auto again = legacy.serveStepTimesMulti(space, samples, solo);
    EXPECT_EQ(legacy.cacheStats().misses, multi.cacheStats().misses);
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_TRUE(sameBits(again[i][0], ref[i]));
}

TEST(ServeStepTimesMulti, PerChipColumnsMatchDirectSimulation)
{
    ss::DlrmSearchSpace space(arch::baselineDlrm());
    hw::TargetSet targets =
        hw::TargetSet::fromNames("tpuv4i,edgecpu,edgenpu");
    std::vector<ss::Sample> samples{space.baselineSample()};

    ev::CachedDlrmTimer timer(hw::trainingPlatform(),
                              hw::servingPlatform(), size_t{1} << 10);
    auto out = timer.serveStepTimesMulti(space, samples, targets);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].size(), 3u);
    // Every (candidate, chip) pair is a distinct key: all misses.
    EXPECT_EQ(timer.cacheStats().misses, 3u);
    EXPECT_EQ(timer.cacheStats().hits, 0u);

    for (size_t c = 0; c < targets.size(); ++c) {
        arch::DlrmArch serving = space.baseline();
        serving.globalBatch = 1024;
        sim::Simulator solo(
            sim::SimConfig{targets[c].platform.chip, true, true, {}});
        sim::SimResult ref = solo.run(arch::buildDlrmGraph(
            serving, targets[c].platform, arch::ExecMode::Serving));
        EXPECT_TRUE(sameBits(out[0][c], ref.stepTimeSec)) << c;
    }
    // Edge chips are much slower than the serving TPU.
    EXPECT_GT(out[0][1], out[0][0]);
    EXPECT_GT(out[0][2], out[0][0]);
}

TEST(ServeStepTimesMulti, MixedChipCountsMatchDirectSimulationAtAnyPool)
{
    // One chip at 1 and at 4 chips plus a second chip at 1: the first
    // two share a SimConfig but not a graph, so their keys must differ
    // and each candidate is lowered once per chip count.
    ss::DlrmSearchSpace space(arch::baselineDlrm());
    hw::TargetSet targets({{"tpuv4i_x1", {hw::tpuV4i(), 1}},
                           {"tpuv4i_x4", {hw::tpuV4i(), 4}},
                           {"edgenpu_x1", {hw::edgeNpu(), 1}}});
    // 86 distinct samples x 3 targets = 258 keys: candidate 85's keys
    // (positions 255..257) straddle the 256-key fill-chunk boundary.
    h2o::common::Rng rng(5);
    std::vector<ss::Sample> samples;
    std::set<ss::Sample> seen;
    while (samples.size() < 86) {
        ss::Sample s = space.decisions().uniformSample(rng);
        if (seen.insert(s).second)
            samples.push_back(s);
    }
    ASSERT_EQ(samples.size() * targets.size(), 258u);
    ASSERT_EQ(sim::SimCache::kDefaultFillChunk, 256u);

    std::vector<std::vector<double>> by_pool[2];
    const size_t pools[2] = {1, 4};
    for (size_t p = 0; p < 2; ++p) {
        ev::CachedDlrmTimer timer(hw::trainingPlatform(),
                                  hw::servingPlatform(), size_t{1} << 10,
                                  pools[p]);
        by_pool[p] = timer.serveStepTimesMulti(space, samples, targets);
        EXPECT_EQ(timer.cacheStats().misses, 258u) << pools[p];
        EXPECT_EQ(timer.cacheStats().entries, 258u) << pools[p];
        // A repeat is all hits with the same values.
        auto again = timer.serveStepTimesMulti(space, samples, targets);
        EXPECT_EQ(timer.cacheStats().hits, 258u) << pools[p];
        ASSERT_EQ(again.size(), samples.size());
        for (size_t i = 0; i < samples.size(); ++i)
            for (size_t c = 0; c < targets.size(); ++c)
                EXPECT_TRUE(sameBits(again[i][c], by_pool[p][i][c]))
                    << i << "," << c;
    }

    ASSERT_EQ(by_pool[0].size(), samples.size());
    for (size_t i = 0; i < samples.size(); ++i) {
        ASSERT_EQ(by_pool[0][i].size(), targets.size());
        for (size_t c = 0; c < targets.size(); ++c) {
            arch::DlrmArch serving = space.decode(samples[i]);
            serving.globalBatch = 1024;
            sim::Simulator solo(
                sim::SimConfig{targets[c].platform.chip, true, true, {}});
            sim::SimResult ref = solo.run(arch::buildDlrmGraph(
                serving, targets[c].platform, arch::ExecMode::Serving));
            EXPECT_TRUE(sameBits(by_pool[0][i][c], ref.stepTimeSec))
                << i << "," << c;
            EXPECT_TRUE(sameBits(by_pool[1][i][c], by_pool[0][i][c]))
                << i << "," << c;
        }
    }
    // The chip counts genuinely differ in step time.
    EXPECT_FALSE(sameBits(by_pool[0][0][0], by_pool[0][0][1]));
}

// --------------------------------------------------- MultiTargetReward

TEST(MultiTargetReward, MinPicksTheWorstTarget)
{
    rw::MultiTargetReward r({{"a", 1.0, -2.0}, {"b", 1.0, -4.0}});
    // Target a at 1.5x its budget (-2 * 0.5 = -1), b under budget (0).
    rw::CandidateMetrics m{10.0, {1.5, 0.5}};
    EXPECT_DOUBLE_EQ(r.compute(m), 9.0);
    // Flip which target violates: b's steeper beta dominates.
    rw::CandidateMetrics m2{10.0, {0.5, 1.5}};
    EXPECT_DOUBLE_EQ(r.compute(m2), 8.0);
    // Nobody violates: reward is pure quality.
    rw::CandidateMetrics m3{10.0, {0.5, 0.9}};
    EXPECT_DOUBLE_EQ(r.compute(m3), 10.0);
    EXPECT_EQ(r.name(), "multi_min");
}

TEST(MultiTargetReward, OneTargetMinBitwiseEqualsRelu)
{
    rw::ReluReward relu({{"step_time", 0.0037, -2.0}});
    rw::MultiTargetReward multi({{"step_time", 0.0037, -2.0}});
    for (double perf : {0.001, 0.0037, 0.004, 0.1}) {
        rw::CandidateMetrics m{87.3125, {perf}};
        EXPECT_TRUE(sameBits(relu.compute(m), multi.compute(m))) << perf;
    }
}

TEST(MultiTargetReward, OneTargetSoftMinAlsoReducesExactly)
{
    rw::ReluReward relu({{"t", 1.0, -2.0}});
    rw::MultiTargetReward soft({{"t", 1.0, -2.0}},
                               rw::MultiTargetCombine::SoftMin, 0.05);
    for (double perf : {0.5, 1.0, 1.75}) {
        rw::CandidateMetrics m{3.14159, {perf}};
        EXPECT_TRUE(sameBits(relu.compute(m), soft.compute(m))) << perf;
    }
    EXPECT_EQ(soft.name(), "multi_softmin");
}

TEST(MultiTargetReward, SoftMinSmoothlyApproachesMinFromAbove)
{
    std::vector<rw::PerformanceObjective> objs = {{"a", 1.0, -2.0},
                                                  {"b", 1.0, -2.0}};
    rw::MultiTargetReward min_r(objs);
    rw::MultiTargetReward soft(objs, rw::MultiTargetCombine::SoftMin, 0.05);
    rw::CandidateMetrics m{5.0, {1.4, 1.1}};
    // Normalized weights bound it in [min, min + T*log(1/w_min)], and
    // it converges to the min as T -> 0.
    EXPECT_GE(soft.compute(m), min_r.compute(m));
    EXPECT_LE(soft.compute(m), min_r.compute(m) + 0.05 * std::log(2.0));
    rw::MultiTargetReward cold(objs, rw::MultiTargetCombine::SoftMin, 1e-6);
    EXPECT_NEAR(cold.compute(m), min_r.compute(m), 1e-5);
    // Equal per-target rewards: softmin degenerates to that value.
    rw::CandidateMetrics eq{5.0, {1.2, 1.2}};
    EXPECT_NEAR(soft.compute(eq), min_r.compute(eq), 1e-12);
}

// ------------------------------------------------- end-to-end search

TEST(MultiTargetSearch, EmitsPerChipFrontsThatReplayTheHistory)
{
    hw::TargetSet targets =
        hw::TargetSet::fromNames("tpuv4i,edgecpu,edgenpu");
    MiniSearch s(targets);
    auto outcome = s.run();

    ASSERT_EQ(outcome.targetFronts.size(), 3u);
    for (size_t c = 0; c < 3; ++c) {
        const auto &front = outcome.targetFronts[c];
        EXPECT_EQ(front.target, targets[c].name);
        EXPECT_FALSE(front.indices.empty());
        // The front is exactly a ParetoTracker replay of the history's
        // (quality, cost_c) stream.
        sr::ParetoTracker replay;
        for (size_t i = 0; i < outcome.history.size(); ++i)
            replay.insert(i, {outcome.history[i].quality,
                              outcome.history[i].performance[c]});
        EXPECT_EQ(front.indices, replay.front());
        // Front members carry per-chip cost vectors of width k.
        for (size_t idx : front.indices)
            ASSERT_EQ(outcome.history[idx].performance.size(), 3u);
    }
}

TEST(MultiTargetSearch, BitIdenticalAtAnyThreadCount)
{
    hw::TargetSet targets = hw::TargetSet::fromNames("tpuv4i,edgenpu");
    auto ref = MiniSearch(targets, 1).run();
    for (size_t threads : {size_t{4}, size_t{8}}) {
        auto alt = MiniSearch(targets, threads).run();
        expectSameOutcome(ref, alt);
    }
}

TEST(MultiTargetSearch, OneTargetMatchesLegacySearchBitwise)
{
    // Legacy single-target search: scalar serve time + ReluReward.
    ss::DlrmSearchSpace space(arch::baselineDlrm());
    ev::CachedDlrmTimer timer(hw::trainingPlatform(),
                              hw::servingPlatform(), size_t{1} << 12);
    std::vector<ss::Sample> base{space.baselineSample()};
    double base_time = timer.serveStepTimes(space, base)[0];
    auto quality = [&](const ss::Sample &s) {
        return 100.0 * bl::dlrmQualitySurrogate(space.decode(s));
    };
    auto perf = [&](std::span<const ss::Sample> samples) {
        auto times = timer.serveStepTimes(space, samples);
        std::vector<std::vector<double>> out;
        for (double t : times)
            out.push_back({t});
        return out;
    };
    rw::ReluReward rwd({{"tpuv4i", base_time, -2.0}});
    sr::SurrogateSearchConfig cfg;
    cfg.numSteps = 4;
    cfg.samplesPerStep = 3;
    cfg.rl.learningRate = 0.08;
    cfg.rl.entropyWeight = 5e-3;
    cfg.threads = 1;
    sr::SurrogateSearch legacy(space.decisions(), quality,
                               sr::PerfBatchFn(perf), rwd, cfg);
    h2o::common::Rng rng(11);
    auto ref = legacy.run(rng);

    auto multi = MiniSearch(hw::TargetSet::fromNames("tpuv4i")).run();
    ASSERT_EQ(ref.history.size(), multi.history.size());
    for (size_t i = 0; i < ref.history.size(); ++i) {
        EXPECT_EQ(ref.history[i].sample, multi.history[i].sample);
        EXPECT_TRUE(
            sameBits(ref.history[i].reward, multi.history[i].reward));
        EXPECT_EQ(ref.history[i].performance, multi.history[i].performance);
    }
    EXPECT_EQ(ref.finalSample, multi.finalSample);
    // The only difference: the multi run also carries its front.
    EXPECT_TRUE(ref.targetFronts.empty());
    ASSERT_EQ(multi.targetFronts.size(), 1u);
}

// ----------------------------------------------------- checkpointing

TEST(MultiTargetCheckpoint, SaveLoadRoundTripContinuesIdentically)
{
    hw::TargetSet targets = hw::TargetSet::fromNames("tpuv4i,edgecpu");

    MiniSearch uninterrupted(targets);
    auto ref = uninterrupted.run(23);

    MiniSearch first(targets);
    h2o::common::Rng rng_a(23);
    auto stepper_a = first.search->makeStepper(rng_a);
    stepper_a->step();
    stepper_a->step();
    std::ostringstream saved;
    stepper_a->save(saved);

    MiniSearch second(targets);
    h2o::common::Rng rng_b(99); // clobbered by load()
    auto stepper_b = second.search->makeStepper(rng_b);
    std::istringstream is(saved.str());
    stepper_b->load(is);
    while (stepper_b->step())
        ;
    stepper_b->step(); // exhausted: no-op
    auto resumed = stepper_b->finish();
    expectSameOutcome(ref, resumed);
}

TEST(MultiTargetCheckpoint, MismatchedTargetsRefuseToLoad)
{
    // Each death child builds a stepper, whose EvalEngine spawns a worker
    // pool; TSAN refuses new threads after a plain fork(), so re-exec the
    // child instead. gtest restores the flag after this test.
    testing::FLAGS_gtest_death_test_style = "threadsafe";

    MiniSearch writer(hw::TargetSet::fromNames("tpuv4i,edgecpu"));
    h2o::common::Rng rng(23);
    auto stepper = writer.search->makeStepper(rng);
    stepper->step();
    std::ostringstream saved;
    stepper->save(saved);

    // Same count, different chip: name-hash mismatch.
    EXPECT_EXIT(
        {
            MiniSearch other(hw::TargetSet::fromNames("tpuv4i,edgenpu"));
            h2o::common::Rng r(1);
            auto s = other.search->makeStepper(r);
            std::istringstream is(saved.str());
            s->load(is);
        },
        testing::ExitedWithCode(1), "does not match configured");

    // Different target count.
    EXPECT_EXIT(
        {
            MiniSearch other(hw::TargetSet::fromNames("tpuv4i"));
            h2o::common::Rng r(1);
            auto s = other.search->makeStepper(r);
            std::istringstream is(saved.str());
            s->load(is);
        },
        testing::ExitedWithCode(1), "configured for");

    // A single-target (version 1) stepper refuses a version-2 image.
    EXPECT_EXIT(
        {
            ss::DlrmSearchSpace space(arch::baselineDlrm());
            auto quality = [](const ss::Sample &) { return 0.0; };
            auto perf = [](std::span<const ss::Sample> samples) {
                return std::vector<std::vector<double>>(samples.size(),
                                                        {1.0});
            };
            rw::ReluReward rwd({{"t", 1.0, -2.0}});
            sr::SurrogateSearchConfig cfg;
            cfg.numSteps = 4;
            cfg.samplesPerStep = 3;
            cfg.threads = 1;
            sr::SurrogateSearch legacy(space.decisions(), quality,
                                       sr::PerfBatchFn(perf), rwd, cfg);
            h2o::common::Rng r(1);
            auto s = legacy.makeStepper(r);
            std::istringstream is(saved.str());
            s->load(is);
        },
        testing::ExitedWithCode(1), "version mismatch");
}

// ------------------------------------------------------------- serve

TEST(ServeMultiTarget, JobEmitsFrontsAndIsDeterministic)
{
    sv::JobSpec spec;
    spec.name = "mt";
    spec.kind = sv::JobKind::DlrmSurrogate;
    spec.seed = 4;
    spec.numSteps = 4;
    spec.samplesPerStep = 3;
    spec.targets = {"tpuv4i", "edgecpu", "edgenpu"};

    auto a = sv::runStandalone(spec);
    auto b = sv::runStandalone(spec);
    EXPECT_EQ(a.result.stepsRun, 4u);
    ASSERT_EQ(a.result.outcome.targetFronts.size(), 3u);
    for (const auto &front : a.result.outcome.targetFronts)
        EXPECT_FALSE(front.indices.empty());
    ASSERT_EQ(a.result.outcome.history.size(),
              b.result.outcome.history.size());
    for (size_t i = 0; i < a.result.outcome.history.size(); ++i) {
        EXPECT_EQ(a.result.outcome.history[i].sample,
                  b.result.outcome.history[i].sample);
        EXPECT_TRUE(sameBits(a.result.outcome.history[i].reward,
                             b.result.outcome.history[i].reward));
        // Multi-target jobs carry one cost column per chip.
        EXPECT_EQ(a.result.outcome.history[i].performance.size(), 3u);
    }
    EXPECT_EQ(a.result.outcome.finalSample, b.result.outcome.finalSample);
    for (size_t c = 0; c < 3; ++c)
        EXPECT_EQ(a.result.outcome.targetFronts[c].indices,
                  b.result.outcome.targetFronts[c].indices);

    // An alias in the spec canonicalizes, so checkpoints and fronts use
    // registry names.
    sv::JobSpec alias = spec;
    alias.numSteps = 2;
    alias.targets = {"gpuv100"};
    auto c = sv::runStandalone(alias);
    ASSERT_EQ(c.result.outcome.targetFronts.size(), 1u);
    EXPECT_EQ(c.result.outcome.targetFronts[0].target, "v100");
}
