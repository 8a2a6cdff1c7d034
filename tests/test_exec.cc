/**
 * @file
 * Unit tests for the h2o::exec runtime: thread-pool and RNG-splitting
 * determinism, seeded fault injection with retry/degradation, atomic
 * checkpoint files, and the end-to-end contracts of the unified
 * single-step search on top of the runtime — bit-identical outcomes at
 * any thread count, checkpoint/resume to an identical outcome, and
 * graceful survival of heavy shard loss.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "exec/checkpoint.h"
#include "exec/fault_injector.h"
#include "exec/shard_runner.h"
#include "exec/thread_pool.h"
#include "pipeline/pipeline.h"
#include "reward/reward.h"
#include "search/h2o_dlrm_search.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

namespace ex = h2o::exec;
namespace sr = h2o::search;
namespace ss = h2o::searchspace;
namespace rw = h2o::reward;
namespace pl = h2o::pipeline;
namespace sn = h2o::supernet;
namespace arch = h2o::arch;
using h2o::common::Rng;

// ---------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsSubmittedTasks)
{
    ex::ThreadPool pool(3);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 50; ++i)
        futures.push_back(pool.submit([&] { count.fetch_add(1); }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures)
{
    ex::ThreadPool pool(1);
    auto f = pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DrainsQueueOnDestruction)
{
    std::atomic<int> count{0};
    {
        ex::ThreadPool pool(1);
        for (int i = 0; i < 20; ++i)
            pool.submit([&] { count.fetch_add(1); });
    }
    EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, ResolveClampsToWorkItems)
{
    EXPECT_EQ(ex::ThreadPool::resolve(8, 4), 4u);
    EXPECT_EQ(ex::ThreadPool::resolve(2, 4), 2u);
    EXPECT_GE(ex::ThreadPool::resolve(0, 64), 1u);
    EXPECT_EQ(ex::ThreadPool::resolve(8, 0), 1u);
}

// threads = 0 means the CPUs in the affinity mask — the same count
// common::parallelFor splits kernels across — not the host's CPU count.
TEST(ThreadPool, DefaultWidthIsTheAffinityMask)
{
    EXPECT_EQ(ex::ThreadPool::resolve(0, 1 << 20),
              h2o::common::parallelWidth());
    ex::ThreadPool pool(0);
    EXPECT_EQ(pool.size(), h2o::common::parallelWidth());
}

TEST(ThreadPool, SplitRngsMatchesSerialForkConvention)
{
    // The split must reproduce the rng.fork(s + 1) streams the serial
    // searchers always used — that is the determinism contract.
    Rng a(123), b(123);
    auto streams = ex::ThreadPool::splitRngs(a, 4);
    ASSERT_EQ(streams.size(), 4u);
    for (size_t s = 0; s < 4; ++s) {
        Rng expect = b.fork(s + 1);
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(streams[s].next64(), expect.next64());
    }
}

// ------------------------------------------------------- FaultInjector

TEST(FaultInjector, DecisionsArePureAndSeeded)
{
    ex::FaultConfig cfg;
    cfg.failProb = 0.2;
    cfg.preemptProb = 0.1;
    cfg.stragglerProb = 0.1;
    cfg.seed = 42;
    ex::FaultInjector a(cfg), b(cfg);
    cfg.seed = 43;
    ex::FaultInjector c(cfg);
    bool any_difference = false;
    for (size_t step = 0; step < 50; ++step) {
        for (size_t shard = 0; shard < 8; ++shard) {
            for (size_t attempt = 0; attempt < 3; ++attempt) {
                auto d = a.decide(step, shard, attempt);
                EXPECT_EQ(d, b.decide(step, shard, attempt));
                if (d != c.decide(step, shard, attempt))
                    any_difference = true;
            }
        }
    }
    EXPECT_TRUE(any_difference); // different seed, different faults
}

TEST(FaultInjector, PreemptOnlyOnFirstAttempt)
{
    ex::FaultConfig cfg;
    cfg.preemptProb = 1.0;
    ex::FaultInjector inj(cfg);
    EXPECT_EQ(inj.decide(0, 0, 0), ex::FaultKind::Preempt);
    EXPECT_EQ(inj.decide(0, 0, 1), ex::FaultKind::None);
}

TEST(FaultInjector, RatesRoughlyHonored)
{
    ex::FaultConfig cfg;
    cfg.failProb = 0.25;
    cfg.seed = 7;
    ex::FaultInjector inj(cfg);
    size_t fails = 0;
    const size_t trials = 4000;
    for (size_t i = 0; i < trials; ++i)
        if (inj.decide(i, 0, 0) == ex::FaultKind::Fail)
            ++fails;
    double rate = static_cast<double>(fails) / trials;
    EXPECT_NEAR(rate, 0.25, 0.03);
}

// --------------------------------------------------------- ShardRunner

TEST(ShardRunner, RetriesTransientFailures)
{
    ex::FaultConfig cfg;
    cfg.failProb = 0.5;
    cfg.seed = 11;
    ex::FaultInjector inj(cfg);
    ex::ThreadPool pool(4);
    ex::ShardRunner runner(pool, {8, 5, 0.0}, &inj);
    std::atomic<size_t> executed{0};
    size_t retried = 0, degraded = 0;
    for (size_t step = 0; step < 20; ++step) {
        auto report =
            runner.runStep(step, [&](size_t) { executed.fetch_add(1); });
        for (const auto &r : report.shards) {
            if (r.state == ex::ShardState::Retried)
                ++retried;
            if (r.state == ex::ShardState::Degraded)
                ++degraded;
        }
    }
    EXPECT_GT(retried, 0u);            // some shards needed retries
    EXPECT_GT(inj.stats().failures.load(), 0u);
    // Every shard either executed its body once or was declared lost.
    EXPECT_EQ(executed.load() + degraded, 20u * 8u);
}

TEST(ShardRunner, PreemptedShardsAreDroppedNotRetried)
{
    ex::FaultConfig cfg;
    cfg.preemptProb = 1.0;
    ex::FaultInjector inj(cfg);
    ex::ThreadPool pool(2);
    ex::ShardRunner runner(pool, {4, 3, 0.0}, &inj);
    std::atomic<size_t> executed{0};
    auto report =
        runner.runStep(0, [&](size_t) { executed.fetch_add(1); });
    EXPECT_EQ(executed.load(), 0u);
    EXPECT_TRUE(report.survivors().empty());
    EXPECT_TRUE(report.degraded());
    for (const auto &r : report.shards) {
        EXPECT_EQ(r.state, ex::ShardState::Degraded);
        EXPECT_EQ(r.attempts, 1u);
    }
    EXPECT_EQ(runner.degradedShardSteps(), 4u);
}

TEST(ShardRunner, BodyExceptionsCountAsFailures)
{
    ex::ThreadPool pool(2);
    ex::ShardRunner runner(pool, {4, 3, 0.0});
    auto report = runner.runStep(0, [&](size_t s) {
        if (s == 2)
            throw std::runtime_error("shard blew up");
    });
    auto live = report.survivors();
    std::vector<size_t> expected = {0, 1, 3};
    EXPECT_EQ(live, expected);
    EXPECT_EQ(report.shards[2].state, ex::ShardState::Degraded);
    EXPECT_EQ(report.shards[2].attempts, 3u);
}

TEST(ShardRunner, FaultPatternIndependentOfThreadCount)
{
    auto degraded_pattern = [](size_t threads) {
        ex::FaultConfig cfg;
        cfg.failProb = 0.3;
        cfg.preemptProb = 0.2;
        cfg.seed = 99;
        ex::FaultInjector inj(cfg);
        ex::ThreadPool pool(threads);
        ex::ShardRunner runner(pool, {8, 2, 0.0}, &inj);
        std::vector<bool> pattern;
        for (size_t step = 0; step < 30; ++step) {
            auto report = runner.runStep(step, [](size_t) {});
            for (const auto &r : report.shards)
                pattern.push_back(r.state == ex::ShardState::Degraded);
        }
        return pattern;
    };
    EXPECT_EQ(degraded_pattern(1), degraded_pattern(4));
}

// Uneven lanes: 7 shards on 3 lanes (each lane claims the next shard,
// so lanes run uneven shard counts) under injected fail, preempt and
// straggle faults give the same report and leave every shard's RNG
// stream at the same position as one inline lane.
TEST(ShardRunner, UnevenLanesMatchOneLane)
{
    auto run = [](size_t lanes) {
        ex::FaultConfig cfg;
        cfg.failProb = 0.25;
        cfg.preemptProb = 0.15;
        cfg.stragglerProb = 0.2;
        cfg.stragglerDelayMs = 0.1;
        cfg.seed = 2024;
        ex::FaultInjector inj(cfg);
        ex::ThreadPool pool(lanes);
        ex::ShardRunner runner(pool, {7, 2, 0.0}, &inj);
        Rng parent(5);
        std::vector<Rng> rngs = ex::ThreadPool::splitRngs(parent, 7);
        std::vector<std::pair<ex::ShardState, size_t>> reports;
        for (size_t step = 0; step < 12; ++step) {
            auto report = runner.runStep(
                step, [&](size_t s) { (void)rngs[s].next64(); });
            for (const auto &r : report.shards)
                reports.emplace_back(r.state, r.attempts);
        }
        std::vector<uint64_t> positions;
        for (auto &r : rngs)
            positions.push_back(r.next64());
        EXPECT_GT(inj.stats().failures.load(), 0u);
        EXPECT_GT(inj.stats().preemptions.load(), 0u);
        EXPECT_GT(inj.stats().straggles.load(), 0u);
        return std::make_tuple(reports, positions, runner.inlineSteps(),
                               runner.degradedShardSteps());
    };
    auto [oneReports, onePositions, oneInline, oneDegraded] = run(1);
    auto [threeReports, threePositions, threeInline, threeDegraded] =
        run(3);
    EXPECT_EQ(oneInline, 12u);
    EXPECT_EQ(threeInline, 0u);
    EXPECT_GT(oneDegraded, 0u);
    EXPECT_EQ(threeDegraded, oneDegraded);
    EXPECT_EQ(threeReports, oneReports);
    EXPECT_EQ(threePositions, onePositions);
}

// ---------------------------------------------------------- Checkpoint

TEST(Checkpoint, RoundTripAndAtomicCommit)
{
    std::string path = testing::TempDir() + "/h2o_exec_ckpt_test";
    std::remove(path.c_str());
    EXPECT_FALSE(ex::CheckpointReader::exists(path));

    ex::CheckpointWriter writer;
    h2o::common::writeTaggedU64(writer.stream(), "payload", {1, 2, 3});
    writer.commit(path);
    EXPECT_TRUE(ex::CheckpointReader::exists(path));
    EXPECT_FALSE(ex::CheckpointReader::exists(path + ".tmp"));

    ex::CheckpointReader reader(path);
    auto payload =
        h2o::common::readTaggedU64(reader.stream(), "payload");
    std::vector<uint64_t> expected = {1, 2, 3};
    EXPECT_EQ(payload, expected);
    std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedFileRejectedCleanly)
{
    // A checkpoint chopped mid-payload (e.g. a copy that ran out of
    // disk) must die with a diagnostic, not half-load state.
    std::string path = testing::TempDir() + "/h2o_exec_ckpt_truncated";
    ex::CheckpointWriter writer;
    h2o::common::writeTaggedU64(writer.stream(), "payload",
                                {10, 20, 30, 40});
    writer.commit(path);
    std::ifstream in(path);
    std::string full((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    {
        std::ofstream out(path, std::ios::trunc);
        out << full.substr(0, full.size() / 2);
    }
    EXPECT_EXIT(
        {
            ex::CheckpointReader reader(path);
            h2o::common::readTaggedU64(reader.stream(), "payload");
        },
        testing::ExitedWithCode(1), "truncated");
    std::remove(path.c_str());
}

TEST(Checkpoint, CorruptFileRejectedCleanly)
{
    std::string path = testing::TempDir() + "/h2o_exec_ckpt_corrupt";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "tag not_the_payload 2\n1 2\n";
    }
    EXPECT_EXIT(
        {
            ex::CheckpointReader reader(path);
            h2o::common::readTaggedU64(reader.stream(), "payload");
        },
        testing::ExitedWithCode(1), "expected u64 tag 'payload'");
    std::remove(path.c_str());

    EXPECT_EXIT(ex::CheckpointReader missing(path + "_nonexistent"),
                testing::ExitedWithCode(1), "cannot open checkpoint");
}

TEST(Checkpoint, InterruptedCommitLeavesPreviousCheckpointIntact)
{
    // A kill mid-write leaves a partial `.tmp` behind; the committed
    // file must be untouched, and a later successful commit must
    // replace it atomically.
    std::string path = testing::TempDir() + "/h2o_exec_ckpt_atomic";
    ex::CheckpointWriter v1;
    h2o::common::writeTaggedU64(v1.stream(), "payload", {1, 1, 1});
    v1.commit(path);

    {
        std::ofstream tmp(path + ".tmp", std::ios::trunc);
        tmp << "tag payl"; // torn write of the next checkpoint
    }
    ex::CheckpointReader reader(path);
    std::vector<uint64_t> expected = {1, 1, 1};
    EXPECT_EQ(h2o::common::readTaggedU64(reader.stream(), "payload"),
              expected);

    ex::CheckpointWriter v2;
    h2o::common::writeTaggedU64(v2.stream(), "payload", {2, 2});
    v2.commit(path);
    EXPECT_FALSE(ex::CheckpointReader::exists(path + ".tmp"));
    ex::CheckpointReader reader2(path);
    expected = {2, 2};
    EXPECT_EQ(h2o::common::readTaggedU64(reader2.stream(), "payload"),
              expected);
    std::remove(path.c_str());
}

TEST(Checkpoint, RngSaveLoadResumesStream)
{
    Rng rng(77);
    for (int i = 0; i < 100; ++i)
        rng.next64();
    std::ostringstream os;
    rng.save(os);
    std::vector<uint64_t> expect;
    for (int i = 0; i < 50; ++i)
        expect.push_back(rng.next64());

    Rng restored(1); // different seed; load must fully overwrite
    std::istringstream is(os.str());
    restored.load(is);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(restored.next64(), expect[i]);
}

// ------------------------------------------- search on the exec runtime

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

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
expectIdenticalOutcomes(const sr::SearchOutcome &a,
                        const sr::SearchOutcome &b)
{
    EXPECT_EQ(a.finalSample, b.finalSample);
    EXPECT_TRUE(sameBits(a.finalMeanReward, b.finalMeanReward));
    EXPECT_TRUE(sameBits(a.finalEntropy, b.finalEntropy));
    ASSERT_EQ(a.history.size(), b.history.size());
    for (size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(a.history[i].sample, b.history[i].sample);
        EXPECT_EQ(a.history[i].step, b.history[i].step);
        EXPECT_TRUE(sameBits(a.history[i].quality, b.history[i].quality));
        EXPECT_TRUE(sameBits(a.history[i].reward, b.history[i].reward));
        EXPECT_EQ(a.history[i].performance, b.history[i].performance);
    }
}

sr::SearchOutcome
runH2o(const sr::H2oSearchConfig &cfg, uint64_t seed = 32)
{
    DlrmFixture f;
    rw::ReluReward reward({{"flops", 2.0, -0.5}});
    sr::H2oDlrmSearch search(
        f.space, f.net, *f.pipe,
        [&](const ss::Sample &s) { return cheapPerf(f.space, s); }, reward,
        cfg);
    Rng rng(seed);
    return search.run(rng);
}

} // namespace

TEST(ExecSearch, BitIdenticalAtAnyThreadCount)
{
    sr::H2oSearchConfig cfg;
    cfg.numShards = 4;
    cfg.numSteps = 12;
    cfg.warmupSteps = 3;

    cfg.threads = 1;
    auto serial = runH2o(cfg);
    for (size_t threads : {3u, 4u, 8u}) {
        cfg.threads = threads;
        auto parallel = runH2o(cfg);
        expectIdenticalOutcomes(serial, parallel);
    }
}

TEST(ExecSearch, CheckpointResumeReproducesUninterruptedRun)
{
    std::string path = testing::TempDir() + "/h2o_exec_resume_test";
    std::remove(path.c_str());

    sr::H2oSearchConfig cfg;
    cfg.numShards = 4;
    cfg.numSteps = 10;
    cfg.warmupSteps = 3;
    cfg.threads = 2;

    // Reference: one uninterrupted run.
    auto uninterrupted = runH2o(cfg);

    // "Preempted" run: checkpoint every step and stop after step 6 —
    // the state on disk is exactly a mid-search kill. Then resume with
    // the full budget in FRESH process state (new supernet, pipeline,
    // controller, RNG streams).
    cfg.checkpointPath = path;
    cfg.checkpointEvery = 1;
    cfg.numSteps = 6;
    (void)runH2o(cfg);
    ASSERT_TRUE(ex::CheckpointReader::exists(path));

    cfg.numSteps = 10;
    auto resumed = runH2o(cfg);
    expectIdenticalOutcomes(uninterrupted, resumed);
    std::remove(path.c_str());
}

TEST(ExecSearch, SurvivesHeavyShardLoss)
{
    // >= 25% of shard-steps disrupted: preemptions plus transient
    // failures. The search must keep updating on survivors and produce
    // finite telemetry and outcome — no NaN anywhere.
    ex::FaultConfig fcfg;
    fcfg.failProb = 0.15;
    fcfg.preemptProb = 0.25;
    fcfg.seed = 5;
    ex::FaultInjector inj(fcfg);

    DlrmFixture f;
    rw::ReluReward reward({{"flops", 2.0, -0.5}});
    sr::H2oSearchConfig cfg;
    cfg.numShards = 4;
    cfg.numSteps = 25;
    cfg.warmupSteps = 5;
    cfg.threads = 4;
    cfg.faults = &inj;
    sr::H2oDlrmSearch search(
        f.space, f.net, *f.pipe,
        [&](const ss::Sample &s) { return cheapPerf(f.space, s); }, reward,
        cfg);
    Rng rng(36);
    auto outcome = search.run(rng);

    EXPECT_GT(inj.stats().preemptions.load(), 0u);
    EXPECT_TRUE(f.space.decisions().validSample(outcome.finalSample));
    EXPECT_TRUE(std::isfinite(outcome.finalMeanReward));
    EXPECT_TRUE(std::isfinite(outcome.finalEntropy));
    size_t degraded_steps = 0;
    for (const auto &st : search.stepStats()) {
        EXPECT_LE(st.liveShards, cfg.numShards);
        EXPECT_TRUE(std::isfinite(st.meanReward));
        EXPECT_TRUE(std::isfinite(st.meanQuality));
        EXPECT_TRUE(std::isfinite(st.meanEntropy));
        EXPECT_TRUE(std::isfinite(st.trainLoss));
        if (st.liveShards < cfg.numShards)
            ++degraded_steps;
    }
    EXPECT_GT(degraded_steps, 0u);
    for (const auto &rec : outcome.history) {
        EXPECT_TRUE(std::isfinite(rec.reward));
        EXPECT_TRUE(std::isfinite(rec.quality));
    }
}

// ----------------------------------------------------------- --threads

TEST(ThreadsFlag, EnvironmentDefaultAndOverride)
{
    unsetenv("H2O_THREADS");
    EXPECT_EQ(h2o::common::threadsFlagDefault(), 0);
    setenv("H2O_THREADS", "6", 1);
    EXPECT_EQ(h2o::common::threadsFlagDefault(), 6);
    setenv("H2O_THREADS", "not-a-number", 1);
    EXPECT_EQ(h2o::common::threadsFlagDefault(), 0);
    unsetenv("H2O_THREADS");
}
