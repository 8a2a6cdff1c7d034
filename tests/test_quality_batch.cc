/**
 * @file
 * Tests for the batched quality stage: the supernet's packed
 * multi-candidate eval pass (DlrmSupernet::evaluateBatch) is bitwise
 * equal to sequential configure()+evaluate() calls across batch-chunk
 * sizes and both kernel implementations; the H2O search, whose quality
 * stage runs as one coordinator-side pass over each step's survivors,
 * yields identical outcomes at --threads 1/4/8 with and without injected
 * faults and leases exactly one batch per surviving shard; and the
 * TuNAS pi-step never trains on its validation batches.
 */

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/fault_injector.h"
#include "pipeline/pipeline.h"
#include "reward/reward.h"
#include "search/h2o_dlrm_search.h"
#include "search/tunas_search.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

namespace sr = h2o::search;
namespace ss = h2o::searchspace;
namespace rw = h2o::reward;
namespace pl = h2o::pipeline;
namespace sn = h2o::supernet;
namespace arch = h2o::arch;
namespace nn = h2o::nn;
namespace exec = h2o::exec;
using h2o::common::Rng;

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

void
expectSameOutcome(const sr::SearchOutcome &a, const sr::SearchOutcome &b)
{
    ASSERT_EQ(a.history.size(), b.history.size());
    for (size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(a.history[i].sample, b.history[i].sample) << "rec " << i;
        EXPECT_EQ(a.history[i].quality, b.history[i].quality)
            << "rec " << i;
        EXPECT_EQ(a.history[i].performance, b.history[i].performance)
            << "rec " << i;
        EXPECT_EQ(a.history[i].reward, b.history[i].reward) << "rec " << i;
        EXPECT_EQ(a.history[i].step, b.history[i].step) << "rec " << i;
    }
    EXPECT_EQ(a.finalSample, b.finalSample);
    EXPECT_EQ(a.finalMeanReward, b.finalMeanReward);
    EXPECT_EQ(a.finalEntropy, b.finalEntropy);
}

} // namespace

// ------------------------------------------- supernet evaluateBatch

/** evaluateBatch rows must be bitwise equal to sequential
 *  configure()+evaluate() calls, for duplicated samples and every
 *  chunk size. Parameterized over seeds so the sampled candidates
 *  cover the space (widths, ranks, vocab choices, removed tables,
 *  bottom/top depths). */
class EvaluateBatchProperty : public testing::TestWithParam<int>
{
};

TEST_P(EvaluateBatchProperty, MatchesSequentialBitwise)
{
    DlrmFixture f;
    Rng srng(1000 + GetParam());

    // 6 distinct draws plus 2 duplicates: the dedup path must scatter
    // one shared evaluation to every copy.
    std::vector<ss::Sample> samples;
    for (size_t i = 0; i < 6; ++i)
        samples.push_back(f.space.decisions().uniformSample(srng));
    samples.push_back(samples[0]);
    samples.push_back(samples[2]);

    auto lease = f.pipe->lease();
    const pl::Batch &batch = lease.batch();

    std::vector<sn::EvalResult> seq;
    for (const auto &s : samples) {
        f.net.configure(s);
        seq.push_back(f.net.evaluate(batch));
    }

    for (size_t chunk : {0u, 1u, 2u, 3u}) {
        auto batched = f.net.evaluateBatch(samples, batch, chunk);
        ASSERT_EQ(batched.size(), samples.size());
        for (size_t i = 0; i < samples.size(); ++i) {
            EXPECT_EQ(batched[i].logLoss, seq[i].logLoss)
                << "chunk " << chunk << " sample " << i;
            EXPECT_EQ(batched[i].auc, seq[i].auc)
                << "chunk " << chunk << " sample " << i;
        }
        const auto &stats = f.net.batchStats();
        EXPECT_EQ(stats.candidates, samples.size());
        EXPECT_EQ(stats.distinct, 6u); // duplicates deduplicated
    }
    lease.markAlphaUse();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluateBatchProperty,
                         testing::Range(0, 6));

TEST(EvaluateBatch, SharesEmbeddingLookupsAcrossCandidates)
{
    DlrmFixture f;
    Rng srng(7);
    std::vector<ss::Sample> samples;
    for (size_t i = 0; i < 8; ++i)
        samples.push_back(f.space.decisions().uniformSample(srng));

    auto lease = f.pipe->lease();
    (void)f.net.evaluateBatch(samples, lease.batch());
    const auto &stats = f.net.batchStats();
    // 2 tables x at most numVocabChoices physical tables: the lookup
    // count is bounded by the distinct (table, choice) pairs, never by
    // the candidate count.
    EXPECT_LE(stats.embLookups,
              2 * f.space.numVocabChoices());
    EXPECT_GT(stats.packedPasses, 0u);
    lease.markAlphaUse();
}

TEST(EvaluateBatch, SingleCandidateMatchesEvaluate)
{
    DlrmFixture f;
    Rng srng(11);
    auto sample = f.space.decisions().uniformSample(srng);
    auto lease = f.pipe->lease();

    f.net.configure(sample);
    auto seq = f.net.evaluate(lease.batch());
    auto batched = f.net.evaluateBatch(
        std::span<const ss::Sample>(&sample, 1), lease.batch());
    ASSERT_EQ(batched.size(), 1u);
    EXPECT_EQ(batched[0].logLoss, seq.logLoss);
    EXPECT_EQ(batched[0].auc, seq.auc);
    lease.markAlphaUse();
}

/** evaluateBatch must not perturb training: gradients accumulated after
 *  a batched eval equal gradients accumulated without one. */
TEST(EvaluateBatch, LeavesTrainingStateUntouched)
{
    DlrmFixture a, b; // identical seeds -> identical weights
    Rng srng(13);
    auto train_sample = a.space.decisions().uniformSample(srng);
    std::vector<ss::Sample> eval_samples;
    for (size_t i = 0; i < 4; ++i)
        eval_samples.push_back(a.space.decisions().uniformSample(srng));

    auto lease_a = a.pipe->lease();
    auto lease_b = b.pipe->lease();

    // Fixture a: batched eval, then a training step.
    (void)a.net.evaluateBatch(eval_samples, lease_a.batch());
    a.net.configure(train_sample);
    double loss_a = a.net.trainStep(lease_a.batch(), 0.05);

    // Fixture b: the training step alone.
    b.net.configure(train_sample);
    double loss_b = b.net.trainStep(lease_b.batch(), 0.05);

    EXPECT_EQ(loss_a, loss_b);

    // Post-step evaluations agree bitwise -> updated weights identical.
    a.net.configure(train_sample);
    b.net.configure(train_sample);
    auto ra = a.net.evaluate(lease_a.batch());
    auto rb = b.net.evaluate(lease_b.batch());
    EXPECT_EQ(ra.logLoss, rb.logLoss);
    EXPECT_EQ(ra.auc, rb.auc);

    lease_a.markAlphaUse();
    lease_b.markAlphaUse();
}

// ------------------------------------------- H2O search invariants

namespace {

constexpr size_t kH2oShards = 4;
constexpr size_t kH2oSteps = 10;
constexpr size_t kH2oWarmup = 3;
constexpr size_t kMaxAttempts = 3;

/** Everything observable about one H2O search run. */
struct H2oRun
{
    sr::SearchOutcome outcome;
    std::vector<sr::H2oStepStats> stats;
    pl::PipelineStats pipeline;
    uint64_t preemptions = 0;
};

H2oRun
runH2o(size_t threads, const exec::FaultConfig &fc)
{
    DlrmFixture f;
    exec::FaultInjector faults(fc);
    rw::ReluReward reward({{"step_time", 1e9, -0.5}});
    sr::H2oSearchConfig cfg;
    cfg.numShards = kH2oShards;
    cfg.numSteps = kH2oSteps;
    cfg.warmupSteps = kH2oWarmup;
    cfg.threads = threads;
    cfg.faults = &faults;
    cfg.maxShardAttempts = kMaxAttempts;
    sr::H2oDlrmSearch search(
        f.space, f.net, *f.pipe,
        [&](const ss::Sample &s) { return cheapPerf(f.space, s); }, reward,
        cfg);
    Rng rng(33);
    H2oRun run;
    run.outcome = search.run(rng);
    run.stats = search.stepStats();
    run.pipeline = f.pipe->stats();
    run.preemptions = faults.stats().preemptions.load();
    return run;
}

/** Whether a shard survives a runner step, replayed from the fault
 *  oracle alone: lost when preempted on attempt 0 or failed on every
 *  attempt (the bodies here never throw). */
bool
oracleSurvives(const exec::FaultInjector &faults, size_t step,
               size_t shard)
{
    for (size_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
        exec::FaultKind kind = faults.decide(step, shard, attempt);
        if (kind == exec::FaultKind::Preempt)
            return false;
        if (kind != exec::FaultKind::Fail)
            return true;
    }
    return false;
}

/** Surviving shards of runner steps [begin, end), per the oracle. */
uint64_t
oracleSurvivors(const exec::FaultConfig &fc, size_t begin, size_t end)
{
    exec::FaultInjector faults(fc);
    uint64_t live = 0;
    for (size_t step = begin; step < end; ++step)
        for (size_t s = 0; s < kH2oShards; ++s)
            live += oracleSurvives(faults, step, s);
    return live;
}

/** Outcome and step telemetry identical at every pinned thread count;
 *  the reference is the one-thread (inline) run. */
void
expectSameAcrossThreads(const exec::FaultConfig &fc, const H2oRun &ref)
{
    for (size_t threads : {4u, 8u}) {
        SCOPED_TRACE(testing::Message() << "threads " << threads);
        H2oRun run = runH2o(threads, fc);
        expectSameOutcome(run.outcome, ref.outcome);
        ASSERT_EQ(run.stats.size(), ref.stats.size());
        for (size_t i = 0; i < run.stats.size(); ++i) {
            EXPECT_EQ(run.stats[i].meanReward, ref.stats[i].meanReward);
            EXPECT_EQ(run.stats[i].meanQuality, ref.stats[i].meanQuality);
            EXPECT_EQ(run.stats[i].trainLoss, ref.stats[i].trainLoss);
            EXPECT_EQ(run.stats[i].liveShards, ref.stats[i].liveShards);
        }
        EXPECT_EQ(run.pipeline.batchesIssued, ref.pipeline.batchesIssued);
    }
}

/** Every lease trains exactly one surviving shard's candidate: warm-up
 *  survivors (from the oracle) plus the search steps' liveShards. */
void
expectOneLeasePerSurvivor(const exec::FaultConfig &fc, const H2oRun &run)
{
    const uint64_t warmup_live = oracleSurvivors(fc, 0, kH2oWarmup);
    uint64_t search_live = 0;
    ASSERT_EQ(run.stats.size(), kH2oSteps);
    for (size_t i = 0; i < kH2oSteps; ++i) {
        EXPECT_EQ(run.stats[i].liveShards,
                  oracleSurvivors(fc, kH2oWarmup + i, kH2oWarmup + i + 1))
            << "step " << i;
        search_live += run.stats[i].liveShards;
    }
    EXPECT_EQ(run.pipeline.batchesIssued, warmup_live + search_live);
    EXPECT_EQ(run.pipeline.completeLeases, run.pipeline.batchesIssued);
    EXPECT_EQ(run.pipeline.alphaOnlyLeases, 0u);
}

} // namespace

TEST(QualityBatchSearch, H2oIdenticalAcrossThreads)
{
    exec::FaultConfig no_faults;
    H2oRun ref = runH2o(1, no_faults);
    EXPECT_EQ(ref.pipeline.batchesIssued,
              (kH2oWarmup + kH2oSteps) * kH2oShards);
    expectOneLeasePerSurvivor(no_faults, ref);
    expectSameAcrossThreads(no_faults, ref);
}

/** With preemptions and failures striking, a degraded shard neither
 *  draws its sample (RNG stream untouched) nor leases a batch, so the
 *  full histories stay bit-identical at any thread count. */
TEST(QualityBatchSearch, H2oIdenticalAcrossThreadsUnderFaults)
{
    exec::FaultConfig fc;
    fc.preemptProb = 0.15;
    fc.failProb = 0.05;
    fc.seed = 404;

    H2oRun ref = runH2o(1, fc);
    ASSERT_GT(ref.preemptions, 0u) << "fault probe never struck";
    ASSERT_LT(ref.pipeline.batchesIssued,
              (kH2oWarmup + kH2oSteps) * kH2oShards);
    expectOneLeasePerSurvivor(fc, ref);
    expectSameAcrossThreads(fc, ref);
}

// ------------------------------------------- TuNAS validation stream

/** The pi-step evaluates on its own batch and never trains on it: one
 *  alpha-only lease per iteration, and every other lease (warm-up and
 *  W-steps) trains. */
TEST(QualityBatchSearch, TunasPiStepLeasesAreAlphaOnly)
{
    DlrmFixture f;
    rw::AbsoluteReward reward({{"step_time", 2.0, -0.5}});
    sr::TunasSearchConfig cfg;
    cfg.numIterations = 12;
    cfg.warmupSteps = 4;
    sr::TunasSearch search(
        f.space, f.net, *f.pipe,
        [&](const ss::Sample &s) { return cheapPerf(f.space, s); }, reward,
        cfg);
    Rng rng(34);
    auto outcome = search.run(rng);
    EXPECT_EQ(outcome.history.size(), cfg.numIterations);
    pl::PipelineStats stats = f.pipe->stats();
    EXPECT_EQ(stats.alphaOnlyLeases, cfg.numIterations);
    EXPECT_EQ(stats.completeLeases, cfg.warmupSteps + cfg.numIterations);
    EXPECT_EQ(stats.batchesIssued,
              cfg.warmupSteps + 2 * cfg.numIterations);
}
