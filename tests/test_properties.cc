/**
 * @file
 * Cross-module property tests (parameterized sweeps): invariants that
 * must hold across the whole input space, not just hand-picked cases —
 * mask-equivalence of the weight-sharing layers, simulator
 * monotonicity, pass-safety (fusion / memory placement never slow a
 * graph down), reward-function algebra, and end-to-end decode totality.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <tuple>

#include "arch/conv_arch.h"
#include "arch/dlrm_arch.h"
#include "arch/vit_arch.h"
#include "baselines/coatnet.h"
#include "baselines/efficientnet.h"
#include "common/rng.h"
#include "nn/dense.h"
#include "nn/ops.h"
#include "reward/reward.h"
#include "exec/thread_pool.h"
#include "searchspace/conv_space.h"
#include "searchspace/dlrm_space.h"
#include "searchspace/vit_space.h"
#include "sim/sim_cache.h"
#include "sim/simulator.h"

namespace nn = h2o::nn;
namespace sim = h2o::sim;
namespace hw = h2o::hw;
namespace arch = h2o::arch;
namespace ss = h2o::searchspace;
namespace rw = h2o::reward;
using h2o::common::Rng;

// ------------------------------------------- masked-layer equivalence

/**
 * Property: the masked kernels over the upper-left (in, out) block of a
 * larger weight matrix compute exactly what a plain DenseLayer built
 * from that submatrix computes — the foundational correctness claim of
 * fine-grained weight sharing (Figure 3 (3)), and the supernet's
 * forward for one MLP slot.
 */
class MaskEquivalenceTest
    : public testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(MaskEquivalenceTest, MaskedEqualsSubmatrixDense)
{
    auto [max_in, max_out, in, out] = GetParam();
    Rng rng(uint64_t(max_in) * 131 + max_out);
    nn::Tensor w(max_in, max_out), b(std::vector<size_t>{size_t(max_out)});
    w.heInit(rng, max_in);
    b.gaussianInit(rng, 0.1f);

    // The reference dense layer over copies of the active submatrix.
    nn::Tensor dw(in, out), db(std::vector<size_t>{size_t(out)});
    for (int r = 0; r < in; ++r)
        for (int c = 0; c < out; ++c)
            dw.at(r, c) = w.at(r, c);
    for (int c = 0; c < out; ++c)
        db[c] = b[c];
    nn::DenseLayer dense(std::move(dw), std::move(db), nn::Activation::Tanh);

    // The input is as wide as the bank; columns past `in` are masked.
    nn::Tensor input(3, static_cast<size_t>(max_in));
    input.gaussianInit(rng, 1.0f);
    nn::Tensor narrow(3, static_cast<size_t>(in));
    for (size_t i = 0; i < 3; ++i)
        for (int c = 0; c < in; ++c)
            narrow.at(i, c) = input.at(i, c);

    nn::Tensor masked(3, static_cast<size_t>(out));
    nn::matmulMasked(input, w, masked, in, out);
    nn::addBias(masked, b, out);
    nn::activateTensor(nn::Activation::Tanh, masked, masked);
    const nn::Tensor &ref = dense.forward(narrow);
    ASSERT_EQ(masked.cols(), ref.cols());
    for (size_t i = 0; i < masked.size(); ++i)
        EXPECT_NEAR(masked[i], ref[i], 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    DimGrid, MaskEquivalenceTest,
    testing::Values(std::make_tuple(8, 8, 8, 8),
                    std::make_tuple(8, 8, 4, 4),
                    std::make_tuple(16, 8, 5, 3),
                    std::make_tuple(32, 32, 1, 1),
                    std::make_tuple(32, 16, 32, 7),
                    std::make_tuple(64, 64, 48, 16)));

// --------------------------------------------- simulator monotonicity

/** Property: more batch means no less step time, on every chip. */
class BatchMonotonicityTest
    : public testing::TestWithParam<hw::ChipModel>
{
};

TEST_P(BatchMonotonicityTest, StepTimeNonDecreasingInBatch)
{
    hw::ChipSpec chip = hw::chipSpec(GetParam());
    sim::Simulator simulator({chip, true, true, {}});
    double prev = 0.0;
    for (uint32_t batch : {1u, 4u, 16u, 64u, 256u}) {
        arch::ConvArch a = h2o::baselines::efficientnetX(0);
        a.perChipBatch = batch;
        hw::Platform p{chip, 1};
        double t = simulator
                       .run(arch::buildConvGraph(a, p,
                                                 arch::ExecMode::Serving))
                       .stepTimeSec;
        EXPECT_GE(t, prev * 0.999) << chip.name << " batch " << batch;
        prev = t;
    }
}

INSTANTIATE_TEST_SUITE_P(Chips, BatchMonotonicityTest,
                         testing::Values(hw::ChipModel::TpuV4,
                                         hw::ChipModel::TpuV4i,
                                         hw::ChipModel::GpuV100));

TEST(SimulatorProperties, StepTimeNonDecreasingInResolution)
{
    sim::Simulator simulator({hw::tpuV4i(), true, true, {}});
    hw::Platform p{hw::tpuV4i(), 1};
    double prev = 0.0;
    for (uint32_t res : {96u, 128u, 192u, 224u, 320u}) {
        arch::ConvArch a = h2o::baselines::efficientnetX(0);
        a.resolution = res;
        double t = simulator
                       .run(arch::buildConvGraph(a, p,
                                                 arch::ExecMode::Serving))
                       .stepTimeSec;
        EXPECT_GE(t, prev);
        prev = t;
    }
}

/** Property: the compiler passes are pure optimizations — they never
 *  make a graph slower. Swept over real model graphs. */
class PassSafetyTest : public testing::TestWithParam<int>
{
};

TEST_P(PassSafetyTest, FusionAndPlacementNeverSlowDown)
{
    int member = GetParam();
    hw::Platform p{hw::tpuV4i(), 1};
    sim::Graph g = arch::buildConvGraph(h2o::baselines::efficientnetX(member),
                                        p, arch::ExecMode::Serving);

    auto run = [&](bool fusion, bool memory) {
        sim::SimConfig cfg{hw::tpuV4i(), fusion, memory, {}};
        return sim::Simulator(cfg).run(g).stepTimeSec;
    };
    double plain = run(false, false);
    double fused = run(true, false);
    double placed = run(false, true);
    double both = run(true, true);
    EXPECT_LE(fused, plain * 1.0001);
    EXPECT_LE(placed, plain * 1.0001);
    EXPECT_LE(both, std::min(fused, placed) * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(Members, PassSafetyTest, testing::Range(0, 8));

TEST(SimulatorProperties, EnergyConsistency)
{
    // energy == power x time for every family member.
    hw::Platform p{hw::tpuV4(), 1};
    sim::Simulator simulator({hw::tpuV4(), true, true, {}});
    for (int i = 0; i <= 5; ++i) {
        auto res = simulator.run(arch::buildVitGraph(
            h2o::baselines::coatnet(i), p, arch::ExecMode::Serving));
        EXPECT_NEAR(res.energyPerStepJ, res.avgPowerW * res.stepTimeSec,
                    1e-12);
        EXPECT_GE(res.avgPowerW, hw::tpuV4().idlePowerW);
    }
}

// ----------------------------------------------------- reward algebra

/** Property sweep: ReLU reward is monotone non-increasing in every
 *  objective value, and never rewards a constraint violation. */
class RewardMonotoneTest : public testing::TestWithParam<int>
{
};

TEST_P(RewardMonotoneTest, MonotoneAndViolationPenalized)
{
    Rng rng(GetParam());
    double target = rng.uniform(0.5, 5.0);
    double beta = -rng.uniform(0.5, 8.0);
    rw::ReluReward reward({{"t", target, beta}});
    double quality = rng.uniform(-1.0, 1.0);

    double prev = 1e300;
    for (double v = 0.2 * target; v <= 3.0 * target; v += 0.1 * target) {
        double r = reward.compute({quality, {v}});
        EXPECT_LE(r, prev + 1e-12);
        prev = r;
        if (v <= target)
            EXPECT_DOUBLE_EQ(r, quality); // feasible: no penalty at all
        else
            EXPECT_LT(r, quality); // violation always costs
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewardMonotoneTest, testing::Range(0, 10));

TEST(RewardProperties, ReluUpperBoundsAbsoluteEverywhere)
{
    // For identical objectives, R_relu >= R_abs pointwise: the absolute
    // reward only ADDS penalties (the under-target side).
    Rng rng(3);
    for (int trial = 0; trial < 200; ++trial) {
        double target = rng.uniform(0.5, 5.0);
        double beta = -rng.uniform(0.5, 4.0);
        rw::ReluReward relu({{"t", target, beta}});
        rw::AbsoluteReward abs({{"t", target, beta}});
        rw::CandidateMetrics m{rng.uniform(-1, 1),
                               {rng.uniform(0.1, 10.0)}};
        EXPECT_GE(relu.compute(m), abs.compute(m) - 1e-12);
    }
}

// ---------------------------------------------- decode totality sweeps

/** Property: EVERY uniform sample of every space decodes to an
 *  architecture that lowers to a valid graph and simulates to a finite,
 *  positive step time. This is the contract the search relies on: no
 *  sampled candidate may crash the reward pipeline. */
class DecodeTotalityTest : public testing::TestWithParam<int>
{
};

TEST_P(DecodeTotalityTest, DlrmPipelineTotal)
{
    arch::DlrmArch base;
    base.numDenseFeatures = 6;
    base.tables = {{5000, 16, 1.0}, {500, 8, 2.0}};
    base.bottomMlp = {{32, 0}};
    base.topMlp = {{64, 0}, {32, 0}};
    base.globalBatch = 512;
    ss::DlrmSearchSpace space(base);
    Rng rng(GetParam());
    hw::Platform p{hw::tpuV4(), 4};
    sim::Simulator simulator({p.chip, true, true, {}});
    for (int i = 0; i < 20; ++i) {
        auto a = space.decode(space.decisions().uniformSample(rng));
        auto res = simulator.run(
            arch::buildDlrmGraph(a, p, arch::ExecMode::Training));
        EXPECT_TRUE(std::isfinite(res.stepTimeSec));
        EXPECT_GT(res.stepTimeSec, 0.0);
        EXPECT_TRUE(std::isfinite(res.avgPowerW));
    }
}

TEST_P(DecodeTotalityTest, ConvPipelineTotal)
{
    ss::ConvSearchSpace space(h2o::baselines::efficientnetX(0));
    Rng rng(GetParam() + 100);
    hw::Platform p{hw::tpuV4i(), 1};
    sim::Simulator simulator({p.chip, true, true, {}});
    for (int i = 0; i < 5; ++i) {
        auto a = space.decode(space.decisions().uniformSample(rng));
        a.perChipBatch = 8; // keep the sweep fast
        auto res = simulator.run(
            arch::buildConvGraph(a, p, arch::ExecMode::Serving));
        EXPECT_TRUE(std::isfinite(res.stepTimeSec));
        EXPECT_GT(res.totalFlops, 0.0);
    }
}

TEST_P(DecodeTotalityTest, VitPipelineTotal)
{
    ss::VitSearchSpace space(h2o::baselines::coatnet(0));
    Rng rng(GetParam() + 200);
    hw::Platform p{hw::tpuV4(), 8};
    sim::Simulator simulator({p.chip, true, true, {}});
    for (int i = 0; i < 3; ++i) {
        auto a = space.decode(space.decisions().uniformSample(rng));
        a.perChipBatch = 8;
        auto res = simulator.run(
            arch::buildVitGraph(a, p, arch::ExecMode::Training));
        EXPECT_TRUE(std::isfinite(res.stepTimeSec));
        EXPECT_GT(res.stepTimeSec, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeTotalityTest, testing::Range(0, 8));

// ----------------------------------------------- analytic consistency

TEST(ConsistencyProperties, DlrmAnalyticMatchesGraphFlops)
{
    // The analytic flopsPerExample and the lowered graph's forward
    // FLOPs must agree (within the elementwise ops the analytic count
    // skips) — guarding against the two paths drifting apart.
    arch::DlrmArch a;
    a.numDenseFeatures = 8;
    a.tables = {{2048, 16, 1.0}, {512, 8, 1.0}};
    a.bottomMlp = {{64, 0}};
    a.topMlp = {{128, 16}, {64, 0}};
    a.globalBatch = 1024;
    hw::Platform p{hw::tpuV4(), 1};
    sim::Graph g = arch::buildDlrmGraph(a, p, arch::ExecMode::Serving);

    double matmul_flops = 0.0;
    for (const auto &op : g.ops())
        if (op.kind == sim::OpKind::Matmul ||
            op.kind == sim::OpKind::EmbeddingLookup)
            matmul_flops += op.flops;
    double analytic = a.flopsPerExample() * a.globalBatch;
    EXPECT_NEAR(matmul_flops / analytic, 1.0, 0.05);
}

TEST(ConsistencyProperties, PaddedFlopsUpperBoundsRawFlops)
{
    Rng rng(7);
    arch::DlrmArch base;
    base.numDenseFeatures = 8;
    base.tables = {{2048, 16, 1.0}};
    base.bottomMlp = {{48, 0}};
    base.topMlp = {{96, 0}};
    base.globalBatch = 512;
    ss::DlrmSearchSpace space(base);
    for (int i = 0; i < 50; ++i) {
        auto a = space.decode(space.decisions().uniformSample(rng));
        double dense_only = a.flopsPerExample() - a.lookupTrafficPerExample();
        EXPECT_GE(a.paddedFlopsPerExample(128) * 1.0001, dense_only);
        // Padding to a 1-wide tile changes nothing.
        EXPECT_NEAR(a.paddedFlopsPerExample(1), dense_only,
                    0.01 * dense_only + 256.0);
    }
}

// ------------------------------------------- sim-cache batch algebra

namespace ex = h2o::exec;

/**
 * Property: for ANY mix of duplicate keys, cache pre-state (interleaved
 * hits) and fill-pool size, SimCache::getOrComputeBatch returns per
 * position exactly what an uncached Simulator::run of that position's
 * graph returns, and its counters add up — hits + misses == lookups,
 * entries <= capacity. Parameterized over (seed, fill-pool workers).
 */
class SimCacheBatchPropertyTest
    : public testing::TestWithParam<std::tuple<uint64_t, size_t>>
{
};

TEST_P(SimCacheBatchPropertyTest, BatchEqualsUncachedRunAndStatsAddUp)
{
    auto [seed, pool_workers] = GetParam();
    arch::DlrmArch base;
    base.numDenseFeatures = 8;
    base.tables = {{2048, 16, 1.0}, {4096, 24, 1.0}};
    base.bottomMlp = {{48, 0}};
    base.topMlp = {{96, 0}};
    base.globalBatch = 256;
    ss::DlrmSearchSpace space(base);
    hw::Platform platform = hw::trainingPlatform();
    sim::SimConfig config{platform.chip, true, true, {}};
    sim::Simulator uncached(config);

    Rng rng(seed);
    // A pool of candidate samples; batches draw from it with
    // replacement, so duplicates occur both within and across batches
    // (cross-batch repeats become genuine interleaved hits).
    std::vector<ss::Sample> candidates;
    for (size_t i = 0; i < 10; ++i)
        candidates.push_back(space.decisions().uniformSample(rng));

    const size_t capacity = 8; // smaller than the pool: evictions occur
    sim::SimCache cache(capacity, 2);
    std::unique_ptr<ex::ThreadPool> pool;
    if (pool_workers > 1)
        pool = std::make_unique<ex::ThreadPool>(pool_workers);

    uint64_t lookups = 0;
    for (size_t batch = 0; batch < 4; ++batch) {
        size_t n = 6 + static_cast<size_t>(rng.uniformInt(0, 6));
        std::vector<const ss::Sample *> picked;
        std::vector<sim::SimCacheKey> keys;
        for (size_t i = 0; i < n; ++i) {
            picked.push_back(&candidates[static_cast<size_t>(
                rng.uniformInt(0, 9))]);
            keys.push_back(sim::makeSimCacheKey(*picked.back(), 0,
                                                config));
            // The hash a key carries is its fields' hash.
            EXPECT_EQ(keys.back().hash(), sim::simCacheKeyHash(keys.back()));
        }
        lookups += n;
        auto results = cache.getOrComputeBatch(
            keys,
            [&](const std::vector<size_t> &misses) {
                sim::Simulator simulator(config);
                std::vector<sim::Graph> graphs;
                graphs.reserve(misses.size());
                for (size_t k : misses)
                    graphs.push_back(arch::buildDlrmGraph(
                        space.decode(*picked[k]), platform,
                        arch::ExecMode::Training));
                std::vector<const sim::Graph *> ptrs;
                for (const auto &g : graphs)
                    ptrs.push_back(&g);
                return simulator.runBatch(ptrs);
            },
            pool.get(), /*chunk=*/3);

        ASSERT_EQ(results.size(), n);
        for (size_t i = 0; i < n; ++i) {
            sim::SimResult ref = uncached.run(arch::buildDlrmGraph(
                space.decode(*picked[i]), platform,
                arch::ExecMode::Training));
            // Exact: cached, deduped and pooled fills must all be the
            // pure function of the candidate.
            EXPECT_EQ(results[i].stepTimeSec, ref.stepTimeSec)
                << "batch " << batch << " position " << i;
            EXPECT_EQ(results[i].totalFlops, ref.totalFlops);
            EXPECT_EQ(results[i].energyPerStepJ, ref.energyPerStepJ);
            EXPECT_EQ(results[i].criticalPathSec, ref.criticalPathSec);
        }
        sim::SimCacheStats stats = cache.stats();
        EXPECT_EQ(stats.hits + stats.misses, lookups);
        EXPECT_LE(stats.entries, cache.capacity());
    }

    // Keys rebuilt by load() and mergeFrom() carry the same hashes as
    // fresh keys: they land in the same stripes, a re-save is
    // byte-identical, and fresh keys hit exactly the same entries.
    std::ostringstream image;
    cache.save(image);
    sim::SimCache loaded(capacity, 2);
    std::istringstream load_in(image.str());
    loaded.load(load_in);
    sim::SimCache merged(capacity, 2);
    std::istringstream merge_in(image.str());
    merged.mergeFrom(merge_in);
    for (const sim::SimCache *copy : {&loaded, &merged}) {
        std::ostringstream again;
        copy->save(again);
        EXPECT_EQ(again.str(), image.str());
    }
    for (const ss::Sample &c : candidates) {
        sim::SimCacheKey fresh = sim::makeSimCacheKey(c, 0, config);
        sim::SimResult a, b, m;
        bool in_cache = cache.lookup(fresh, a);
        EXPECT_EQ(loaded.lookup(fresh, b), in_cache);
        EXPECT_EQ(merged.lookup(fresh, m), in_cache);
        if (in_cache) {
            EXPECT_EQ(b.stepTimeSec, a.stepTimeSec);
            EXPECT_EQ(m.stepTimeSec, a.stepTimeSec);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimCacheBatchPropertyTest,
    testing::Combine(testing::Values(uint64_t(3), uint64_t(17),
                                     uint64_t(29)),
                     testing::Values(size_t(1), size_t(4))));
