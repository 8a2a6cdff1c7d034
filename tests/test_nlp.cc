/**
 * @file
 * Unit tests for the transformer-only NLP path (Appendix A): the LM
 * architecture lowering and the isolated transformer search space.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/nlp_arch.h"
#include "baselines/quality_model.h"
#include "common/rng.h"
#include "reward/reward.h"
#include "search/surrogate_search.h"
#include "searchspace/nlp_space.h"
#include "sim/simulator.h"

namespace arch = h2o::arch;
namespace ss = h2o::searchspace;
namespace sim = h2o::sim;
namespace hw = h2o::hw;
using h2o::common::Rng;

namespace {

arch::NlpArch
tinyLm()
{
    arch::NlpArch a;
    a.name = "tiny-lm";
    a.vocab = 1000;
    a.seqLen = 64;
    a.perChipBatch = 4;
    arch::TfmBlockConfig blk;
    blk.hidden = 128;
    blk.layers = 2;
    blk.heads = 2;
    a.blocks = {blk};
    return a;
}

} // namespace

TEST(NlpArch, LoweringStructure)
{
    arch::NlpArch a = tinyLm();
    hw::Platform p{hw::tpuV4(), 1};
    sim::Graph g = arch::buildNlpGraph(a, p, arch::ExecMode::Serving);
    g.validate();
    size_t attn = 0;
    bool has_embed = false, has_head = false;
    for (const auto &op : g.ops()) {
        if (op.kind == sim::OpKind::Attention)
            ++attn;
        if (op.name == "token_embedding")
            has_embed = true;
        if (op.name == "lm_head")
            has_head = true;
    }
    EXPECT_EQ(attn, 2u);
    EXPECT_TRUE(has_embed);
    EXPECT_TRUE(has_head);
}

TEST(NlpArch, WeightTyingDropsHeadParams)
{
    arch::NlpArch tied = tinyLm();
    arch::NlpArch untied = tinyLm();
    untied.tieEmbeddings = false;
    // Tied LM head reuses the embedding matrix: vocab * hidden fewer
    // params.
    double expected_delta = double(tinyLm().vocab) * 128.0;
    EXPECT_NEAR(untied.paramCount() - tied.paramCount(), expected_delta,
                1.0);
}

TEST(NlpArch, FlopsScaleWithSequenceLength)
{
    arch::NlpArch short_seq = tinyLm();
    arch::NlpArch long_seq = tinyLm();
    long_seq.seqLen = 256; // 4x
    double ratio =
        long_seq.flopsPerSequence() / short_seq.flopsPerSequence();
    // Superlinear (attention is quadratic in seq) but below fully
    // quadratic (FFN and head are linear).
    EXPECT_GT(ratio, 4.0);
    EXPECT_LT(ratio, 16.0);
}

TEST(NlpArch, TrainingRoughlyTriplesFlops)
{
    arch::NlpArch a = tinyLm();
    hw::Platform p{hw::tpuV4(), 4};
    double serve = arch::buildNlpGraph(a, p, arch::ExecMode::Serving)
                       .totalFlops();
    double train = arch::buildNlpGraph(a, p, arch::ExecMode::Training)
                       .totalFlops();
    EXPECT_NEAR(train / serve, 3.0, 0.3);
}

TEST(NlpArch, ReferenceLmScale)
{
    arch::NlpArch lm = arch::referenceLm();
    // ~24 layers x 12 * 1024^2 + embeddings ~ 300-400M params.
    EXPECT_GT(lm.paramCount() / 1e6, 150.0);
    EXPECT_LT(lm.paramCount() / 1e6, 800.0);
}

TEST(NlpSpace, PerBlockCardinalityMatchesTable5)
{
    ss::NlpSearchSpace space(arch::referenceLm());
    // 17920 per block, two blocks (Appendix A: (17920)^2 ~ O(10^8)).
    EXPECT_NEAR(space.log10Size(), 2.0 * std::log10(17920.0), 1e-9);
}

TEST(NlpSpace, BaselineRoundTrip)
{
    arch::NlpArch base = arch::referenceLm();
    ss::NlpSearchSpace space(base);
    auto decoded = space.decode(space.baselineSample());
    ASSERT_EQ(decoded.blocks.size(), base.blocks.size());
    for (size_t b = 0; b < base.blocks.size(); ++b) {
        EXPECT_EQ(decoded.blocks[b].hidden, base.blocks[b].hidden);
        EXPECT_EQ(decoded.blocks[b].layers, base.blocks[b].layers);
        EXPECT_EQ(decoded.blocks[b].act, base.blocks[b].act);
    }
}

TEST(NlpSpace, RandomDecodesSimulateEndToEnd)
{
    ss::NlpSearchSpace space(tinyLm());
    Rng rng(3);
    hw::Platform p{hw::tpuV4(), 4};
    sim::Simulator simulator({p.chip, true, true, {}});
    for (int i = 0; i < 30; ++i) {
        auto a = space.decode(space.decisions().uniformSample(rng));
        auto res = simulator.run(
            arch::buildNlpGraph(a, p, arch::ExecMode::Training));
        EXPECT_TRUE(std::isfinite(res.stepTimeSec));
        EXPECT_GT(res.stepTimeSec, 0.0);
    }
}

TEST(NlpSpace, SearchFindsFasterLmAtBudget)
{
    // The Appendix-A claim in action: the isolated transformer space
    // plus the standard surrogate searcher produce a faster LM within
    // a training-step budget.
    arch::NlpArch base = tinyLm();
    ss::NlpSearchSpace space(base);
    hw::Platform p{hw::tpuV4(), 8};
    sim::Simulator simulator({p.chip, true, true, {}});
    double base_time =
        simulator.run(arch::buildNlpGraph(base, p,
                                          arch::ExecMode::Training))
            .stepTimeSec;

    // Quality surrogate: capacity with diminishing returns (enough for
    // a functional test of the search plumbing).
    auto quality = [&](const ss::Sample &s) {
        auto a = space.decode(s);
        return 3.0 * std::log10(std::max(a.paramCount(), 1.0));
    };
    auto perf = [&](const ss::Sample &s) {
        return std::vector<double>{
            simulator
                .run(arch::buildNlpGraph(space.decode(s), p,
                                         arch::ExecMode::Training))
                .stepTimeSec};
    };
    h2o::reward::ReluReward rwd({{"step", 0.8 * base_time, -20.0}});
    h2o::search::SurrogateSearchConfig cfg;
    cfg.numSteps = 80;
    cfg.samplesPerStep = 6;
    cfg.threads = 1;
    cfg.rl.learningRate = 0.1;
    h2o::search::SurrogateSearch search(space.decisions(), quality, perf,
                                        rwd, cfg);
    Rng rng(5);
    auto outcome = search.run(rng);

    const h2o::search::CandidateRecord *best = nullptr;
    for (const auto &c : outcome.history)
        if (!best || c.reward > best->reward)
            best = &c;
    EXPECT_LT(best->performance[0], base_time);
}
