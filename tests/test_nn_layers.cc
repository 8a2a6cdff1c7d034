/**
 * @file
 * Unit tests for the trainable layers: analytic gradients checked
 * against finite differences (the property that makes the whole
 * super-network trustworthy), masking invariants, embedding lookups,
 * losses, optimizers, and end-to-end MLP convergence.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/parallel.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "nn/dense.h"
#include "nn/embedding.h"
#include "nn/loss.h"
#include "nn/low_rank_dense.h"
#include "nn/mlp.h"
#include "nn/normalizer.h"
#include "nn/ops.h"
#include "nn/optimizer.h"

namespace nn = h2o::nn;
using h2o::common::Rng;

namespace {

/** Scalar loss = 0.5 * sum(out^2); dL/dout = out. */
double
halfSquare(const nn::Tensor &out)
{
    double acc = 0.0;
    for (float v : out.data())
        acc += 0.5 * double(v) * double(v);
    return acc;
}

/**
 * Finite-difference check of every parameter gradient of a layer under
 * the half-square loss.
 */
void
checkParamGradients(nn::Layer &layer, const nn::Tensor &input,
                    double tol = 2e-2)
{
    layer.zeroGrad();
    const nn::Tensor &out = layer.forward(input);
    nn::Tensor dout = out; // dL/dout = out
    layer.backward(dout);

    for (auto &p : layer.params()) {
        // Check a subset of entries for speed.
        size_t stride = std::max<size_t>(1, p.value->size() / 16);
        for (size_t i = 0; i < p.value->size(); i += stride) {
            float orig = (*p.value)[i];
            const float eps = 1e-2f;
            (*p.value)[i] = orig + eps;
            double lp = halfSquare(layer.forward(input));
            (*p.value)[i] = orig - eps;
            double lm = halfSquare(layer.forward(input));
            (*p.value)[i] = orig;
            double numeric = (lp - lm) / (2.0 * eps);
            double analytic = (*p.grad)[i];
            EXPECT_NEAR(analytic, numeric,
                        tol * std::max(1.0, std::abs(numeric)))
                << layer.describe() << " param idx " << i;
        }
    }
}

nn::Tensor
randomInput(size_t rows, size_t cols, uint64_t seed)
{
    Rng rng(seed);
    nn::Tensor t(rows, cols);
    t.gaussianInit(rng, 1.0f);
    return t;
}

} // namespace

// --------------------------------------------------------------- Dense

TEST(DenseLayer, ForwardShapeAndBias)
{
    Rng rng(1);
    nn::DenseLayer layer(3, 2, nn::Activation::Identity, rng);
    layer.bias()[0] = 1.0f;
    layer.weights().zero();
    nn::Tensor in(4, 3);
    const nn::Tensor &out = layer.forward(in);
    EXPECT_EQ(out.rows(), 4u);
    EXPECT_EQ(out.cols(), 2u);
    EXPECT_FLOAT_EQ(out.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), 0.0f);
}

TEST(DenseLayer, ParamGradientsMatchFiniteDifference)
{
    Rng rng(2);
    nn::DenseLayer layer(4, 3, nn::Activation::Tanh, rng);
    checkParamGradients(layer, randomInput(5, 4, 3));
}

TEST(DenseLayer, InputGradientMatchesFiniteDifference)
{
    Rng rng(4);
    nn::DenseLayer layer(3, 2, nn::Activation::Swish, rng);
    nn::Tensor in = randomInput(2, 3, 5);
    layer.zeroGrad();
    const nn::Tensor &out = layer.forward(in);
    nn::Tensor dout = out;
    nn::Tensor din = layer.backward(dout);

    const float eps = 1e-2f;
    for (size_t i = 0; i < in.size(); ++i) {
        nn::Tensor p = in;
        p[i] += eps;
        double lp = halfSquare(layer.forward(p));
        nn::Tensor m = in;
        m[i] -= eps;
        double lm = halfSquare(layer.forward(m));
        double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(din[i], numeric, 2e-2 * std::max(1.0, std::abs(numeric)));
    }
}

// -------------------------------------------------------- LowRankDense

TEST(LowRankDense, ForwardShape)
{
    Rng rng(16);
    nn::LowRankDenseLayer layer(8, 6, 10, nn::Activation::Identity, rng);
    layer.setActive(8, 3, 10);
    const nn::Tensor &out = layer.forward(randomInput(2, 8, 17));
    EXPECT_EQ(out.cols(), 10u);
    EXPECT_EQ(layer.activeRank(), 3u);
    EXPECT_EQ(layer.activeParamCount(), 8u * 3u + 3u * 10u + 10u);
}

TEST(LowRankDense, GradientsMatchFiniteDifference)
{
    Rng rng(18);
    nn::LowRankDenseLayer layer(5, 4, 6, nn::Activation::Tanh, rng);
    layer.setActive(5, 2, 6);
    checkParamGradients(layer, randomInput(3, 5, 19));
}

TEST(LowRankDense, RankReducesParams)
{
    Rng rng(20);
    nn::LowRankDenseLayer layer(64, 64, 64, nn::Activation::ReLU, rng);
    layer.setActive(64, 8, 64);
    size_t low = layer.activeParamCount();
    layer.setActive(64, 64, 64);
    size_t full = layer.activeParamCount();
    EXPECT_LT(low, full / 3);
}

// ----------------------------------------------------------- Embedding

TEST(Embedding, LookupAveragesRows)
{
    Rng rng(22);
    nn::EmbeddingTable table(10, 4, rng);
    table.setActiveWidth(4);
    // Forge known rows.
    nn::Tensor &storage = table.weights();
    storage.zero();
    storage.at(2, 0) = 1.0f;
    storage.at(3, 0) = 3.0f;

    std::vector<nn::IdList> ids = {{2, 3}};
    nn::Tensor out = table.forward(ids);
    EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f); // mean of 1 and 3
}

TEST(Embedding, HashingWrapsIds)
{
    Rng rng(24);
    nn::EmbeddingTable table(8, 2, rng);
    std::vector<nn::IdList> a = {{3}};
    std::vector<nn::IdList> b = {{11}}; // 11 % 8 == 3
    nn::Tensor oa = table.forward(a);
    nn::Tensor ob = table.forward(b);
    EXPECT_FLOAT_EQ(oa.at(0, 0), ob.at(0, 0));
}

TEST(Embedding, MaskedWidth)
{
    Rng rng(26);
    nn::EmbeddingTable table(4, 8, rng);
    table.setActiveWidth(3);
    std::vector<nn::IdList> ids = {{1}};
    nn::Tensor out = table.forward(ids);
    EXPECT_EQ(out.cols(), 3u);
    EXPECT_EQ(table.activeParamCount(), 4u * 3u);
}

TEST(Embedding, BackwardScattersIntoTouchedRows)
{
    Rng rng(28);
    nn::EmbeddingTable table(6, 2, rng);
    table.setActiveWidth(2);
    std::vector<nn::IdList> ids = {{1}, {1, 4}};
    table.zeroGrad();
    table.forward(ids);
    nn::Tensor grad(2, 2);
    grad.fill(1.0f);
    table.backward(grad);
    // Row 1: 1.0 from example 0 plus 0.5 from example 1.
    EXPECT_FLOAT_EQ(table.grad(1, 0), 1.5f);
    EXPECT_FLOAT_EQ(table.grad(4, 0), 0.5f);
    EXPECT_FLOAT_EQ(table.grad(0, 0), 0.0f); // untouched row
    EXPECT_EQ(table.touchedRows(), 2u);
}

// The table's row-sparse gradient slots against a dense reference: the
// same scatter-add kernel over a dense vocab x width accumulator, then a
// dense SGD step over every element. Batches repeat ids within and
// across examples, several backward() calls accumulate into one step,
// the active width changes between them, and zeroGrad() drops a
// step's gradient — weights and gradients must match bit for bit.
TEST(Embedding, SparseGradientsMatchDenseReferenceBitwise)
{
    const size_t vocab = 40, width = 6;
    Rng rng(31);
    nn::EmbeddingTable table(vocab, width, rng);
    nn::Tensor ref_w = table.weights();
    nn::Tensor ref_g(vocab, width);
    Rng data(32);

    auto same_bits = [](const nn::Tensor &a, const nn::Tensor &b) {
        return a.size() == b.size() &&
               std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)) == 0;
    };
    auto accumulate = [&](size_t active) {
        table.setActiveWidth(active);
        std::vector<nn::IdList> ids(5);
        for (auto &list : ids) {
            size_t len = size_t(data.uniformInt(0, 4));
            for (size_t j = 0; j < len; ++j)
                list.push_back(uint32_t(data.uniformInt(0, 2 * vocab)));
        }
        ids[1] = {7, 7, 47}; // 47 hashes to row 7 too
        table.forward(ids);
        nn::Tensor grad_out(ids.size(), active);
        for (size_t i = 0; i < grad_out.size(); ++i)
            grad_out[i] = static_cast<float>(data.normal());
        table.backward(grad_out);

        std::vector<uint32_t> rows;
        std::vector<size_t> offsets{0};
        std::vector<float> inv;
        for (const auto &list : ids) {
            for (uint32_t id : list)
                rows.push_back(id % vocab);
            offsets.push_back(rows.size());
            inv.push_back(list.empty() ? 0.0f : 1.0f / float(list.size()));
        }
        nn::embeddingScatterAdd(grad_out, rows, offsets, inv, ref_g,
                                active);
    };
    auto grads_match = [&] {
        for (size_t r = 0; r < vocab; ++r)
            for (size_t c = 0; c < width; ++c) {
                float got = table.grad(r, c), want = ref_g.at(r, c);
                if (std::memcmp(&got, &want, sizeof(float)) != 0)
                    return false;
            }
        return true;
    };

    const float lr = 0.3f;
    for (size_t step = 0; step < 6; ++step) {
        for (size_t call = 0; call < 3; ++call)
            accumulate(call == 1 ? 4 : width);
        ASSERT_TRUE(grads_match()) << "step " << step;
        if (step == 2) {
            table.zeroGrad();
            ref_g.zero();
            EXPECT_EQ(table.touchedRows(), 0u);
            ASSERT_TRUE(grads_match());
            accumulate(width);
        }
        table.sgdStep(lr);
        for (size_t i = 0; i < ref_w.size(); ++i)
            ref_w[i] -= lr * ref_g[i];
        ref_g.zero();
        ASSERT_TRUE(same_bits(table.weights(), ref_w)) << "step " << step;
        EXPECT_EQ(table.touchedRows(), 0u);
        ASSERT_TRUE(grads_match());
    }
}

TEST(Embedding, EmptyIdListYieldsZeroVector)
{
    Rng rng(30);
    nn::EmbeddingTable table(4, 3, rng);
    std::vector<nn::IdList> ids = {{}};
    nn::Tensor out = table.forward(ids);
    EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(out.at(0, 2), 0.0f);
}

// -------------------------------------------------------------- losses

TEST(Loss, BceMatchesManual)
{
    nn::Tensor logits(2, 1);
    logits.at(0, 0) = 0.0f;
    logits.at(1, 0) = 2.0f;
    nn::Tensor labels(2, 1);
    labels.at(0, 0) = 1.0f;
    labels.at(1, 0) = 0.0f;
    auto res = nn::bceWithLogits(logits, labels);
    double expected =
        0.5 * (-std::log(0.5) - std::log(1.0 - nn::sigmoid(2.0)));
    EXPECT_NEAR(res.value, expected, 1e-9);
    // grad = (sigmoid(z) - y) / n
    EXPECT_NEAR(res.grad.at(0, 0), (0.5 - 1.0) / 2.0, 1e-6);
    EXPECT_NEAR(res.grad.at(1, 0), nn::sigmoid(2.0) / 2.0, 1e-6);
}

TEST(Loss, BceGradFiniteDifference)
{
    nn::Tensor logits(3, 1), labels(3, 1);
    logits.at(0, 0) = 0.7f;
    logits.at(1, 0) = -1.2f;
    logits.at(2, 0) = 0.1f;
    labels.at(0, 0) = 1.0f;
    labels.at(2, 0) = 1.0f;
    auto res = nn::bceWithLogits(logits, labels);
    const float eps = 1e-3f;
    for (size_t i = 0; i < 3; ++i) {
        nn::Tensor p = logits;
        p[i] += eps;
        nn::Tensor m = logits;
        m[i] -= eps;
        double numeric = (nn::bceWithLogits(p, labels).value -
                          nn::bceWithLogits(m, labels).value) /
                         (2.0 * eps);
        EXPECT_NEAR(res.grad[i], numeric, 1e-4);
    }
}

TEST(Loss, MseValueAndGrad)
{
    nn::Tensor pred(1, 2), target(1, 2);
    pred.at(0, 0) = 3.0f;
    target.at(0, 0) = 1.0f;
    auto res = nn::mseLoss(pred, target);
    EXPECT_DOUBLE_EQ(res.value, 2.0); // (4 + 0) / 2
    EXPECT_FLOAT_EQ(res.grad.at(0, 0), 2.0f); // 2*2/2
}

TEST(Loss, HuberBlendsRegimes)
{
    nn::Tensor pred(1, 2), target(1, 2);
    pred.at(0, 0) = 0.5f;  // inside delta=1: quadratic
    pred.at(0, 1) = 3.0f;  // outside: linear
    auto res = nn::huberLoss(pred, target, 1.0);
    EXPECT_NEAR(res.value, (0.5 * 0.25 + (3.0 - 0.5)) / 2.0, 1e-6);
}

TEST(Loss, AucPerfectAndRandomAndDegenerate)
{
    std::vector<double> labels = {1, 1, 0, 0};
    EXPECT_DOUBLE_EQ(nn::auc({0.9, 0.8, 0.2, 0.1}, labels), 1.0);
    EXPECT_DOUBLE_EQ(nn::auc({0.1, 0.2, 0.8, 0.9}, labels), 0.0);
    EXPECT_DOUBLE_EQ(nn::auc({0.5, 0.5, 0.5, 0.5}, labels), 0.5);
    EXPECT_DOUBLE_EQ(nn::auc({0.3, 0.4}, {1, 1}), 0.5); // one class
}

TEST(Loss, LogLossMatchesBce)
{
    std::vector<double> probs = {0.9, 0.2};
    std::vector<double> labels = {1.0, 0.0};
    double expected = (-std::log(0.9) - std::log(0.8)) / 2.0;
    EXPECT_NEAR(nn::logLoss(probs, labels), expected, 1e-12);
}

// ---------------------------------------------------------- optimizers

TEST(Optimizer, SgdStepAndZeroGrad)
{
    nn::Tensor w(1, 2), g(1, 2);
    w.fill(1.0f);
    g.fill(0.5f);
    nn::SgdOptimizer opt({{&w, &g}}, 0.1);
    opt.step();
    EXPECT_FLOAT_EQ(w.at(0, 0), 0.95f);
    EXPECT_FLOAT_EQ(g.at(0, 0), 0.0f); // gradients consumed
}

TEST(Optimizer, SgdMomentumAccumulates)
{
    nn::Tensor w(1, 1), g(1, 1);
    nn::SgdOptimizer opt({{&w, &g}}, 1.0, 0.9);
    g[0] = 1.0f;
    opt.step();
    EXPECT_FLOAT_EQ(w[0], -1.0f);
    g[0] = 1.0f;
    opt.step(); // velocity = 0.9*1 + 1 = 1.9
    EXPECT_FLOAT_EQ(w[0], -2.9f);
}

TEST(Optimizer, ZeroGradLeavesWeightsWithSgd)
{
    // The supernet relies on this: an untouched sub-network (zero grad)
    // must not move under momentum-free SGD.
    nn::Tensor w(1, 1), g(1, 1);
    w[0] = 3.0f;
    nn::SgdOptimizer opt({{&w, &g}}, 0.5, 0.0);
    opt.step();
    EXPECT_FLOAT_EQ(w[0], 3.0f);
}

// Golden bits of three SGD steps (lr 0.07, weight decay 0.01) on fixed
// inputs, as computed before the optimizer dropped the unused
// momentum-0 velocity buffers and split its update across CPUs: both
// momentum settings must reproduce them exactly.
TEST(Optimizer, SgdStepsMatchGoldenBits)
{
    const uint32_t golden_w[2][15] = {
        {0xbf854192, 0xbf3bbb51, 0xbea6c233, 0xbc93288c, 0x3ec781e5,
         0x3f3288c8, 0x3f8d717f, 0x3fc1a332, 0x3fe90284, 0x400e9a1c,
         0x402249c5, 0x403c62a0, 0x40501249, 0x407090e0, 0x4082216b},
        {0xbf734568, 0xbf48a8f2, 0xbe8340ba, 0xbdb81f30, 0x3ee0095d,
         0x3f1aa126, 0x3f90d4dd, 0x3fbe78f2, 0x3fe9a762, 0x400ba5bc,
         0x40213cf4, 0x40380f00, 0x404da638, 0x4075d066, 0x40803bc2}};
    const uint32_t golden_b[2][5] = {
        {0xbdc5be97, 0xbce38461, 0x3d27f8ce, 0x3de0d9e6, 0x3e36dbb3},
        {0xbe1cb7ff, 0xbd8b19aa, 0x3c8cf2ae, 0x3dd19302, 0x3e3ff4ab}};
    const double momenta[2] = {0.0, 0.9};
    for (size_t case_idx = 0; case_idx < 2; ++case_idx) {
        nn::Tensor w(3, 5), b(std::vector<size_t>{5});
        nn::Tensor gw(3, 5), gb(std::vector<size_t>{5});
        for (size_t i = 0; i < w.size(); ++i)
            w[i] = 0.37f * float(i) - 1.1f;
        for (size_t i = 0; i < b.size(); ++i)
            b[i] = 0.05f * float(i);
        nn::resetTensorAllocCount();
        nn::SgdOptimizer opt({{&w, &gw}, {&b, &gb}}, 0.07,
                             momenta[case_idx], 0.01);
        // Velocity buffers exist only when momentum reads them.
        EXPECT_EQ(nn::tensorAllocCount(), case_idx == 0 ? 0u : 2u);
        for (size_t step = 0; step < 3; ++step) {
            for (size_t i = 0; i < gw.size(); ++i)
                gw[i] = 0.11f * float((i * 7 + step * 3) % 13) - 0.6f;
            for (size_t i = 0; i < gb.size(); ++i)
                gb[i] = 0.23f * float(step + 1) - 0.09f * float(i);
            opt.step();
        }
        for (size_t i = 0; i < w.size(); ++i) {
            uint32_t bits;
            std::memcpy(&bits, &w[i], sizeof(bits));
            EXPECT_EQ(bits, golden_w[case_idx][i])
                << "momentum " << momenta[case_idx] << " w[" << i << "]";
        }
        for (size_t i = 0; i < b.size(); ++i) {
            uint32_t bits;
            std::memcpy(&bits, &b[i], sizeof(bits));
            EXPECT_EQ(bits, golden_b[case_idx][i])
                << "momentum " << momenta[case_idx] << " b[" << i << "]";
        }
    }
}

TEST(Optimizer, AdamConvergesOnQuadratic)
{
    // Minimize (w - 3)^2 by feeding grad = 2(w - 3).
    nn::Tensor w(1, 1), g(1, 1);
    nn::AdamOptimizer opt({{&w, &g}}, 0.1);
    for (int i = 0; i < 500; ++i) {
        g[0] = 2.0f * (w[0] - 3.0f);
        opt.step();
    }
    EXPECT_NEAR(w[0], 3.0f, 1e-2);
}

TEST(Optimizer, GradClipping)
{
    nn::Tensor w(1, 2), g(1, 2);
    g.at(0, 0) = 3.0f;
    g.at(0, 1) = 4.0f; // norm 5
    nn::SgdOptimizer opt({{&w, &g}}, 1.0);
    EXPECT_DOUBLE_EQ(opt.gradNorm(), 5.0);
    opt.clipGradNorm(1.0);
    EXPECT_NEAR(opt.gradNorm(), 1.0, 1e-6);
}

// ----------------------------------------------------------------- MLP

TEST(Mlp, LearnsXor)
{
    Rng rng(40);
    nn::Mlp mlp({2, 16, 1}, nn::Activation::Tanh, nn::Activation::Identity,
                rng);
    nn::AdamOptimizer opt(mlp.params(), 0.02);

    nn::Tensor x(4, 2), y(4, 1);
    float data[4][3] = {{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}};
    for (size_t i = 0; i < 4; ++i) {
        x.at(i, 0) = data[i][0];
        x.at(i, 1) = data[i][1];
        y.at(i, 0) = data[i][2];
    }
    double last = 1e9;
    for (int epoch = 0; epoch < 2000; ++epoch) {
        const nn::Tensor &pred = mlp.forward(x);
        auto loss = nn::mseLoss(pred, y);
        mlp.backward(loss.grad);
        opt.step();
        last = loss.value;
    }
    EXPECT_LT(last, 0.01);
}

// The const inference forward uses forward()'s kernels in the same
// order, so its outputs are bitwise equal; it leaves the layers' own
// buffers alone.
TEST(Mlp, InferBitwiseEqualsForward)
{
    Rng rng(43);
    nn::Mlp mlp({9, 33, 17, 2}, nn::Activation::ReLU,
                nn::Activation::Identity, rng);
    nn::Tensor x(21, 9);
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.normal());
    nn::Tensor expected = mlp.forward(x);
    std::array<nn::Tensor, 2> scratch;
    const nn::Tensor &got = mlp.infer(x, scratch);
    ASSERT_EQ(got.shape(), expected.shape());
    EXPECT_EQ(0, std::memcmp(got.data().data(), expected.data().data(),
                             got.size() * sizeof(float)));
}

// Training splits the kernels, the bias-gradient column sums and the
// Adam update across CPUs; every split is on an element or tile
// boundary, so the weights after several steps match a run whose every
// call stayed inline (inside a pool task) bit for bit.
TEST(Mlp, ParallelTrainingBitIdenticalToInline)
{
    auto train = [] {
        Rng rng(44);
        nn::Mlp mlp({87, 256, 256, 2}, nn::Activation::ReLU,
                    nn::Activation::Identity, rng);
        nn::AdamOptimizer opt(mlp.params(), 1e-3);
        nn::Tensor x(256, 87), y(256, 2);
        for (size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(rng.normal());
        for (size_t i = 0; i < y.size(); ++i)
            y[i] = static_cast<float>(rng.normal());
        for (int step = 0; step < 4; ++step) {
            auto loss = nn::mseLoss(mlp.forward(x), y);
            mlp.backward(loss.grad);
            opt.step();
        }
        std::vector<float> weights;
        for (const nn::ParamRef &p : mlp.params())
            weights.insert(weights.end(), p.value->data().begin(),
                           p.value->data().end());
        return weights;
    };
    std::vector<float> inline_weights;
    {
        h2o::exec::ThreadPool pool(1);
        pool.submit([&] { inline_weights = train(); }).get();
    }
    const size_t splits_before = h2o::common::parallelSplitCount();
    std::vector<float> split_weights = train();
    if (h2o::common::parallelWidth() > 1) {
        EXPECT_GT(h2o::common::parallelSplitCount(), splits_before);
    }
    ASSERT_EQ(inline_weights.size(), split_weights.size());
    EXPECT_EQ(0, std::memcmp(inline_weights.data(), split_weights.data(),
                             inline_weights.size() * sizeof(float)));
}

TEST(Mlp, ParamCount)
{
    Rng rng(42);
    nn::Mlp mlp({3, 5, 2}, nn::Activation::ReLU, nn::Activation::Identity,
                rng);
    EXPECT_EQ(mlp.paramCount(), 3u * 5 + 5 + 5 * 2 + 2);
    EXPECT_EQ(mlp.numLayers(), 2u);
}

// ----------------------------------------------------------- Normalizer

TEST(Normalizer, StandardizesAndInverts)
{
    nn::Tensor data(3, 2);
    data.at(0, 0) = 1.0f;
    data.at(1, 0) = 2.0f;
    data.at(2, 0) = 3.0f;
    data.at(0, 1) = 10.0f;
    data.at(1, 1) = 10.0f;
    data.at(2, 1) = 10.0f; // constant column: stddev floor applies
    nn::Normalizer norm;
    norm.fit(data);
    nn::Tensor copy = data;
    norm.transform(copy);
    EXPECT_NEAR(copy.at(1, 0), 0.0, 1e-5);
    EXPECT_NEAR(norm.inverse(copy.at(2, 0), 0), 3.0, 1e-4);
    EXPECT_NEAR(norm.apply(2.0, 0), 0.0, 1e-6);
}
