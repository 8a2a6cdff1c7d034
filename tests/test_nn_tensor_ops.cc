/**
 * @file
 * Unit tests for the tensor container, matrix kernels (including the
 * masked variants the super-network depends on), and activations.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/parallel.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "nn/activation.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace nn = h2o::nn;

// -------------------------------------------------------------- Tensor

TEST(Tensor, ShapeAndAccess)
{
    nn::Tensor t(3, 4);
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 4u);
    EXPECT_EQ(t.size(), 12u);
    t.at(2, 3) = 5.0f;
    EXPECT_FLOAT_EQ(t.at(2, 3), 5.0f);
    EXPECT_FLOAT_EQ(t[2 * 4 + 3], 5.0f);
    EXPECT_EQ(t.shapeStr(), "[3, 4]");
}

TEST(Tensor, FillZeroSumNorm)
{
    nn::Tensor t(2, 2);
    t.fill(3.0f);
    EXPECT_DOUBLE_EQ(t.sum(), 12.0);
    EXPECT_DOUBLE_EQ(t.norm(), 6.0);
    t.zero();
    EXPECT_DOUBLE_EQ(t.sum(), 0.0);
}

TEST(Tensor, HeInitStatistics)
{
    h2o::common::Rng rng(1);
    nn::Tensor t(100, 100);
    t.heInit(rng, 100);
    double mean = t.sum() / t.size();
    EXPECT_NEAR(mean, 0.0, 0.01);
    double expected_std = std::sqrt(2.0 / 100.0);
    double var = 0.0;
    for (float v : t.data())
        var += (v - mean) * (v - mean);
    var /= t.size();
    EXPECT_NEAR(std::sqrt(var), expected_std, 0.01);
}

// gaussianInit draws one key and makes element i a pure function of
// (key, i): a tensor large enough to split across CPUs must equal its
// per-index serial reference bit for bit, and so must a fill that runs
// inline inside a pool task.
TEST(Tensor, GaussianInitSplitEqualsPerIndexReference)
{
    const float stddev = 0.05f;
    auto fill = [&] {
        h2o::common::Rng rng(17);
        nn::Tensor t(300, 301); // odd size: the last pair is half used
        t.gaussianInit(rng, stddev);
        return t;
    };
    const size_t splits_before = h2o::common::parallelSplitCount();
    nn::Tensor split = fill();
    if (h2o::common::parallelWidth() > 1) {
        EXPECT_GT(h2o::common::parallelSplitCount(), splits_before);
    }
    nn::Tensor inline_fill;
    {
        h2o::exec::ThreadPool pool(1);
        pool.submit([&] { inline_fill = fill(); }).get();
    }
    const uint64_t key = h2o::common::Rng(17).next64();
    std::vector<float> reference(split.size());
    for (size_t i = 0; i < reference.size(); ++i)
        reference[i] = stddev * h2o::common::counterNormal(key, i);
    ASSERT_EQ(split.size(), reference.size());
    EXPECT_EQ(0, std::memcmp(split.data().data(), reference.data(),
                             reference.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(inline_fill.data().data(), reference.data(),
                             reference.size() * sizeof(float)));
}

TEST(Tensor, GaussianInitMomentsOverManyDraws)
{
    h2o::common::Rng rng(3);
    nn::Tensor t(1024, 1024 + 3);
    t.gaussianInit(rng, 2.0f);
    const double n = static_cast<double>(t.size());
    double sum = 0.0, sq = 0.0, within = 0.0;
    for (float v : t.data()) {
        ASSERT_TRUE(std::isfinite(v));
        sum += v;
        sq += double(v) * v;
        within += std::abs(v) < 2.0f ? 1.0 : 0.0;
    }
    const double mean = sum / n;
    // Standard error of the mean is 2 / sqrt(n) ~ 0.002.
    EXPECT_NEAR(mean, 0.0, 0.01);
    EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 2.0, 0.01);
    // P(|z| < 1) for a standard normal.
    EXPECT_NEAR(within / n, 0.6827, 0.003);
    // Consecutive tensors from one stream get different keys.
    nn::Tensor u(4, 4);
    u.gaussianInit(rng, 2.0f);
    nn::Tensor v(4, 4);
    v.gaussianInit(rng, 2.0f);
    EXPECT_NE(0, std::memcmp(u.data().data(), v.data().data(),
                             u.size() * sizeof(float)));
}

TEST(Tensor, OutOfBoundsPanics)
{
    nn::Tensor t(2, 2);
    EXPECT_DEATH(t.at(2, 0), "out of bounds");
}

// ---------------------------------------------------------------- ops

namespace {

/** Naive reference matmul over the active region. */
nn::Tensor
refMatmul(const nn::Tensor &a, const nn::Tensor &b, size_t m, size_t k,
          size_t n)
{
    nn::Tensor c(m, n);
    for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (size_t x = 0; x < k; ++x)
                acc += a.at(i, x) * b.at(x, j);
            c.at(i, j) = acc;
        }
    return c;
}

nn::Tensor
randomTensor(size_t r, size_t c, uint64_t seed)
{
    h2o::common::Rng rng(seed);
    nn::Tensor t(r, c);
    t.gaussianInit(rng, 1.0f);
    return t;
}

} // namespace

TEST(Ops, MatmulMatchesReference)
{
    auto a = randomTensor(5, 7, 1);
    auto b = randomTensor(7, 3, 2);
    nn::Tensor c(5, 3);
    nn::matmul(a, b, c);
    auto ref = refMatmul(a, b, 5, 7, 3);
    for (size_t i = 0; i < c.size(); ++i)
        EXPECT_NEAR(c[i], ref[i], 1e-4);
}

TEST(Ops, MaskedMatmulUsesOnlyActiveRegion)
{
    auto a = randomTensor(4, 8, 3);
    auto b = randomTensor(8, 6, 4);
    nn::Tensor c(4, 6);
    c.fill(99.0f);
    nn::matmulMasked(a, b, c, /*k_act=*/5, /*n_act=*/4);
    auto ref = refMatmul(a, b, 4, 5, 4);
    for (size_t i = 0; i < 4; ++i) {
        for (size_t j = 0; j < 4; ++j)
            EXPECT_NEAR(c.at(i, j), ref.at(i, j), 1e-4);
        // Columns beyond n_act must be untouched.
        for (size_t j = 4; j < 6; ++j)
            EXPECT_FLOAT_EQ(c.at(i, j), 99.0f);
    }
}

TEST(Ops, MatmulTransAMaskedComputesWeightGrad)
{
    // dW = X^T dY restricted to the active block.
    auto x = randomTensor(6, 5, 5);
    auto dy = randomTensor(6, 4, 6);
    nn::Tensor dw(5, 4);
    nn::matmulTransAMasked(x, dy, dw, 3, 2);
    for (size_t k = 0; k < 3; ++k)
        for (size_t j = 0; j < 2; ++j) {
            float acc = 0.0f;
            for (size_t i = 0; i < 6; ++i)
                acc += x.at(i, k) * dy.at(i, j);
            EXPECT_NEAR(dw.at(k, j), acc, 1e-4);
        }
    // Outside the active block: untouched zeros.
    EXPECT_FLOAT_EQ(dw.at(4, 3), 0.0f);
}

TEST(Ops, MatmulTransBMaskedComputesInputGrad)
{
    // dX = dY W^T restricted to the active block.
    auto dy = randomTensor(3, 6, 7);
    auto w = randomTensor(5, 6, 8);
    nn::Tensor dx(3, 5);
    nn::matmulTransBMasked(dy, w, dx, /*n_act=*/4, /*k_act=*/2);
    for (size_t i = 0; i < 3; ++i)
        for (size_t k = 0; k < 2; ++k) {
            float acc = 0.0f;
            for (size_t j = 0; j < 4; ++j)
                acc += dy.at(i, j) * w.at(k, j);
            EXPECT_NEAR(dx.at(i, k), acc, 1e-4);
        }
}

TEST(Ops, AddBiasMasked)
{
    nn::Tensor x(2, 4);
    nn::Tensor b(std::vector<size_t>{4});
    b[0] = 1.0f;
    b[1] = 2.0f;
    b[2] = 3.0f;
    b[3] = 4.0f;
    nn::addBias(x, b, 2);
    EXPECT_FLOAT_EQ(x.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(x.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(x.at(0, 2), 0.0f); // beyond n_act
}

TEST(Ops, Axpy)
{
    nn::Tensor x(1, 3), y(1, 3);
    x.fill(2.0f);
    y.fill(1.0f);
    nn::axpy(0.5f, x, y);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(y[i], 2.0f);
}

TEST(Ops, ShapeMismatchPanics)
{
    nn::Tensor a(2, 3), b(4, 5), c(2, 5);
    EXPECT_DEATH(nn::matmul(a, b, c), "matmul shape mismatch");
}

// -------------------------------------------------------- activations

/** All activations are checked against a finite-difference derivative. */
class ActivationGradTest
    : public testing::TestWithParam<nn::Activation>
{
};

TEST_P(ActivationGradTest, FiniteDifference)
{
    nn::Activation act = GetParam();
    const float eps = 1e-3f;
    for (float x : {-2.0f, -0.5f, -0.01f, 0.3f, 1.0f, 3.0f}) {
        float analytic = nn::activateGrad(act, x);
        float numeric = (nn::activate(act, x + eps) -
                         nn::activate(act, x - eps)) /
                        (2.0f * eps);
        EXPECT_NEAR(analytic, numeric, 5e-3)
            << nn::activationName(act) << " at x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllActivations, ActivationGradTest,
    testing::Values(nn::Activation::Identity, nn::Activation::ReLU,
                    nn::Activation::Swish, nn::Activation::GeLU,
                    nn::Activation::SquaredReLU, nn::Activation::Sigmoid,
                    nn::Activation::Tanh),
    [](const testing::TestParamInfo<nn::Activation> &info) {
        return nn::activationName(info.param);
    });

TEST(Activation, SquaredReluValues)
{
    EXPECT_FLOAT_EQ(nn::activate(nn::Activation::SquaredReLU, -1.0f), 0.0f);
    EXPECT_FLOAT_EQ(nn::activate(nn::Activation::SquaredReLU, 2.0f), 4.0f);
}

TEST(Activation, NameRoundTrip)
{
    for (auto act : {nn::Activation::ReLU, nn::Activation::Swish,
                     nn::Activation::GeLU, nn::Activation::SquaredReLU}) {
        EXPECT_EQ(nn::activationFromName(nn::activationName(act)), act);
    }
}

TEST(Activation, VpuCostOrdering)
{
    // Squared ReLU is much cheaper than transcendental activations — the
    // hardware rationale for the CoAtNet-H substitution.
    EXPECT_LT(nn::activationVpuCost(nn::Activation::SquaredReLU),
              nn::activationVpuCost(nn::Activation::Swish));
    EXPECT_LT(nn::activationVpuCost(nn::Activation::Swish),
              nn::activationVpuCost(nn::Activation::GeLU));
}
