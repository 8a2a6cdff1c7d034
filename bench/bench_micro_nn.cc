/**
 * @file
 * Google-benchmark microbenchmarks for the neural-network substrate:
 * matrix kernels (incl. masked variants), layer forward/backward, and
 * embedding lookups — the inner loops of super-network training.
 */

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "nn/dense.h"
#include "nn/embedding.h"
#include "nn/ops.h"

namespace nn = h2o::nn;
using h2o::common::Rng;

static void
BM_MatmulMasked(benchmark::State &state)
{
    size_t n = static_cast<size_t>(state.range(0));
    Rng rng(1);
    nn::Tensor a(64, n), b(n, n), c(64, n);
    a.gaussianInit(rng, 1.0f);
    b.gaussianInit(rng, 1.0f);
    for (auto _ : state) {
        nn::matmulMasked(a, b, c, n, n);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * 64 * n * n);
}
BENCHMARK(BM_MatmulMasked)->Arg(64)->Arg(128)->Arg(256);

static void
BM_MatmulMaskedHalfActive(benchmark::State &state)
{
    size_t n = static_cast<size_t>(state.range(0));
    Rng rng(2);
    nn::Tensor a(64, n), b(n, n), c(64, n);
    a.gaussianInit(rng, 1.0f);
    b.gaussianInit(rng, 1.0f);
    for (auto _ : state) {
        nn::matmulMasked(a, b, c, n / 2, n / 2);
        benchmark::DoNotOptimize(c.data().data());
    }
}
BENCHMARK(BM_MatmulMaskedHalfActive)->Arg(128)->Arg(256);

static void
BM_DenseForwardBackward(benchmark::State &state)
{
    size_t width = static_cast<size_t>(state.range(0));
    Rng rng(3);
    nn::DenseLayer layer(width, width, nn::Activation::ReLU, rng);
    nn::Tensor in(64, width);
    in.gaussianInit(rng, 1.0f);
    for (auto _ : state) {
        const nn::Tensor &out = layer.forward(in);
        nn::Tensor dout = out;
        nn::Tensor din = layer.backward(dout);
        benchmark::DoNotOptimize(din.data().data());
        layer.zeroGrad();
    }
}
BENCHMARK(BM_DenseForwardBackward)->Arg(64)->Arg(256);

static void
BM_EmbeddingLookup(benchmark::State &state)
{
    size_t batch = static_cast<size_t>(state.range(0));
    Rng rng(5);
    nn::EmbeddingTable table(4096, 32, rng);
    std::vector<nn::IdList> ids(batch);
    for (size_t i = 0; i < batch; ++i)
        ids[i] = {static_cast<uint32_t>(rng.uniformInt(0, 4095))};
    for (auto _ : state) {
        nn::Tensor out = table.forward(ids);
        benchmark::DoNotOptimize(out.data().data());
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EmbeddingLookup)->Arg(64)->Arg(512);

BENCHMARK_MAIN();
