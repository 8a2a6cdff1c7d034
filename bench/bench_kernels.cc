/**
 * @file
 * Hot-path micro-benchmark: A/B of the reference (naive scalar) vs the
 * library's matmul kernels at super-network shapes, the baseline vs the
 * selected ISA build of the matmul micro-kernel, the library kernels
 * run inline vs split across threads (common::parallelFor), steady-state
 * allocations per training step, and the SimCache hit rate on a
 * repeat-heavy evaluation stream. Emits machine-readable JSON
 * (BENCH_kernels.json, with the host's nproc and the selected ISA) so
 * perf regressions are diffable across commits; registered as a ctest
 * smoke with a tiny iteration count.
 *
 * Reported metrics:
 *  - GFLOP/s per masked kernel (matmul / transA / transB), reference vs
 *    library ("tiled"), at the DLRM supernet's bottom-MLP shape, both on
 *    one thread;
 *  - GFLOP/s per masked kernel built for the baseline ISA vs the ISA
 *    the library selected on this CPU, on one thread, at the perf
 *    model's layer shapes and the supernet shapes; the bench exits
 *    non-zero unless both outputs are bitwise equal;
 *  - GFLOP/s per library kernel inline (called from a one-worker
 *    exec::ThreadPool task, where kernels never split) vs parallel
 *    (called from the main thread), at the perf model's two layer
 *    shapes (256 x 87 x 128, 256 x 128 x 128), its 128 -> 2 head
 *    (256 x 128 x 2) and the supernet shape. The bench exits non-zero
 *    unless both outputs are bitwise equal;
 *  - tensor allocations on the first (warm-up) supernet-style training
 *    step vs a steady-state step (target: 0);
 *  - tensor allocations per steady-state DlrmSupernet::evaluateBatch
 *    call (the batched quality stage's no-grad path; target 0, and the
 *    bench exits non-zero when it regresses);
 *  - SimCache hit/miss counters for a stream that revisits candidates;
 *  - DlrmSupernet construction time, inline (in a one-worker pool task)
 *    vs split across CPUs, for the serve jobs' small supernet and the
 *    flagship one (examples/dlrm_search.cpp's baseline), each median of
 *    several builds; the bench exits non-zero unless both builds save
 *    the same checkpoint bytes;
 *  - one embedding table's training step (several backward calls, then
 *    SGD) with row-sparse gradient slots vs the dense vocab x width
 *    accumulator and whole-table SgdOptimizer it replaced, median us
 *    per step; the bench exits non-zero unless the weights agree bit
 *    for bit;
 *  - one data-parallel supernet train step on the flagship DLRM (16
 *    shards of batch 64: plan and lay out, per-shard forward/backward
 *    on the lanes, the fixed-order reduce + SGD), median ms per step
 *    with one lane (kernels split across CPUs) vs nproc lanes (kernels
 *    inline); the bench exits non-zero unless both leave the same
 *    weights bit for bit.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/dlrm_arch.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exec/shard_runner.h"
#include "exec/thread_pool.h"
#include "nn/embedding.h"
#include "nn/matmul_kernel.h"
#include "nn/mlp.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"
#include "pipeline/pipeline.h"
#include "pipeline/traffic_generator.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

using namespace h2o;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

nn::Tensor
randomTensor(size_t rows, size_t cols, common::Rng &rng)
{
    nn::Tensor t(rows, cols);
    for (size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.normal());
    return t;
}

struct KernelScore
{
    double referenceGflops = 0.0;
    double tiledGflops = 0.0;
    double speedup() const
    {
        return referenceGflops > 0.0 ? tiledGflops / referenceGflops : 0.0;
    }
};

/** Time fn(iterations) doing `flops` useful FLOPs per call. */
template <typename Fn>
double
gflops(size_t iters, double flops_per_call, Fn &&fn)
{
    // One untimed call to warm caches and fault in pages.
    fn();
    auto start = Clock::now();
    for (size_t i = 0; i < iters; ++i)
        fn();
    double sec = secondsSince(start);
    return flops_per_call * double(iters) / sec / 1e9;
}

/** One library kernel at one shape, inline vs split across threads. */
struct ParallelScore
{
    std::string shape;
    std::string kernel;
    double inlineGflops = 0.0;
    double parallelGflops = 0.0;
    bool bitwiseEqual = false;
    double speedup() const
    {
        return inlineGflops > 0.0 ? parallelGflops / inlineGflops : 0.0;
    }
};

bool
sameBits(const nn::Tensor &x, const nn::Tensor &y)
{
    return x.size() == y.size() &&
           std::memcmp(x.data().data(), y.data().data(),
                       x.size() * sizeof(float)) == 0;
}

/**
 * Score the three library kernels at (m x k x n). The inline side runs in
 * a task on `inline_pool` (one worker: pool workers never split), the
 * parallel side on the calling thread. Each output is computed once
 * per side from the same zeroed start and compared bit for bit.
 */
void
scoreParallel(const std::string &shape, size_t m, size_t k, size_t n,
              size_t iters, exec::ThreadPool &inline_pool, common::Rng &rng,
              std::vector<ParallelScore> &out)
{
    nn::Tensor a = randomTensor(m, k, rng);
    nn::Tensor b = randomTensor(k, n, rng);
    nn::Tensor g = randomTensor(m, n, rng);
    double flops = 2.0 * double(m) * double(k) * double(n);
    auto on_pool = [&](auto &&fn) { inline_pool.submit(fn).get(); };

    auto score = [&](const char *kernel, nn::Tensor &c, auto &&call) {
        ParallelScore s{shape, kernel};
        nn::Tensor inline_out, parallel_out;
        on_pool([&] {
            c.zero();
            call();
            inline_out = c;
            s.inlineGflops = gflops(iters, flops, call);
        });
        c.zero();
        call();
        parallel_out = c;
        s.parallelGflops = gflops(iters, flops, call);
        s.bitwiseEqual = sameBits(inline_out, parallel_out);
        out.push_back(s);
    };
    nn::Tensor c(m, n), cw(k, n), cx(m, k);
    score("matmul_masked", c,
          [&] { nn::matmulMasked(a, b, c, k, n); });
    score("matmul_transa_masked", cw,
          [&] { nn::matmulTransAMasked(a, g, cw, k, n); });
    score("matmul_transb_masked", cx,
          [&] { nn::matmulTransBMasked(g, b, cx, n, k); });
}

/** One masked kernel at one shape, baseline ISA build vs selected. */
struct IsaScore
{
    std::string shape;
    std::string kernel;
    double baselineGflops = 0.0;
    double selectedGflops = 0.0;
    bool bitwiseEqual = false;
    double speedup() const
    {
        return baselineGflops > 0.0 ? selectedGflops / baselineGflops : 0.0;
    }
};

/**
 * Score the three masked kernels at (m x k x n) with the baseline build
 * and with the selected one, both in a task on `inline_pool` (one
 * thread). Each output is computed once per build from the same zeroed
 * start and compared bit for bit.
 */
void
scoreIsa(const std::string &shape, size_t m, size_t k, size_t n,
         size_t iters, exec::ThreadPool &inline_pool, common::Rng &rng,
         std::vector<IsaScore> &out)
{
    nn::Tensor a = randomTensor(m, k, rng);
    nn::Tensor b = randomTensor(k, n, rng);
    nn::Tensor g = randomTensor(m, n, rng);
    double flops = 2.0 * double(m) * double(k) * double(n);
    const nn::isa::Variant &base = nn::isa::supportedVariants().front();
    const nn::isa::Variant &sel = nn::isa::selectedVariant();

    auto score = [&](const char *kernel, nn::Tensor &c, auto &&call) {
        IsaScore s{shape, kernel};
        nn::Tensor base_out;
        c.zero();
        call(base);
        base_out = c;
        s.baselineGflops = gflops(iters, flops, [&] { call(base); });
        c.zero();
        call(sel);
        s.bitwiseEqual = sameBits(base_out, c);
        s.selectedGflops = gflops(iters, flops, [&] { call(sel); });
        out.push_back(s);
    };
    nn::Tensor c(m, n), cw(k, n), cx(m, k);
    inline_pool
        .submit([&] {
            score("matmul_masked", c, [&](const nn::isa::Variant &v) {
                nn::isa::matmulMasked(v, a, b, c, k, n, false);
            });
            score("matmul_transa_masked", cw,
                  [&](const nn::isa::Variant &v) {
                      nn::isa::matmulTransAMasked(v, a, g, cw.data().data(),
                                                  n, k, n);
                  });
            score("matmul_transb_masked", cx,
                  [&](const nn::isa::Variant &v) {
                      nn::isa::matmulTransBMasked(v, g, b, cx, n, k, false);
                  });
        })
        .get();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
}

/** The serve jobs' supernet baseline (serve/job.cc smallDlrm). */
arch::DlrmArch
serveSmallDlrm()
{
    arch::DlrmArch a;
    a.numDenseFeatures = 4;
    a.tables = {{2048, 8, 1.0}, {512, 8, 1.0}};
    a.bottomMlp = {{16, 0}};
    a.topMlp = {{32, 0}, {16, 0}};
    a.globalBatch = 256;
    return a;
}

/** The flagship supernet baseline (examples/dlrm_search.cpp). */
arch::DlrmArch
flagshipDlrm()
{
    arch::DlrmArch a;
    a.numDenseFeatures = 8;
    a.tables = {{65536, 24, 1.0}, {16384, 16, 1.0}, {4096, 16, 1.0},
                {1024, 8, 2.0}};
    a.bottomMlp = {{64, 0}, {32, 0}};
    a.topMlp = {{128, 0}, {64, 0}};
    a.globalBatch = 4096;
    return a;
}

/** DlrmSupernet construction (default SupernetConfig), inline vs
 *  split. */
struct ConstructionScore
{
    std::string arch;
    size_t weights = 0;
    double inlineMs = 0.0;
    double parallelMs = 0.0;
    bool bitwiseEqual = false;
    double speedup() const
    {
        return parallelMs > 0.0 ? inlineMs / parallelMs : 0.0;
    }
};

ConstructionScore
scoreConstruction(const std::string &name, const arch::DlrmArch &a,
                  size_t reps, exec::ThreadPool &inline_pool)
{
    searchspace::DlrmSearchSpace space(a);
    ConstructionScore s{name};
    auto build = [&](std::string *bytes) {
        common::Rng rng(21);
        auto start = Clock::now();
        supernet::DlrmSupernet net(space, {}, rng);
        double ms = 1e3 * secondsSince(start);
        s.weights = net.totalParamCount();
        if (bytes) {
            std::ostringstream os;
            net.save(os);
            *bytes = os.str();
        }
        return ms;
    };
    std::string inline_bytes, parallel_bytes;
    std::vector<double> inline_ms, parallel_ms;
    inline_pool
        .submit([&] {
            build(&inline_bytes);
            for (size_t r = 0; r < reps; ++r)
                inline_ms.push_back(build(nullptr));
        })
        .get();
    build(&parallel_bytes);
    for (size_t r = 0; r < reps; ++r)
        parallel_ms.push_back(build(nullptr));
    s.inlineMs = median(inline_ms);
    s.parallelMs = median(parallel_ms);
    s.bitwiseEqual = inline_bytes == parallel_bytes;
    return s;
}

/** One embedding table's train step: row-sparse slots vs the dense
 *  accumulator + SgdOptimizer the table used to carry. */
struct SparseSgdScore
{
    std::string table;
    size_t vocab = 0;
    size_t width = 0;
    size_t calls = 0;     ///< backward() calls per step
    size_t batch = 0;     ///< examples (one id each) per call
    size_t touchedRows = 0; ///< mean rows touched per step
    double sparseUs = 0.0;
    double denseUs = 0.0;
    bool bitwiseEqual = false;
    double speedup() const { return sparseUs > 0.0 ? denseUs / sparseUs : 0.0; }
};

/**
 * Train one table for `steps` steps of `calls` backward calls, each on
 * `batch` single-id examples drawn uniformly from the vocabulary (every
 * call on the same table: the worst case for the slots). The dense side
 * replays the same ids through the same scatter-add kernel into a
 * vocab x width gradient and steps it with nn::SgdOptimizer.
 */
SparseSgdScore
scoreSparseSgd(const std::string &name, size_t vocab, size_t width,
               size_t calls, size_t batch, size_t steps, common::Rng &rng)
{
    SparseSgdScore s{name, vocab, width, calls, batch};
    common::Rng init = rng.fork(5);
    nn::EmbeddingTable table(vocab, width, init);
    nn::Tensor dense_w = table.weights();
    nn::Tensor dense_g(vocab, width);
    nn::SgdOptimizer dense_opt({{&dense_w, &dense_g}}, 0.05);
    const float lr = 0.05f;

    std::vector<std::vector<nn::IdList>> ids(calls,
                                             std::vector<nn::IdList>(batch));
    std::vector<std::vector<uint32_t>> rows(calls,
                                            std::vector<uint32_t>(batch));
    std::vector<size_t> offsets(batch + 1);
    for (size_t i = 0; i <= batch; ++i)
        offsets[i] = i;
    std::vector<float> inv(batch, 1.0f);
    nn::Tensor grad = randomTensor(batch, width, rng);

    std::vector<double> sparse_us, dense_us;
    size_t touched = 0;
    for (size_t step = 0; step < steps; ++step) {
        for (size_t c = 0; c < calls; ++c)
            for (size_t i = 0; i < batch; ++i) {
                rows[c][i] = uint32_t(rng.uniformInt(0, int64_t(vocab) - 1));
                ids[c][i] = {rows[c][i]};
            }
        // The forward lookups stage the ids; only the gradient scatter
        // and the update are timed.
        double us = 0.0;
        for (size_t c = 0; c < calls; ++c) {
            table.forward(ids[c]);
            auto start = Clock::now();
            table.backward(grad);
            us += 1e6 * secondsSince(start);
        }
        touched += table.touchedRows();
        auto start = Clock::now();
        table.sgdStep(lr);
        sparse_us.push_back(us + 1e6 * secondsSince(start));

        start = Clock::now();
        for (size_t c = 0; c < calls; ++c)
            nn::embeddingScatterAdd(grad, rows[c], offsets, inv, dense_g,
                                    width);
        dense_opt.step();
        dense_us.push_back(1e6 * secondsSince(start));
    }
    s.touchedRows = steps ? touched / steps : 0;
    s.sparseUs = median(sparse_us);
    s.denseUs = median(dense_us);
    s.bitwiseEqual = sameBits(table.weights(), dense_w);
    return s;
}

/** One supernet train step's wall time at one lane count. */
struct TrainStepScore
{
    size_t lanes = 0;
    double ms = 0.0; ///< median per step
};

/**
 * Train a fresh flagship supernet for `steps` data-parallel steps of
 * 16 shards (batch 64, uniform candidates; inputs identical at every
 * lane count) on `lanes` lanes; returns the median step time and, in
 * `bytes`, the final weights' checkpoint.
 */
TrainStepScore
scoreTrainStep(size_t lanes, size_t steps, std::string &bytes)
{
    constexpr size_t kShards = 16, kBatch = 64;
    const arch::DlrmArch base = flagshipDlrm();
    searchspace::DlrmSearchSpace space(base);
    common::Rng net_rng(31);
    supernet::DlrmSupernet net(space, {}, net_rng);
    std::vector<uint64_t> vocabs;
    std::vector<double> avg_ids;
    for (const auto &t : base.tables) {
        vocabs.push_back(t.vocab);
        avg_ids.push_back(t.avgIds);
    }
    pipeline::TrafficGenerator traffic(
        pipeline::trafficConfigFor(base.numDenseFeatures, vocabs, avg_ids),
        32);
    common::Rng sample_rng(33);

    exec::ThreadPool pool(lanes);
    exec::ShardRunner runner(pool, {kShards});
    std::vector<supernet::SupernetContext> ctx(runner.lanes());
    for (auto &c : ctx)
        net.reserve(c, kBatch);
    supernet::StepGradients grads;
    std::vector<supernet::SupernetPlan> plans(kShards);
    std::vector<pipeline::Batch> batches(kShards);
    std::vector<double> ms;
    for (size_t step = 0; step < steps; ++step) {
        for (size_t i = 0; i < kShards; ++i) {
            batches[i] = traffic.nextBatch(kBatch);
            plans[i] = net.plan(space.decisions().uniformSample(sample_rng));
        }
        auto start = Clock::now();
        grads.layout(net, plans);
        runner.forEach(kShards, [&](size_t i, size_t lane) {
            (void)net.accumulateGradients(plans[i], batches[i], ctx[lane],
                                          grads[i]);
        });
        net.applyGradients(grads.shards(), 0.05 / kShards);
        ms.push_back(1e3 * secondsSince(start));
    }
    std::ostringstream os;
    net.save(os);
    bytes = os.str();
    return {runner.lanes(), median(ms)};
}

} // namespace

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("iters", 200, "timed iterations per kernel");
    flags.defineInt("m", 256, "rows (supernet batch)");
    flags.defineInt("k", 512, "inner dim (bottom-MLP input width)");
    flags.defineInt("n", 256, "cols (bottom-MLP output width)");
    flags.defineInt("seed", 11, "RNG seed");
    flags.defineString("json", "BENCH_kernels.json",
                       "output path for the JSON report");
    flags.parse(argc, argv);

    size_t iters = static_cast<size_t>(flags.getInt("iters"));
    size_t m = static_cast<size_t>(flags.getInt("m"));
    size_t k = static_cast<size_t>(flags.getInt("k"));
    size_t n = static_cast<size_t>(flags.getInt("n"));
    common::Rng rng(static_cast<uint64_t>(flags.getInt("seed")));

    // --- Kernel A/B at supernet shapes (full active masks: the worst
    // case for the reference kernel's zero-skip, the common case for a
    // configured candidate).
    nn::Tensor a = randomTensor(m, k, rng);
    nn::Tensor b = randomTensor(k, n, rng);
    nn::Tensor bt = randomTensor(k, n, rng); // used transposed: C = A * B^T
    nn::Tensor c(m, n), ct(k, n), cb(m, k);

    // Both sides of the reference/library A/B run on one thread, inside a
    // one-worker pool task.
    exec::ThreadPool inline_pool(1);
    double mm_flops = 2.0 * double(m) * double(k) * double(n);
    KernelScore matmul, transa, transb;
    inline_pool.submit([&] {
        matmul.referenceGflops = gflops(iters, mm_flops, [&] {
            nn::reference::matmulMasked(a, b, c, k, n);
        });
        matmul.tiledGflops = gflops(iters, mm_flops, [&] {
            nn::matmulMasked(a, b, c, k, n);
        });
        ct.zero();
        transa.referenceGflops = gflops(iters, mm_flops, [&] {
            nn::reference::matmulTransAMasked(a, c, ct, k, n);
        });
        ct.zero();
        transa.tiledGflops = gflops(iters, mm_flops, [&] {
            nn::matmulTransAMasked(a, c, ct, k, n);
        });
        transb.referenceGflops = gflops(iters, mm_flops, [&] {
            nn::reference::matmulTransBMasked(c, bt, cb, n, k);
        });
        transb.tiledGflops = gflops(iters, mm_flops, [&] {
            nn::matmulTransBMasked(c, bt, cb, n, k);
        });
    }).get();

    // --- Baseline vs selected ISA, one thread: the perf model's layer
    // shapes, the supernet shape above and a flagship top-MLP layer
    // (batch 64).
    std::vector<IsaScore> isa_scores;
    scoreIsa("perfmodel_l1", 256, 87, 128, iters, inline_pool, rng,
             isa_scores);
    scoreIsa("perfmodel_l2", 256, 128, 128, iters, inline_pool, rng,
             isa_scores);
    scoreIsa("perfmodel_head", 256, 128, 2, iters, inline_pool, rng,
             isa_scores);
    scoreIsa("supernet", m, k, n, iters, inline_pool, rng, isa_scores);
    scoreIsa("supernet_top", 64, 128, 64, iters, inline_pool, rng,
             isa_scores);
    bool all_equal = true;
    for (const IsaScore &s : isa_scores)
        all_equal = all_equal && s.bitwiseEqual;

    // --- Inline vs parallel library kernels: the perf model's layer
    // shapes (batch 256, 87 encoded features, hidden width 128), its
    // 128 -> 2 head and the supernet shape above.
    std::vector<ParallelScore> parallel;
    scoreParallel("perfmodel_l1", 256, 87, 128, iters, inline_pool, rng,
                  parallel);
    scoreParallel("perfmodel_l2", 256, 128, 128, iters, inline_pool, rng,
                  parallel);
    scoreParallel("perfmodel_head", 256, 128, 2, iters, inline_pool, rng,
                  parallel);
    scoreParallel("supernet", m, k, n, iters, inline_pool, rng, parallel);
    for (const ParallelScore &s : parallel)
        all_equal = all_equal && s.bitwiseEqual;

    // --- Allocations per training step: an MLP forward/backward at the
    // same shapes, first step (buffers grown) vs steady state (reused).
    nn::Mlp mlp({k, n, n, 1}, nn::Activation::ReLU,
                nn::Activation::Identity, rng);
    nn::Tensor x = randomTensor(m, k, rng);
    nn::Tensor grad = randomTensor(m, 1, rng);
    // Whole-buffer zero fills ride along: redundant zeroing (clearing a
    // buffer every element of which is then overwritten) is wasted
    // bandwidth on the training hot path. Steady-state fills should be
    // limited to genuine accumulator resets.
    nn::resetTensorAllocCount();
    nn::resetTensorZeroFillCount();
    mlp.forward(x);
    mlp.backward(grad);
    size_t first_step_allocs = nn::tensorAllocCount();
    size_t first_step_zero_fills = nn::tensorZeroFillCount();
    nn::resetTensorAllocCount();
    nn::resetTensorZeroFillCount();
    for (size_t s = 0; s < 10; ++s) {
        mlp.forward(x);
        mlp.backward(grad);
    }
    size_t steady_allocs = nn::tensorAllocCount() / 10;
    size_t steady_zero_fills = nn::tensorZeroFillCount() / 10;

    // --- Allocations per batched supernet evaluation: the no-grad
    // packed pass reuses workspace scratch and staging buffers, so a
    // steady-state evaluateBatch over a fixed candidate list must not
    // allocate tensors at all.
    size_t eval_first_allocs = 0;
    size_t eval_steady_allocs = 0;
    {
        arch::DlrmArch small;
        small.numDenseFeatures = 4;
        small.tables = {{512, 8, 1.0}, {256, 8, 1.0}};
        small.bottomMlp = {{16, 0}};
        small.topMlp = {{32, 0}};
        small.globalBatch = 256;
        searchspace::DlrmSearchSpace eval_space(small);
        common::Rng net_rng = rng.fork(3);
        supernet::DlrmSupernet net(eval_space, {}, net_rng);
        std::vector<uint64_t> vocabs{512, 256};
        std::vector<double> avg_ids{1.0, 1.0};
        auto gen = std::make_unique<pipeline::TrafficGenerator>(
            pipeline::trafficConfigFor(4, vocabs, avg_ids), 77);
        pipeline::InMemoryPipeline pipe(std::move(gen), 32);
        auto lease = pipe.lease();
        std::vector<searchspace::Sample> cands;
        for (size_t i = 0; i < 8; ++i)
            cands.push_back(eval_space.decisions().uniformSample(rng));
        nn::resetTensorAllocCount();
        (void)net.evaluateBatch(cands, lease.batch());
        eval_first_allocs = nn::tensorAllocCount();
        nn::resetTensorAllocCount();
        for (size_t s = 0; s < 10; ++s)
            (void)net.evaluateBatch(cands, lease.batch());
        eval_steady_allocs = nn::tensorAllocCount() / 10;
        lease.markAlphaUse();
        nn::resetTensorAllocCount();
        nn::resetTensorZeroFillCount();
    }

    // --- SimCache hit rate on a repeat-heavy stream: a candidate pool
    // evaluated round-robin, as paired eval sets / converged policies do.
    searchspace::DlrmSearchSpace space(arch::baselineDlrm());
    bench::CachedDlrmTimer timer(hw::trainingPlatform(),
                                 hw::servingPlatform());
    size_t pool_size = 32;
    size_t evals = std::max<size_t>(iters, 64);
    std::vector<searchspace::Sample> pool;
    for (size_t i = 0; i < pool_size; ++i)
        pool.push_back(space.decisions().uniformSample(rng));
    auto sim_start = Clock::now();
    double checksum = 0.0;
    for (size_t i = 0; i < evals; ++i)
        checksum += timer.trainStepTime(space, pool[i % pool.size()]);
    double sim_sec = secondsSince(sim_start);
    sim::SimCacheStats cache = timer.cacheStats();

    // --- Supernet construction, inline vs split.
    const size_t reps = std::max<size_t>(3, iters / 20);
    std::vector<ConstructionScore> construction;
    construction.push_back(scoreConstruction("serve_small", serveSmallDlrm(),
                                             reps, inline_pool));
    construction.push_back(scoreConstruction("flagship", flagshipDlrm(),
                                             reps, inline_pool));

    // --- Sparse vs dense embedding SGD at each supernet's largest
    // physical table (1024-row vocabulary cap x the 2.0 vocab scale, at
    // the table's widest width); calls x batch as one serve job step
    // (4 candidates, pipeline batch 32) and one h2o_supernet step (16
    // shards, batch 64).
    std::vector<SparseSgdScore> sparse;
    sparse.push_back(scoreSparseSgd(
        "serve_small",
        2048,
        searchspace::DlrmSearchSpace(serveSmallDlrm()).maxEmbeddingWidth(0),
        4, 32, iters, rng));
    sparse.push_back(scoreSparseSgd(
        "flagship", 2048,
        searchspace::DlrmSearchSpace(flagshipDlrm()).maxEmbeddingWidth(0), 16,
        64, iters, rng));
    bool sparse_equal = true;
    for (const SparseSgdScore &sc : sparse)
        sparse_equal = sparse_equal && sc.bitwiseEqual;
    for (const ConstructionScore &sc : construction)
        all_equal = all_equal && sc.bitwiseEqual;

    // --- Data-parallel supernet train step, one lane vs nproc lanes.
    const size_t train_steps = std::max<size_t>(3, iters / 10);
    std::string one_lane_bytes, lanes_bytes;
    std::vector<TrainStepScore> train;
    train.push_back(scoreTrainStep(1, train_steps, one_lane_bytes));
    train.push_back(
        scoreTrainStep(common::parallelWidth(), train_steps, lanes_bytes));
    const bool train_equal = one_lane_bytes == lanes_bytes;
    all_equal = all_equal && train_equal;

    // --- Report.
    std::cout << "kernel GFLOP/s at (" << m << " x " << k << " x " << n
              << "), " << iters << " iters:\n";
    auto line = [](const char *name, const KernelScore &s) {
        std::cout << "  " << name << ": reference " << s.referenceGflops
                  << ", tiled " << s.tiledGflops << " (" << s.speedup()
                  << "x)\n";
    };
    line("matmulMasked", matmul);
    line("matmulTransAMasked", transa);
    line("matmulTransBMasked", transb);
    std::cout << "baseline vs selected ISA ("
              << nn::isa::selectedVariant().name
              << "), one thread, GFLOP/s:\n";
    for (const IsaScore &s : isa_scores)
        std::cout << "  " << s.shape << " " << s.kernel << ": baseline "
                  << s.baselineGflops << ", selected " << s.selectedGflops
                  << " (" << s.speedup() << "x)"
                  << (s.bitwiseEqual ? "" : " OUTPUTS DIFFER") << "\n";
    // nproc: the CPUs in this process's affinity mask, as nproc(1)
    // counts them — the width parallelFor splits to.
    std::cout << "library inline vs parallel (nproc "
              << common::parallelWidth() << "), GFLOP/s:\n";
    for (const ParallelScore &s : parallel)
        std::cout << "  " << s.shape << " " << s.kernel << ": inline "
                  << s.inlineGflops << ", parallel " << s.parallelGflops
                  << " (" << s.speedup() << "x)"
                  << (s.bitwiseEqual ? "" : " OUTPUTS DIFFER") << "\n";
    std::cout << "allocs/step: first " << first_step_allocs
              << ", steady-state " << steady_allocs << "\n";
    std::cout << "zero-fills/step: first " << first_step_zero_fills
              << ", steady-state " << steady_zero_fills << "\n";
    std::cout << "allocs/evaluateBatch: first " << eval_first_allocs
              << ", steady-state " << eval_steady_allocs
              << (eval_steady_allocs == 0 ? "" : " (REGRESSION)") << "\n";
    std::cout << "sim cache: " << cache.hits << " hits / " << cache.misses
              << " misses (hit rate " << cache.hitRate() << ") over "
              << evals << " evals in " << sim_sec
              << " s (checksum " << checksum << ")\n";
    std::cout << "supernet construction, median of " << reps
              << " builds (ms):\n";
    for (const ConstructionScore &sc : construction)
        std::cout << "  " << sc.arch << " (" << sc.weights
                  << " weights): inline " << sc.inlineMs << ", parallel "
                  << sc.parallelMs << " (" << sc.speedup() << "x)"
                  << (sc.bitwiseEqual ? "" : " WEIGHTS DIFFER") << "\n";
    std::cout << "embedding train step, sparse slots vs dense (us):\n";
    for (const SparseSgdScore &sc : sparse)
        std::cout << "  " << sc.table << " " << sc.vocab << "x" << sc.width
                  << ", " << sc.calls << " x " << sc.batch << " ids, "
                  << sc.touchedRows << " rows touched: sparse "
                  << sc.sparseUs << ", dense " << sc.denseUs << " ("
                  << sc.speedup() << "x)"
                  << (sc.bitwiseEqual ? "" : " WEIGHTS DIFFER") << "\n";

    std::cout << "supernet train step (flagship, 16 shards x 64), median of "
              << train_steps << " steps (ms):";
    for (const TrainStepScore &sc : train)
        std::cout << " " << sc.lanes << " lane(s) " << sc.ms << ";";
    std::cout << (train_equal ? "" : " WEIGHTS DIFFER") << "\n";

    std::string json_path = flags.getString("json");
    std::ofstream js(json_path);
    if (!js) {
        std::cerr << "cannot open " << json_path << "\n";
        return 1;
    }
    js << "{\n"
       << "  \"nproc\": " << common::parallelWidth() << ",\n"
       << "  \"isa\": \"" << nn::isa::selectedVariant().name << "\",\n"
       << "  \"shape\": {\"m\": " << m << ", \"k\": " << k << ", \"n\": "
       << n << "},\n"
       << "  \"iters\": " << iters << ",\n"
       << "  \"gflops\": {\n"
       << "    \"matmul_masked\": {\"reference\": " << matmul.referenceGflops
       << ", \"tiled\": " << matmul.tiledGflops << ", \"speedup\": "
       << matmul.speedup() << "},\n"
       << "    \"matmul_transa_masked\": {\"reference\": "
       << transa.referenceGflops << ", \"tiled\": " << transa.tiledGflops
       << ", \"speedup\": " << transa.speedup() << "},\n"
       << "    \"matmul_transb_masked\": {\"reference\": "
       << transb.referenceGflops << ", \"tiled\": " << transb.tiledGflops
       << ", \"speedup\": " << transb.speedup() << "}\n"
       << "  },\n"
       << "  \"baseline_vs_selected_isa\": [\n";
    for (size_t i = 0; i < isa_scores.size(); ++i) {
        const IsaScore &s = isa_scores[i];
        js << "    {\"shape\": \"" << s.shape << "\", \"kernel\": \""
           << s.kernel << "\", \"baseline_gflops\": " << s.baselineGflops
           << ", \"selected_gflops\": " << s.selectedGflops
           << ", \"speedup\": " << s.speedup() << ", \"bitwise_equal\": "
           << (s.bitwiseEqual ? "true" : "false") << "}"
           << (i + 1 < isa_scores.size() ? "," : "") << "\n";
    }
    js << "  ],\n"
       << "  \"inline_vs_parallel\": [\n";
    for (size_t i = 0; i < parallel.size(); ++i) {
        const ParallelScore &s = parallel[i];
        js << "    {\"shape\": \"" << s.shape << "\", \"kernel\": \""
           << s.kernel << "\", \"inline_gflops\": " << s.inlineGflops
           << ", \"parallel_gflops\": " << s.parallelGflops
           << ", \"speedup\": " << s.speedup() << ", \"bitwise_equal\": "
           << (s.bitwiseEqual ? "true" : "false") << "}"
           << (i + 1 < parallel.size() ? "," : "") << "\n";
    }
    js << "  ],\n"
       << "  \"allocs_per_step\": {\"first\": " << first_step_allocs
       << ", \"steady\": " << steady_allocs << "},\n"
       << "  \"zero_fills_per_step\": {\"first\": " << first_step_zero_fills
       << ", \"steady\": " << steady_zero_fills << "},\n"
       << "  \"allocs_per_evaluate_batch\": {\"first\": "
       << eval_first_allocs << ", \"steady\": " << eval_steady_allocs
       << "},\n"
       << "  \"sim_cache\": {\"hits\": " << cache.hits << ", \"misses\": "
       << cache.misses << ", \"evictions\": " << cache.evictions
       << ", \"hit_rate\": " << cache.hitRate() << "},\n"
       << "  \"supernet_construction_ms\": [\n";
    for (size_t i = 0; i < construction.size(); ++i) {
        const ConstructionScore &sc = construction[i];
        js << "    {\"arch\": \"" << sc.arch << "\", \"weights\": "
           << sc.weights << ", \"inline\": " << sc.inlineMs
           << ", \"parallel\": " << sc.parallelMs << ", \"speedup\": "
           << sc.speedup() << ", \"bitwise_equal\": "
           << (sc.bitwiseEqual ? "true" : "false") << "}"
           << (i + 1 < construction.size() ? "," : "") << "\n";
    }
    js << "  ],\n"
       << "  \"embedding_sgd_step_us\": [\n";
    for (size_t i = 0; i < sparse.size(); ++i) {
        const SparseSgdScore &sc = sparse[i];
        js << "    {\"table\": \"" << sc.table << "\", \"vocab\": "
           << sc.vocab << ", \"width\": " << sc.width
           << ", \"calls\": " << sc.calls << ", \"batch\": " << sc.batch
           << ", \"touched_rows\": " << sc.touchedRows
           << ", \"sparse\": " << sc.sparseUs << ", \"dense\": "
           << sc.denseUs << ", \"speedup\": " << sc.speedup()
           << ", \"bitwise_equal\": "
           << (sc.bitwiseEqual ? "true" : "false") << "}"
           << (i + 1 < sparse.size() ? "," : "") << "\n";
    }
    js << "  ],\n"
       << "  \"supernet_train_step_ms\": {\"shards\": 16, \"batch\": 64, "
       << "\"steps\": " << train_steps << ", \"lanes\": [";
    for (size_t i = 0; i < train.size(); ++i)
        js << (i ? ", " : "") << "{\"lanes\": " << train[i].lanes
           << ", \"ms\": " << train[i].ms << "}";
    js << "], \"bitwise_equal\": " << (train_equal ? "true" : "false")
       << "}\n"
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
    // The batched eval path's zero-alloc contract is load-bearing for
    // the quality stage's throughput, every ISA build of a kernel must
    // match the baseline one, a split kernel, supernet build or train
    // step must match its inline / one-lane run bit for bit, and
    // sparse embedding SGD must match the dense update — fail the smoke
    // when any breaks.
    return eval_steady_allocs == 0 && all_equal && sparse_equal ? 0 : 1;
}
