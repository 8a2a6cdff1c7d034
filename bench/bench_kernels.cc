/**
 * @file
 * Hot-path micro-benchmark: A/B of the reference (naive scalar) vs tiled
 * matmul kernels at super-network shapes, the tiled kernels run inline
 * vs split across threads (common::parallelFor), steady-state
 * allocations per training step, and the SimCache hit rate on a
 * repeat-heavy evaluation stream. Emits machine-readable JSON
 * (BENCH_kernels.json, with the host's nproc) so perf regressions are
 * diffable across commits; registered as a ctest smoke with a tiny
 * iteration count.
 *
 * Reported metrics:
 *  - GFLOP/s per masked kernel (matmul / transA / transB), reference vs
 *    tiled, at the DLRM supernet's bottom-MLP shape, both on one thread;
 *  - GFLOP/s per tiled kernel inline (called from a one-worker
 *    exec::ThreadPool task, where kernels never split) vs parallel
 *    (called from the main thread), at the perf model's two layer
 *    shapes (256 x 87 x 128, 256 x 128 x 128) and the supernet shape.
 *    The bench exits non-zero unless both outputs are bitwise equal;
 *  - tensor allocations on the first (warm-up) supernet-style training
 *    step vs a steady-state step (target: 0);
 *  - tensor allocations per steady-state DlrmSupernet::evaluateBatch
 *    call (the batched quality stage's no-grad path; target 0, and the
 *    bench exits non-zero when it regresses);
 *  - SimCache hit/miss counters for a stream that revisits candidates.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "arch/dlrm_arch.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "nn/mlp.h"
#include "nn/ops.h"
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

/** One tiled kernel at one shape, inline vs split across threads. */
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
 * Score the three tiled kernels at (m x k x n). The inline side runs in
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
          [&] { nn::tiled::matmulMasked(a, b, c, k, n); });
    score("matmul_transa_masked", cw,
          [&] { nn::tiled::matmulTransAMasked(a, g, cw, k, n); });
    score("matmul_transb_masked", cx,
          [&] { nn::tiled::matmulTransBMasked(g, b, cx, n, k); });
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

    // Both sides of the reference/tiled A/B run on one thread, inside a
    // one-worker pool task.
    exec::ThreadPool inline_pool(1);
    double mm_flops = 2.0 * double(m) * double(k) * double(n);
    KernelScore matmul, transa, transb;
    inline_pool.submit([&] {
        matmul.referenceGflops = gflops(iters, mm_flops, [&] {
            nn::reference::matmulMasked(a, b, c, k, n);
        });
        matmul.tiledGflops = gflops(iters, mm_flops, [&] {
            nn::tiled::matmulMasked(a, b, c, k, n);
        });
        ct.zero();
        transa.referenceGflops = gflops(iters, mm_flops, [&] {
            nn::reference::matmulTransAMasked(a, c, ct, k, n);
        });
        ct.zero();
        transa.tiledGflops = gflops(iters, mm_flops, [&] {
            nn::tiled::matmulTransAMasked(a, c, ct, k, n);
        });
        transb.referenceGflops = gflops(iters, mm_flops, [&] {
            nn::reference::matmulTransBMasked(c, bt, cb, n, k);
        });
        transb.tiledGflops = gflops(iters, mm_flops, [&] {
            nn::tiled::matmulTransBMasked(c, bt, cb, n, k);
        });
    }).get();

    // --- Inline vs parallel tiled kernels: the perf model's layer
    // shapes (batch 256, 87 encoded features, hidden width 128) and the
    // supernet shape above.
    std::vector<ParallelScore> parallel;
    scoreParallel("perfmodel_l1", 256, 87, 128, iters, inline_pool, rng,
                  parallel);
    scoreParallel("perfmodel_l2", 256, 128, 128, iters, inline_pool, rng,
                  parallel);
    scoreParallel("supernet", m, k, n, iters, inline_pool, rng, parallel);
    bool all_equal = true;
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
    // nproc: the CPUs in this process's affinity mask, as nproc(1)
    // counts them — the width parallelFor splits to.
    std::cout << "tiled inline vs parallel (nproc "
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

    std::string json_path = flags.getString("json");
    std::ofstream js(json_path);
    if (!js) {
        std::cerr << "cannot open " << json_path << "\n";
        return 1;
    }
    js << "{\n"
       << "  \"nproc\": " << common::parallelWidth() << ",\n"
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
       << ", \"hit_rate\": " << cache.hitRate() << "}\n"
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
    // The batched eval path's zero-alloc contract is load-bearing for
    // the quality stage's throughput, and a split kernel must match its
    // inline run bit for bit — fail the smoke when either breaks.
    return eval_steady_allocs == 0 && all_equal ? 0 : 1;
}
