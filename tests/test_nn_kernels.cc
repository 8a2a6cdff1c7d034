/**
 * @file
 * A/B tests for the matmul kernels against the reference scalar
 * kernels, plus the determinism contract: results are bitwise equal to
 * the reference, the same bits on every ISA variant the host supports,
 * reproducible run-to-run, bit-identical across exec thread counts, and
 * bit-identical whether a kernel splits across CPUs or runs inline.
 */

#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "exec/shard_runner.h"
#include "exec/thread_pool.h"
#include "nn/activation.h"
#include "nn/matmul_kernel.h"
#include "nn/ops.h"
#include "nn/tensor.h"

using namespace h2o;

namespace {

nn::Tensor
randomTensor(size_t rows, size_t cols, common::Rng &rng,
             double zero_prob = 0.0)
{
    nn::Tensor t(rows, cols);
    for (size_t i = 0; i < t.size(); ++i) {
        if (zero_prob > 0.0 && rng.uniform() < zero_prob)
            t[i] = 0.0f;
        else
            t[i] = static_cast<float>(rng.normal());
    }
    return t;
}

void
expectBitIdentical(const nn::Tensor &a, const nn::Tensor &b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                             a.size() * sizeof(float)));
}

struct Shape
{
    size_t m, k, n, k_act, n_act;
};

std::vector<Shape>
randomShapes(common::Rng &rng, size_t count)
{
    std::vector<Shape> shapes;
    // Fixed corner cases: single element, sub-tile, exact tile multiples,
    // and ragged remainders around the 4-row tiles and the vector widths
    // (4, 8 and 16 floats).
    shapes.push_back({1, 1, 1, 1, 1});
    shapes.push_back({3, 5, 7, 2, 4});
    shapes.push_back({4, 16, 64, 16, 64});
    shapes.push_back({8, 32, 128, 32, 128});
    shapes.push_back({5, 17, 65, 13, 33});
    shapes.push_back({9, 64, 192, 50, 130});
    // A contraction wider than matmulTransBMasked's staging panel.
    shapes.push_back({3, 5, 16400, 4, 16390});
    for (size_t i = 0; i < count; ++i) {
        size_t m = static_cast<size_t>(rng.uniformInt(1, 40));
        size_t k = static_cast<size_t>(rng.uniformInt(1, 96));
        size_t n = static_cast<size_t>(rng.uniformInt(1, 160));
        size_t k_act = static_cast<size_t>(
            rng.uniformInt(1, static_cast<int64_t>(k)));
        size_t n_act = static_cast<size_t>(
            rng.uniformInt(1, static_cast<int64_t>(n)));
        shapes.push_back({m, k, n, k_act, n_act});
    }
    return shapes;
}

} // namespace

TEST(NnKernels, TiledMatmulMaskedMatchesReference)
{
    common::Rng rng(1234);
    for (const Shape &s : randomShapes(rng, 24)) {
        // Masked-weight sparsity exercises the reference kernel's
        // zero-skip path against the micro-kernel's dense path.
        nn::Tensor a = randomTensor(s.m, s.k, rng, 0.3);
        nn::Tensor b = randomTensor(s.k, s.n, rng, 0.3);
        for (bool accumulate : {false, true}) {
            nn::Tensor c_ref = randomTensor(s.m, s.n, rng);
            nn::Tensor c_tiled = c_ref; // same starting contents
            nn::reference::matmulMasked(a, b, c_ref, s.k_act, s.n_act,
                                        accumulate);
            nn::matmulMasked(a, b, c_tiled, s.k_act, s.n_act, accumulate);
            expectBitIdentical(c_tiled, c_ref);
        }
    }
}

TEST(NnKernels, TiledMatmulTransAMaskedMatchesReference)
{
    common::Rng rng(2345);
    for (const Shape &s : randomShapes(rng, 24)) {
        nn::Tensor a = randomTensor(s.m, s.k, rng, 0.3); // A[m,k]
        nn::Tensor b = randomTensor(s.m, s.n, rng, 0.3); // B[m,n]
        nn::Tensor c_ref = randomTensor(s.k, s.n, rng);  // C[k,n] +=
        nn::Tensor c_tiled = c_ref;
        nn::reference::matmulTransAMasked(a, b, c_ref, s.k_act, s.n_act);
        nn::matmulTransAMasked(a, b, c_tiled, s.k_act, s.n_act);
        expectBitIdentical(c_tiled, c_ref);
    }
}

TEST(NnKernels, TiledMatmulTransBMaskedMatchesReference)
{
    common::Rng rng(3456);
    for (const Shape &s : randomShapes(rng, 24)) {
        nn::Tensor a = randomTensor(s.m, s.n, rng, 0.3); // A[m,n]
        nn::Tensor b = randomTensor(s.k, s.n, rng, 0.3); // B[k,n], used ^T
        for (bool accumulate : {false, true}) {
            nn::Tensor c_ref = randomTensor(s.m, s.k, rng);
            nn::Tensor c_tiled = c_ref;
            nn::reference::matmulTransBMasked(a, b, c_ref, s.n_act,
                                              s.k_act, accumulate);
            nn::matmulTransBMasked(a, b, c_tiled, s.n_act, s.k_act,
                                   accumulate);
            expectBitIdentical(c_tiled, c_ref);
        }
    }
}

// The ISA contract: every micro-kernel build this host can run gives
// the baseline build's bits, for all three masked matmuls and both
// accumulate modes — on the random shapes, the perf model's layers and
// its 128 -> 2 head, and the supernet's MLP shapes.
TEST(NnKernels, EveryIsaVariantIsBitwiseEqual)
{
    const auto variants = nn::isa::supportedVariants();
    ASSERT_FALSE(variants.empty());
    EXPECT_STREQ(variants.front().name, "baseline");
    EXPECT_EQ(&nn::isa::selectedVariant(), &variants.back());

    common::Rng rng(6789);
    std::vector<Shape> shapes = randomShapes(rng, 24);
    const Shape fixed[] = {
        {256, 87, 128, 87, 128},   // perf model layer 1
        {256, 128, 128, 128, 128}, // perf model layer 2
        {256, 128, 2, 128, 2},     // perf model head
        {63, 87, 50, 87, 50},
        {64, 100, 13, 100, 13},
        {256, 512, 256, 512, 256}, // supernet bottom MLP (bench shape)
        {64, 8, 64, 8, 64},        // flagship bottom MLP, batch 64
        {64, 64, 32, 64, 32},
        {64, 168, 128, 150, 96},   // a masked top-MLP layer
        {64, 64, 1, 64, 1},        // logit
    };
    shapes.insert(shapes.end(), std::begin(fixed), std::end(fixed));

    const nn::isa::Variant &base = variants.front();
    for (const nn::isa::Variant &v : variants) {
        SCOPED_TRACE(v.name);
        for (const Shape &s : shapes) {
            SCOPED_TRACE("m=" + std::to_string(s.m) + " k_act=" +
                         std::to_string(s.k_act) + " n_act=" +
                         std::to_string(s.n_act));
            nn::Tensor a = randomTensor(s.m, s.k, rng, 0.1);
            nn::Tensor b = randomTensor(s.k, s.n, rng);
            nn::Tensor g = randomTensor(s.m, s.n, rng);
            for (bool accumulate : {false, true}) {
                nn::Tensor c0 = randomTensor(s.m, s.n, rng);
                nn::Tensor c1 = c0;
                nn::isa::matmulMasked(base, a, b, c0, s.k_act, s.n_act,
                                      accumulate);
                nn::isa::matmulMasked(v, a, b, c1, s.k_act, s.n_act,
                                      accumulate);
                expectBitIdentical(c1, c0);

                nn::Tensor x0 = randomTensor(s.m, s.k, rng);
                nn::Tensor x1 = x0;
                nn::isa::matmulTransBMasked(base, g, b, x0, s.n_act,
                                            s.k_act, accumulate);
                nn::isa::matmulTransBMasked(v, g, b, x1, s.n_act, s.k_act,
                                            accumulate);
                expectBitIdentical(x1, x0);
            }
            nn::Tensor w0 = randomTensor(s.k, s.n, rng);
            nn::Tensor w1 = w0;
            nn::isa::matmulTransAMasked(base, a, g, w0.data().data(),
                                        s.n, s.k_act, s.n_act);
            nn::isa::matmulTransAMasked(v, a, g, w1.data().data(), s.n,
                                        s.k_act, s.n_act);
            expectBitIdentical(w1, w0);
        }
    }
}

TEST(NnKernels, TransBOverwriteIgnoresStaleContents)
{
    // The accumulate=false default must make the result independent of
    // whatever garbage C held — the uninitialized-C footgun the explicit
    // flag removed.
    common::Rng rng(4567);
    nn::Tensor a = randomTensor(6, 20, rng);
    nn::Tensor b = randomTensor(12, 20, rng);
    nn::Tensor c1(6, 12), c2(6, 12);
    for (size_t i = 0; i < c1.size(); ++i)
        c1[i] = 1e30f;
    c2.zero();
    nn::matmulTransBMasked(a, b, c1, 20, 12);
    nn::matmulTransBMasked(a, b, c2, 20, 12);
    expectBitIdentical(c1, c2);
}

TEST(NnKernels, TiledIsBitwiseDeterministicRunToRun)
{
    common::Rng rng(5678);
    nn::Tensor a = randomTensor(16, 48, rng);
    nn::Tensor b = randomTensor(48, 96, rng);
    nn::Tensor c1(16, 96), c2(16, 96);
    nn::matmulMasked(a, b, c1, 48, 96);
    nn::matmulMasked(a, b, c2, 48, 96);
    expectBitIdentical(c1, c2);
}

// The cross-thread contract: kernels called from pool workers run inline,
// and shared-state updates run on the caller after the step, over the
// survivors in shard-index order. A sharded compute + ordered-aggregate
// step must therefore produce bit-identical results at any pool width.
TEST(NnKernels, TiledBitIdenticalAcross1_2_8ExecThreads)
{
    constexpr size_t kShards = 8;
    common::Rng rng(7890);
    std::vector<nn::Tensor> as, bs;
    for (size_t s = 0; s < kShards; ++s) {
        as.push_back(randomTensor(12, 40, rng));
        bs.push_back(randomTensor(40, 72, rng));
    }

    auto run_with_threads = [&](size_t threads) {
        exec::ThreadPool pool(threads);
        exec::ShardRunner runner(pool, {kShards, 1, 0.1});
        std::vector<nn::Tensor> outs(kShards);
        auto report = runner.runStep(0, [&](size_t shard) {
            nn::Tensor &c = outs[shard];
            c = nn::Tensor(12, 72);
            nn::matmulMasked(as[shard], bs[shard], c, 40, 72);
        });
        EXPECT_EQ(report.numOk(), kShards);
        // Shared-state aggregation in strict shard order, on the caller.
        nn::Tensor accum(12, 72);
        accum.zero();
        for (size_t shard : report.survivors())
            nn::axpy(1.0f / kShards, outs[shard], accum);
        return accum;
    };

    nn::Tensor t1 = run_with_threads(1);
    nn::Tensor t2 = run_with_threads(2);
    nn::Tensor t8 = run_with_threads(8);
    expectBitIdentical(t1, t2);
    expectBitIdentical(t1, t8);
}

// ------------------------------------------ intra-op parallel kernels

namespace {

/** Run fn as a task of a one-worker pool. Pool workers never split a
 *  kernel, so this is the inline run of the same call. */
template <typename Fn>
void
runInline(Fn &&fn)
{
    exec::ThreadPool pool(1);
    pool.submit(std::forward<Fn>(fn)).get();
}

/** A kernel call on fresh copies of `init`: inline in a pool task vs
 *  split on this thread; both outputs, whole tensors, must match. */
template <typename Call>
void
expectSplitMatchesInline(const nn::Tensor &init, Call &&call)
{
    nn::Tensor inline_out = init;
    nn::Tensor split_out = init;
    runInline([&] { call(inline_out); });
    call(split_out);
    expectBitIdentical(inline_out, split_out);
}

} // namespace

// The intra-op contract: the three masked matmuls split their output
// rows only on register-tile boundaries, so every element is computed
// by the same micro-kernel in the same order as in one serial pass. The
// shapes are off the 4-row and 64-column tiles, the masked widths sit
// below the tensor dimensions (untouched elements must stay untouched),
// and both accumulate modes run on random prior contents.
TEST(NnKernels, ParallelSplitBitIdenticalToInline)
{
    struct Case
    {
        size_t m, kDim, nDim, kAct, nAct;
    };
    const Case cases[] = {
        {257, 90, 131, 87, 129}, // perf-model layer 1, odd batch
        {256, 128, 128, 128, 128},
        {130, 67, 70, 66, 65},
        {6, 130, 140, 129, 127}, // two row tiles, ragged last
        {1023, 33, 200, 31, 199},
    };
    common::Rng rng(4242);
    const size_t splits_before = common::parallelSplitCount();
    for (const Case &c : cases) {
        SCOPED_TRACE("m=" + std::to_string(c.m) + " k_act=" +
                     std::to_string(c.kAct) + " n_act=" +
                     std::to_string(c.nAct));
        nn::Tensor a = randomTensor(c.m, c.kDim, rng, 0.1);
        nn::Tensor b = randomTensor(c.kDim, c.nDim, rng);
        nn::Tensor g = randomTensor(c.m, c.nDim, rng);
        nn::Tensor bt = randomTensor(c.kDim, c.nDim, rng);
        for (bool accumulate : {false, true}) {
            expectSplitMatchesInline(
                randomTensor(c.m, c.nDim, rng), [&](nn::Tensor &out) {
                    nn::matmulMasked(a, b, out, c.kAct, c.nAct,
                                     accumulate);
                });
            expectSplitMatchesInline(
                randomTensor(c.m, c.kDim, rng), [&](nn::Tensor &out) {
                    nn::matmulTransBMasked(g, bt, out, c.nAct, c.kAct,
                                           accumulate);
                });
        }
        // C[k, j] += sum_i A[i, k] B[i, j] always accumulates.
        expectSplitMatchesInline(
            randomTensor(c.kDim, c.nDim, rng), [&](nn::Tensor &out) {
                nn::matmulTransAMasked(a, g, out, c.kAct, c.nAct);
            });
    }
    if (common::parallelWidth() > 1) {
        EXPECT_GT(common::parallelSplitCount(), splits_before)
            << "no kernel call split: the test compared inline to inline";
    }
}

// ----------------------------------------------- grouped-mask kernels

namespace {

/** Random packed layout: groups of `batch` rows with random active
 *  dims, covering [0, n_groups * batch) of a [n_groups * batch, max_w]
 *  tensor against a shared [max_k, max_w] weight matrix. */
std::vector<nn::MaskGroup>
randomGroups(common::Rng &rng, size_t n_groups, size_t batch,
             size_t max_k, size_t max_n)
{
    std::vector<nn::MaskGroup> groups;
    for (size_t g = 0; g < n_groups; ++g)
        groups.push_back(
            {g * batch, batch,
             static_cast<size_t>(
                 rng.uniformInt(1, static_cast<int64_t>(max_k))),
             static_cast<size_t>(
                 rng.uniformInt(1, static_cast<int64_t>(max_n)))});
    return groups;
}

/** Copy group g's rows of `packed` into a standalone tensor. */
nn::Tensor
sliceGroup(const nn::Tensor &packed, const nn::MaskGroup &g)
{
    nn::Tensor t(g.rows, packed.cols());
    std::memcpy(t.data().data(),
                packed.data().data() + g.rowBegin * packed.cols(),
                g.rows * packed.cols() * sizeof(float));
    return t;
}

} // namespace

// The batched-quality-stage contract: one grouped call over a packed
// [n_cand * batch, w] tensor is bitwise identical to per-candidate
// masked calls on each candidate's own slice, for the library kernels
// and the reference.
TEST(NnKernels, GroupedMatmulMatchesPerCandidateBitwise)
{
    common::Rng rng(8901);
    constexpr size_t kGroups = 5, kBatch = 7, kMaxK = 48, kMaxN = 80;
    auto groups = randomGroups(rng, kGroups, kBatch, kMaxK, kMaxN);
    nn::Tensor a = randomTensor(kGroups * kBatch, kMaxK, rng);
    nn::Tensor b = randomTensor(kMaxK, kMaxN, rng, 0.3);

    for (int impl = 0; impl < 2; ++impl) {
        auto grouped = impl == 0 ? nn::matmulMaskedGrouped
                                 : nn::reference::matmulMaskedGrouped;
        auto single =
            impl == 0 ? nn::matmulMasked : nn::reference::matmulMasked;
        for (bool accumulate : {false, true}) {
            nn::Tensor c = randomTensor(kGroups * kBatch, kMaxN, rng);
            nn::Tensor c_grouped = c;
            grouped(a, b, c_grouped, groups, accumulate);
            for (const auto &g : groups) {
                nn::Tensor a_g = sliceGroup(a, g);
                nn::Tensor c_g = sliceGroup(c, g);
                single(a_g, b, c_g, g.kAct, g.nAct, accumulate);
                nn::Tensor got = sliceGroup(c_grouped, g);
                expectBitIdentical(got, c_g);
            }
        }
    }
}

TEST(NnKernels, GroupedAddBiasMatchesPerCandidateBitwise)
{
    common::Rng rng(9012);
    constexpr size_t kGroups = 4, kBatch = 6, kMaxN = 72;
    auto groups = randomGroups(rng, kGroups, kBatch, kMaxN, kMaxN);
    nn::Tensor bias = randomTensor(1, kMaxN, rng);
    nn::Tensor x = randomTensor(kGroups * kBatch, kMaxN, rng);
    nn::Tensor x_grouped = x;
    nn::addBiasGrouped(x_grouped, bias, groups);
    for (const auto &g : groups) {
        nn::Tensor x_g = sliceGroup(x, g);
        nn::addBias(x_g, bias, g.nAct);
        nn::Tensor got = sliceGroup(x_grouped, g);
        expectBitIdentical(got, x_g);
    }
}

TEST(NnKernels, ActivateTensorRowsMatchesFullActivation)
{
    common::Rng rng(1122);
    constexpr size_t kGroups = 4, kBatch = 5, kW = 33;
    auto groups = randomGroups(rng, kGroups, kBatch, kW, kW);
    for (nn::Activation act :
         {nn::Activation::ReLU, nn::Activation::Swish,
          nn::Activation::GeLU, nn::Activation::SquaredReLU}) {
        nn::Tensor pre = randomTensor(kGroups * kBatch, kW, rng);
        nn::Tensor out = pre;
        for (const auto &g : groups)
            nn::activateTensorRows(act, out, out, g.rowBegin, g.rows,
                                   g.nAct);
        for (const auto &g : groups) {
            nn::Tensor pre_g = sliceGroup(pre, g);
            nn::Tensor act_g(pre_g.rows(), pre_g.cols());
            nn::activateTensor(act, pre_g, act_g);
            nn::Tensor got = sliceGroup(out, g);
            for (size_t r = 0; r < g.rows; ++r)
                for (size_t c = 0; c < g.nAct; ++c)
                    EXPECT_EQ(got.at(r, c), act_g.at(r, c))
                        << "row " << r << " col " << c;
            // Columns past nAct must be untouched pre-activations.
            for (size_t r = 0; r < g.rows; ++r)
                for (size_t c = g.nAct; c < kW; ++c)
                    EXPECT_EQ(got.at(r, c), pre_g.at(r, c));
        }
    }
}

// --------------------------------------------------- embedding kernels

namespace {

/** Random CSR id staging: per-example id counts in [0, max_ids], some
 *  examples empty. Mirrors EmbeddingTable::stage(). */
struct CsrIds
{
    std::vector<uint32_t> rows;
    std::vector<size_t> offsets;
    std::vector<float> inv;
};

CsrIds
randomIds(common::Rng &rng, size_t batch, size_t vocab, size_t max_ids)
{
    CsrIds ids;
    ids.offsets.push_back(0);
    for (size_t i = 0; i < batch; ++i) {
        size_t count = static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(max_ids)));
        for (size_t p = 0; p < count; ++p)
            ids.rows.push_back(static_cast<uint32_t>(
                rng.uniformInt(0, static_cast<int64_t>(vocab) - 1)));
        ids.offsets.push_back(ids.rows.size());
        ids.inv.push_back(count == 0 ? 0.0f : 1.0f / double(count));
    }
    return ids;
}

/** Scalar oracle replicating the historical per-row gather loop. */
void
oracleGather(const nn::Tensor &table, const CsrIds &ids, nn::Tensor &out,
             size_t width)
{
    for (size_t i = 0; i + 1 < ids.offsets.size(); ++i) {
        for (size_t d = 0; d < width; ++d)
            out.at(i, d) = 0.0f;
        for (size_t p = ids.offsets[i]; p < ids.offsets[i + 1]; ++p)
            for (size_t d = 0; d < width; ++d)
                out.at(i, d) += ids.inv[i] * table.at(ids.rows[p], d);
    }
}

/** Scalar oracle for the matching scatter-add. */
void
oracleScatter(const nn::Tensor &grad_out, const CsrIds &ids,
              nn::Tensor &grad_table, size_t width)
{
    for (size_t i = 0; i + 1 < ids.offsets.size(); ++i)
        for (size_t p = ids.offsets[i]; p < ids.offsets[i + 1]; ++p)
            for (size_t d = 0; d < width; ++d)
                grad_table.at(ids.rows[p], d) +=
                    ids.inv[i] * grad_out.at(i, d);
}

} // namespace

// The embedding kernels keep per-element adds in id-list order from a
// zero accumulator, as the reference does — so the library kernel, the
// reference and the scalar oracle all agree bitwise, at full and
// truncated widths.
TEST(NnKernels, EmbeddingGatherBitwiseAcrossImplsAndOracle)
{
    common::Rng rng(2233);
    constexpr size_t kVocab = 64, kDim = 24, kBatch = 19;
    nn::Tensor table = randomTensor(kVocab, kDim, rng);
    CsrIds ids = randomIds(rng, kBatch, kVocab, 6);

    for (size_t width : {kDim, size_t{8}, size_t{1}}) {
        nn::Tensor o_ref(kBatch, width), o_tiled(kBatch, width),
            o_oracle(kBatch, width);
        nn::reference::embeddingGatherPooled(table, ids.rows, ids.offsets,
                                             ids.inv, o_ref, width);
        nn::embeddingGatherPooled(table, ids.rows, ids.offsets, ids.inv,
                                  o_tiled, width);
        oracleGather(table, ids, o_oracle, width);
        expectBitIdentical(o_tiled, o_ref);
        expectBitIdentical(o_tiled, o_oracle);
    }
}

TEST(NnKernels, EmbeddingScatterAddBitwiseAcrossImplsAndOracle)
{
    common::Rng rng(3344);
    constexpr size_t kVocab = 48, kDim = 16, kBatch = 17;
    CsrIds ids = randomIds(rng, kBatch, kVocab, 5);
    nn::Tensor grad_out = randomTensor(kBatch, kDim, rng);
    // Non-zero starting gradients: scatter-add accumulates.
    nn::Tensor g0 = randomTensor(kVocab, kDim, rng);

    for (size_t width : {kDim, size_t{7}}) {
        nn::Tensor g_ref = g0, g_tiled = g0, g_oracle = g0;
        nn::reference::embeddingScatterAdd(grad_out, ids.rows, ids.offsets,
                                           ids.inv, g_ref, width);
        nn::embeddingScatterAdd(grad_out, ids.rows, ids.offsets, ids.inv,
                                g_tiled, width);
        oracleScatter(grad_out, ids, g_oracle, width);
        expectBitIdentical(g_tiled, g_ref);
        expectBitIdentical(g_tiled, g_oracle);
    }
}

TEST(NnKernels, EmbeddingGatherZeroesEmptyExamples)
{
    common::Rng rng(4455);
    nn::Tensor table = randomTensor(8, 4, rng);
    // Three examples, all empty: output must be all-zero even when the
    // destination starts as garbage.
    CsrIds ids;
    ids.offsets = {0, 0, 0, 0};
    ids.inv = {0.0f, 0.0f, 0.0f};
    for (auto gather : {nn::reference::embeddingGatherPooled,
                        nn::embeddingGatherPooled}) {
        nn::Tensor out(3, 4);
        for (size_t i = 0; i < out.size(); ++i)
            out[i] = 1e30f;
        gather(table, ids.rows, ids.offsets, ids.inv, out, 4);
        for (size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], 0.0f) << "element " << i;
    }
}
