#include "nn/ops.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/logging.h"
#include "common/parallel.h"

namespace h2o::nn {

namespace {

/** Shape checks shared by every implementation of each kernel. */
void
checkMatmulMasked(const Tensor &a, const Tensor &b, const Tensor &c,
                  size_t k_act, size_t n_act)
{
    h2o_assert(k_act <= a.cols() && k_act <= b.rows(),
               "matmulMasked: k_act ", k_act, " exceeds A cols ", a.cols(),
               " or B rows ", b.rows());
    h2o_assert(n_act <= b.cols() && n_act <= c.cols(),
               "matmulMasked: n_act ", n_act, " exceeds B/C cols");
    h2o_assert(c.rows() == a.rows(), "matmulMasked: C rows mismatch");
}

/** `c_rows` x `c_cols` is the output's extent (a Tensor's shape, or a
 *  raw block's k_act x row stride). */
void
checkMatmulTransAMasked(const Tensor &a, const Tensor &b, size_t c_rows,
                        size_t c_cols, size_t k_act, size_t n_act)
{
    h2o_assert(b.rows() == a.rows(),
               "matmulTransAMasked: batch dim mismatch");
    h2o_assert(k_act <= a.cols() && k_act <= c_rows,
               "matmulTransAMasked: k_act out of range");
    h2o_assert(n_act <= b.cols() && n_act <= c_cols,
               "matmulTransAMasked: n_act out of range");
}

void
checkMatmulTransBMasked(const Tensor &a, const Tensor &b, const Tensor &c,
                        size_t n_act, size_t k_act)
{
    h2o_assert(n_act <= a.cols() && n_act <= b.cols(),
               "matmulTransBMasked: n_act out of range");
    h2o_assert(k_act <= b.rows() && k_act <= c.cols(),
               "matmulTransBMasked: k_act out of range");
    h2o_assert(c.rows() == a.rows(), "matmulTransBMasked: C rows mismatch");
}

void
checkGrouped(const Tensor &a, const Tensor &b, const Tensor &c,
             std::span<const MaskGroup> groups)
{
    h2o_assert(c.rows() == a.rows(), "matmulMaskedGrouped: C rows mismatch");
    for (const MaskGroup &g : groups) {
        h2o_assert(g.rowBegin + g.rows <= a.rows(),
                   "matmulMaskedGrouped: group rows [", g.rowBegin, ", ",
                   g.rowBegin + g.rows, ") exceed A rows ", a.rows());
        h2o_assert(g.kAct <= a.cols() && g.kAct <= b.rows(),
                   "matmulMaskedGrouped: kAct ", g.kAct, " out of range");
        h2o_assert(g.nAct <= b.cols() && g.nAct <= c.cols(),
                   "matmulMaskedGrouped: nAct ", g.nAct, " out of range");
    }
}

void
checkEmbedding(size_t table_cols, std::span<const uint32_t> rows,
               std::span<const size_t> offsets, std::span<const float> inv,
               size_t batch, size_t batch_width, size_t width)
{
    h2o_assert(offsets.size() == batch + 1,
               "embedding kernel: offsets size ", offsets.size(),
               " != batch + 1 (", batch + 1, ")");
    h2o_assert(inv.size() == batch, "embedding kernel: inv size mismatch");
    h2o_assert(offsets.empty() || offsets.back() <= rows.size(),
               "embedding kernel: offsets exceed rows");
    h2o_assert(width <= table_cols,
               "embedding kernel: width ", width, " exceeds table cols ",
               table_cols);
    h2o_assert(width <= batch_width,
               "embedding kernel: width exceeds batch tensor cols");
}

std::atomic<KernelImpl> g_impl{KernelImpl::Tiled};

/** One-time H2O_KERNELS env override, applied before first dispatch. */
bool
applyEnvOverride()
{
    if (const char *env = std::getenv("H2O_KERNELS"))
        g_impl.store(kernelImplFromName(env), std::memory_order_relaxed);
    return true;
}

} // namespace

void
setKernelImpl(KernelImpl impl)
{
    g_impl.store(impl, std::memory_order_relaxed);
}

KernelImpl
kernelImpl()
{
    static bool env_applied = applyEnvOverride();
    (void)env_applied;
    return g_impl.load(std::memory_order_relaxed);
}

KernelImpl
kernelImplFromName(const std::string &name)
{
    if (name == "tiled")
        return KernelImpl::Tiled;
    if (name == "reference")
        return KernelImpl::Reference;
    h2o_fatal("unknown kernel impl '", name, "' (want tiled|reference)");
}

const char *
kernelImplName(KernelImpl impl)
{
    return impl == KernelImpl::Tiled ? "tiled" : "reference";
}

// ---------------------------------------------------------------------------
// Reference kernels: the original scalar loops, kept as the A/B oracle.
// ---------------------------------------------------------------------------

namespace reference {

namespace {

/** The matmulMasked loops over an explicit row range — shared by the
 *  plain and grouped entry points so the two are bitwise identical. */
void
matmulMaskedRows(const Tensor &a, const Tensor &b, Tensor &c, size_t row0,
                 size_t rows, size_t k_act, size_t n_act, bool accumulate)
{
    const float *ad = a.data().data();
    const float *bd = b.data().data();
    float *cd = c.data().data();
    size_t ka = a.cols(), nb = b.cols(), nc = c.cols();

    for (size_t i = row0; i < row0 + rows; ++i) {
        float *crow = cd + i * nc;
        if (!accumulate) {
            for (size_t j = 0; j < n_act; ++j)
                crow[j] = 0.0f;
        }
        const float *arow = ad + i * ka;
        // ikj loop order: stream through B rows for cache locality.
        for (size_t k = 0; k < k_act; ++k) {
            float av = arow[k];
            if (av == 0.0f)
                continue;
            const float *brow = bd + k * nb;
            for (size_t j = 0; j < n_act; ++j)
                crow[j] += av * brow[j];
        }
    }
}

} // namespace

void
matmulMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
             size_t n_act, bool accumulate)
{
    checkMatmulMasked(a, b, c, k_act, n_act);
    matmulMaskedRows(a, b, c, 0, a.rows(), k_act, n_act, accumulate);
}

void
matmulMaskedGrouped(const Tensor &a, const Tensor &b, Tensor &c,
                    std::span<const MaskGroup> groups, bool accumulate)
{
    checkGrouped(a, b, c, groups);
    for (const MaskGroup &g : groups)
        matmulMaskedRows(a, b, c, g.rowBegin, g.rows, g.kAct, g.nAct,
                         accumulate);
}

void
embeddingGatherPooled(const Tensor &table, std::span<const uint32_t> rows,
                      std::span<const size_t> offsets,
                      std::span<const float> inv, Tensor &out, size_t width)
{
    checkEmbedding(table.cols(), rows, offsets, inv, out.rows(), out.cols(),
                   width);
    const float *td = table.data().data();
    float *od = out.data().data();
    size_t tw = table.cols(), ow = out.cols();
    for (size_t i = 0; i < out.rows(); ++i) {
        float *dst = od + i * ow;
        for (size_t d = 0; d < width; ++d)
            dst[d] = 0.0f;
        float w = inv[i];
        for (size_t p = offsets[i]; p < offsets[i + 1]; ++p) {
            const float *src = td + rows[p] * tw;
            for (size_t d = 0; d < width; ++d)
                dst[d] += w * src[d];
        }
    }
}

void
embeddingScatterAdd(const Tensor &grad_out, std::span<const uint32_t> rows,
                    std::span<const size_t> offsets,
                    std::span<const float> inv, Tensor &grad_table,
                    size_t width)
{
    checkEmbedding(grad_table.cols(), rows, offsets, inv, grad_out.rows(),
                   grad_out.cols(), width);
    reference::embeddingScatterAdd(
        grad_out.data().data(), grad_out.cols(), rows, offsets, inv,
        grad_table.data().data(), grad_table.cols(), width);
}

void
embeddingScatterAdd(const float *gd, size_t gw,
                    std::span<const uint32_t> rows,
                    std::span<const size_t> offsets,
                    std::span<const float> inv, float *td, size_t tw,
                    size_t width)
{
    checkEmbedding(tw, rows, offsets, inv, inv.size(), gw, width);
    for (size_t i = 0; i < inv.size(); ++i) {
        const float *src = gd + i * gw;
        float w = inv[i];
        for (size_t p = offsets[i]; p < offsets[i + 1]; ++p) {
            float *dst = td + rows[p] * tw;
            for (size_t d = 0; d < width; ++d)
                dst[d] += w * src[d];
        }
    }
}

void
matmulTransAMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
                   size_t n_act)
{
    checkMatmulTransAMasked(a, b, c.rows(), c.cols(), k_act, n_act);
    reference::matmulTransAMasked(a, b, c.data().data(), c.cols(), k_act,
                                  n_act);
}

void
matmulTransAMasked(const Tensor &a, const Tensor &b, float *cd, size_t nc,
                   size_t k_act, size_t n_act)
{
    checkMatmulTransAMasked(a, b, k_act, nc, k_act, n_act);
    size_t m = a.rows();
    const float *ad = a.data().data();
    const float *bd = b.data().data();
    size_t ka = a.cols(), nb = b.cols();

    for (size_t i = 0; i < m; ++i) {
        const float *arow = ad + i * ka;
        const float *brow = bd + i * nb;
        for (size_t k = 0; k < k_act; ++k) {
            float av = arow[k];
            if (av == 0.0f)
                continue;
            float *crow = cd + k * nc;
            for (size_t j = 0; j < n_act; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
matmulTransBMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t n_act,
                   size_t k_act, bool accumulate)
{
    checkMatmulTransBMasked(a, b, c, n_act, k_act);
    size_t m = a.rows();
    const float *ad = a.data().data();
    const float *bd = b.data().data();
    float *cd = c.data().data();
    size_t na = a.cols(), nb = b.cols(), kc = c.cols();

    for (size_t i = 0; i < m; ++i) {
        const float *arow = ad + i * na;
        float *crow = cd + i * kc;
        for (size_t k = 0; k < k_act; ++k) {
            const float *brow = bd + k * nb;
            float acc = 0.0f;
            for (size_t j = 0; j < n_act; ++j)
                acc += arow[j] * brow[j];
            if (accumulate)
                crow[k] += acc;
            else
                crow[k] = acc;
        }
    }
}

} // namespace reference

// ---------------------------------------------------------------------------
// Tiled kernels.
//
// The blocking schedule is a compile-time constant (kRowTile rows of the
// left operand per micro-kernel, kColTile output columns per block, k
// strictly ascending inside each block), so for a given shape every run —
// at any thread count — performs the identical sequence of FP operations
// per output element. That is the determinism contract: bit-identical
// repeats for the tiled impl, ~1e-5 agreement vs the reference impl
// (whose summation order differs).
//
// The three masked matmuls fork-join over output row tiles
// (common::parallelFor with align = kRowTile). A part boundary is always
// a tile boundary, so every row sits in the same tile — and runs the
// same micro-kernel — as in one serial pass: results are bitwise equal
// at any core count.
// ---------------------------------------------------------------------------

namespace tiled {

namespace {

/** Rows of the left operand processed together by a micro-kernel. */
constexpr size_t kRowTile = 4;
/** Output columns per register block; 64 floats = one cache-resident
 *  strip that still leaves room for kRowTile accumulator rows in L1. */
constexpr size_t kColTile = 64;

/** The tiled matmulMasked loops over an explicit row range. Row tiling
 *  restarts at row0, but per output element the contraction is k
 *  ascending regardless of tile position — so the grouped entry point
 *  is bitwise identical to per-candidate calls. */
void
matmulMaskedRows(const Tensor &a, const Tensor &b, Tensor &c, size_t row0,
                 size_t rows, size_t k_act, size_t n_act, bool accumulate)
{
    const float *ad = a.data().data();
    const float *bd = b.data().data();
    float *cd = c.data().data();
    size_t ka = a.cols(), nb = b.cols(), nc = c.cols();

    for (size_t i0 = row0; i0 < row0 + rows; i0 += kRowTile) {
        size_t rt = std::min(kRowTile, row0 + rows - i0);
        for (size_t j0 = 0; j0 < n_act; j0 += kColTile) {
            size_t jt = std::min(kColTile, n_act - j0);
            float acc[kRowTile][kColTile];
            for (size_t r = 0; r < rt; ++r) {
                float *crow = cd + (i0 + r) * nc + j0;
                if (accumulate) {
                    for (size_t j = 0; j < jt; ++j)
                        acc[r][j] = crow[j];
                } else {
                    for (size_t j = 0; j < jt; ++j)
                        acc[r][j] = 0.0f;
                }
            }
            // k ascending for every C element: fixed summation order.
            for (size_t k = 0; k < k_act; ++k) {
                const float *brow = bd + k * nb + j0;
                for (size_t r = 0; r < rt; ++r) {
                    float av = ad[(i0 + r) * ka + k];
                    float *arow = acc[r];
#pragma omp simd
                    for (size_t j = 0; j < jt; ++j)
                        arow[j] += av * brow[j];
                }
            }
            for (size_t r = 0; r < rt; ++r) {
                float *crow = cd + (i0 + r) * nc + j0;
                for (size_t j = 0; j < jt; ++j)
                    crow[j] = acc[r][j];
            }
        }
    }
}

} // namespace

void
matmulMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
             size_t n_act, bool accumulate)
{
    checkMatmulMasked(a, b, c, k_act, n_act);
    common::parallelFor(a.rows(), kRowTile, a.rows() * k_act * n_act,
                        [&](size_t i0, size_t i1) {
                            matmulMaskedRows(a, b, c, i0, i1 - i0, k_act,
                                             n_act, accumulate);
                        });
}

void
matmulMaskedGrouped(const Tensor &a, const Tensor &b, Tensor &c,
                    std::span<const MaskGroup> groups, bool accumulate)
{
    checkGrouped(a, b, c, groups);
    for (const MaskGroup &g : groups)
        matmulMaskedRows(a, b, c, g.rowBegin, g.rows, g.kAct, g.nAct,
                         accumulate);
}

void
embeddingGatherPooled(const Tensor &table, std::span<const uint32_t> rows,
                      std::span<const size_t> offsets,
                      std::span<const float> inv, Tensor &out, size_t width)
{
    checkEmbedding(table.cols(), rows, offsets, inv, out.rows(), out.cols(),
                   width);
    const float *td = table.data().data();
    float *od = out.data().data();
    size_t tw = table.cols(), ow = out.cols();
    // Blocked gather: the pooled row accumulates in registers per
    // kColTile strip (one store per strip instead of a read-modify-write
    // per id). Per element the adds still run in id-list order from a
    // zero accumulator — bitwise identical to the reference kernel.
    for (size_t i = 0; i < out.rows(); ++i) {
        float *dst = od + i * ow;
        float w = inv[i];
        size_t p0 = offsets[i], p1 = offsets[i + 1];
        for (size_t d0 = 0; d0 < width; d0 += kColTile) {
            size_t dt = std::min(kColTile, width - d0);
            float acc[kColTile];
            for (size_t j = 0; j < dt; ++j)
                acc[j] = 0.0f;
            for (size_t p = p0; p < p1; ++p) {
                const float *src = td + rows[p] * tw + d0;
#pragma omp simd
                for (size_t j = 0; j < dt; ++j)
                    acc[j] += w * src[j];
            }
            for (size_t j = 0; j < dt; ++j)
                dst[d0 + j] = acc[j];
        }
    }
}

void
embeddingScatterAdd(const Tensor &grad_out, std::span<const uint32_t> rows,
                    std::span<const size_t> offsets,
                    std::span<const float> inv, Tensor &grad_table,
                    size_t width)
{
    checkEmbedding(grad_table.cols(), rows, offsets, inv, grad_out.rows(),
                   grad_out.cols(), width);
    tiled::embeddingScatterAdd(grad_out.data().data(), grad_out.cols(), rows,
                               offsets, inv, grad_table.data().data(),
                               grad_table.cols(), width);
}

void
embeddingScatterAdd(const float *gd, size_t gw,
                    std::span<const uint32_t> rows,
                    std::span<const size_t> offsets,
                    std::span<const float> inv, float *td, size_t tw,
                    size_t width)
{
    checkEmbedding(tw, rows, offsets, inv, inv.size(), gw, width);
    // Fused scatter: the example's scaled gradient inv * g is staged
    // once per strip (hoisting the multiply out of the id loop), then
    // added to each touched table row with simd. inv * g[d] is the same
    // IEEE product the reference computes per id, and adds run in
    // id-list order — bitwise identical results.
    for (size_t i = 0; i < inv.size(); ++i) {
        const float *src = gd + i * gw;
        float w = inv[i];
        size_t p0 = offsets[i], p1 = offsets[i + 1];
        if (p0 == p1)
            continue;
        for (size_t d0 = 0; d0 < width; d0 += kColTile) {
            size_t dt = std::min(kColTile, width - d0);
            float tmp[kColTile];
#pragma omp simd
            for (size_t j = 0; j < dt; ++j)
                tmp[j] = w * src[d0 + j];
            for (size_t p = p0; p < p1; ++p) {
                float *dst = td + rows[p] * tw + d0;
#pragma omp simd
                for (size_t j = 0; j < dt; ++j)
                    dst[j] += tmp[j];
            }
        }
    }
}

namespace {

/** matmulTransAMasked over the output rows [k_begin, k_end) of C. */
void
matmulTransAMaskedRows(const Tensor &a, const Tensor &b, float *cd, size_t nc,
                       size_t k_begin, size_t k_end, size_t n_act)
{
    size_t m = a.rows();
    const float *ad = a.data().data();
    const float *bd = b.data().data();
    size_t ka = a.cols(), nb = b.cols();

    // C[k, j] += sum_i A[i, k] * B[i, j]; block (k, j) output tiles and
    // stream the batch dimension i through each tile, i ascending — the
    // same per-element order as the reference kernel.
    for (size_t k0 = k_begin; k0 < k_end; k0 += kRowTile) {
        size_t kt = std::min(kRowTile, k_end - k0);
        for (size_t j0 = 0; j0 < n_act; j0 += kColTile) {
            size_t jt = std::min(kColTile, n_act - j0);
            float acc[kRowTile][kColTile];
            for (size_t r = 0; r < kt; ++r) {
                const float *crow = cd + (k0 + r) * nc + j0;
                for (size_t j = 0; j < jt; ++j)
                    acc[r][j] = crow[j];
            }
            for (size_t i = 0; i < m; ++i) {
                const float *arow = ad + i * ka + k0;
                const float *brow = bd + i * nb + j0;
                for (size_t r = 0; r < kt; ++r) {
                    float av = arow[r];
                    float *accr = acc[r];
#pragma omp simd
                    for (size_t j = 0; j < jt; ++j)
                        accr[j] += av * brow[j];
                }
            }
            for (size_t r = 0; r < kt; ++r) {
                float *crow = cd + (k0 + r) * nc + j0;
                for (size_t j = 0; j < jt; ++j)
                    crow[j] = acc[r][j];
            }
        }
    }
}

} // namespace

void
matmulTransAMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
                   size_t n_act)
{
    checkMatmulTransAMasked(a, b, c.rows(), c.cols(), k_act, n_act);
    tiled::matmulTransAMasked(a, b, c.data().data(), c.cols(), k_act, n_act);
}

void
matmulTransAMasked(const Tensor &a, const Tensor &b, float *c, size_t ldc,
                   size_t k_act, size_t n_act)
{
    checkMatmulTransAMasked(a, b, k_act, ldc, k_act, n_act);
    common::parallelFor(k_act, kRowTile, a.rows() * k_act * n_act,
                        [&](size_t k0, size_t k1) {
                            matmulTransAMaskedRows(a, b, c, ldc, k0, k1,
                                                   n_act);
                        });
}

namespace {

/** matmulTransBMasked over the rows [i_begin, i_end) of A and C. */
void
matmulTransBMaskedRows(const Tensor &a, const Tensor &b, Tensor &c,
                       size_t i_begin, size_t i_end, size_t n_act,
                       size_t k_act, bool accumulate)
{
    const float *ad = a.data().data();
    const float *bd = b.data().data();
    float *cd = c.data().data();
    size_t na = a.cols(), nb = b.cols(), kc = c.cols();

    // C[i, k] = dot(A row i, B row k): process kRowTile A-rows per pass so
    // each B row is loaded once per pass, with independent simd
    // reductions per dot product (fixed contraction order per element).
    // Full tiles and remainder rows are separately vectorized
    // reductions, so a range starts on a tile boundary: each row then
    // runs the same code as in one serial pass.
    for (size_t i0 = i_begin; i0 < i_end; i0 += kRowTile) {
        size_t rt = std::min(kRowTile, i_end - i0);
        if (rt == kRowTile) {
            const float *a0 = ad + (i0 + 0) * na;
            const float *a1 = ad + (i0 + 1) * na;
            const float *a2 = ad + (i0 + 2) * na;
            const float *a3 = ad + (i0 + 3) * na;
            for (size_t k = 0; k < k_act; ++k) {
                const float *brow = bd + k * nb;
                float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
#pragma omp simd reduction(+ : s0, s1, s2, s3)
                for (size_t j = 0; j < n_act; ++j) {
                    float bv = brow[j];
                    s0 += a0[j] * bv;
                    s1 += a1[j] * bv;
                    s2 += a2[j] * bv;
                    s3 += a3[j] * bv;
                }
                float *col = cd + i0 * kc + k;
                if (accumulate) {
                    col[0 * kc] += s0;
                    col[1 * kc] += s1;
                    col[2 * kc] += s2;
                    col[3 * kc] += s3;
                } else {
                    col[0 * kc] = s0;
                    col[1 * kc] = s1;
                    col[2 * kc] = s2;
                    col[3 * kc] = s3;
                }
            }
        } else {
            for (size_t r = 0; r < rt; ++r) {
                const float *arow = ad + (i0 + r) * na;
                float *crow = cd + (i0 + r) * kc;
                for (size_t k = 0; k < k_act; ++k) {
                    const float *brow = bd + k * nb;
                    float s = 0.0f;
#pragma omp simd reduction(+ : s)
                    for (size_t j = 0; j < n_act; ++j)
                        s += arow[j] * brow[j];
                    if (accumulate)
                        crow[k] += s;
                    else
                        crow[k] = s;
                }
            }
        }
    }
}

} // namespace

void
matmulTransBMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t n_act,
                   size_t k_act, bool accumulate)
{
    checkMatmulTransBMasked(a, b, c, n_act, k_act);
    common::parallelFor(a.rows(), kRowTile, a.rows() * n_act * k_act,
                        [&](size_t i0, size_t i1) {
                            matmulTransBMaskedRows(a, b, c, i0, i1, n_act,
                                                   k_act, accumulate);
                        });
}

} // namespace tiled

// ---------------------------------------------------------------------------
// Dispatchers.
// ---------------------------------------------------------------------------

void
matmulMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
             size_t n_act, bool accumulate)
{
    if (kernelImpl() == KernelImpl::Tiled)
        tiled::matmulMasked(a, b, c, k_act, n_act, accumulate);
    else
        reference::matmulMasked(a, b, c, k_act, n_act, accumulate);
}

void
matmulTransAMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
                   size_t n_act)
{
    if (kernelImpl() == KernelImpl::Tiled)
        tiled::matmulTransAMasked(a, b, c, k_act, n_act);
    else
        reference::matmulTransAMasked(a, b, c, k_act, n_act);
}

void
matmulTransAMasked(const Tensor &a, const Tensor &b, float *c, size_t ldc,
                   size_t k_act, size_t n_act)
{
    if (kernelImpl() == KernelImpl::Tiled)
        tiled::matmulTransAMasked(a, b, c, ldc, k_act, n_act);
    else
        reference::matmulTransAMasked(a, b, c, ldc, k_act, n_act);
}

void
matmulTransBMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t n_act,
                   size_t k_act, bool accumulate)
{
    if (kernelImpl() == KernelImpl::Tiled)
        tiled::matmulTransBMasked(a, b, c, n_act, k_act, accumulate);
    else
        reference::matmulTransBMasked(a, b, c, n_act, k_act, accumulate);
}

void
matmulMaskedGrouped(const Tensor &a, const Tensor &b, Tensor &c,
                    std::span<const MaskGroup> groups, bool accumulate)
{
    if (kernelImpl() == KernelImpl::Tiled)
        tiled::matmulMaskedGrouped(a, b, c, groups, accumulate);
    else
        reference::matmulMaskedGrouped(a, b, c, groups, accumulate);
}

void
embeddingGatherPooled(const Tensor &table, std::span<const uint32_t> rows,
                      std::span<const size_t> offsets,
                      std::span<const float> inv, Tensor &out, size_t width)
{
    if (kernelImpl() == KernelImpl::Tiled)
        tiled::embeddingGatherPooled(table, rows, offsets, inv, out, width);
    else
        reference::embeddingGatherPooled(table, rows, offsets, inv, out,
                                         width);
}

void
embeddingScatterAdd(const Tensor &grad_out, std::span<const uint32_t> rows,
                    std::span<const size_t> offsets,
                    std::span<const float> inv, Tensor &grad_table,
                    size_t width)
{
    if (kernelImpl() == KernelImpl::Tiled)
        tiled::embeddingScatterAdd(grad_out, rows, offsets, inv, grad_table,
                                   width);
    else
        reference::embeddingScatterAdd(grad_out, rows, offsets, inv,
                                       grad_table, width);
}

void
embeddingScatterAdd(const float *grad_out, size_t ldo,
                    std::span<const uint32_t> rows,
                    std::span<const size_t> offsets,
                    std::span<const float> inv, float *grad, size_t ldg,
                    size_t width)
{
    if (kernelImpl() == KernelImpl::Tiled)
        tiled::embeddingScatterAdd(grad_out, ldo, rows, offsets, inv, grad,
                                   ldg, width);
    else
        reference::embeddingScatterAdd(grad_out, ldo, rows, offsets, inv,
                                       grad, ldg, width);
}

void
matmul(const Tensor &a, const Tensor &b, Tensor &c)
{
    h2o_assert(a.cols() == b.rows(), "matmul shape mismatch: ", a.shapeStr(),
               " x ", b.shapeStr());
    h2o_assert(c.rows() == a.rows() && c.cols() == b.cols(),
               "matmul output shape mismatch");
    matmulMasked(a, b, c, a.cols(), b.cols(), false);
}

void
addBias(Tensor &x, const Tensor &bias, size_t n_act)
{
    h2o_assert(n_act <= bias.size() && n_act <= x.cols(),
               "addBias: n_act out of range");
    float *xd = x.data().data();
    const float *bd = bias.data().data();
    size_t n = x.cols();
    for (size_t i = 0; i < x.rows(); ++i) {
        float *row = xd + i * n;
#pragma omp simd
        for (size_t j = 0; j < n_act; ++j)
            row[j] += bd[j];
    }
}

void
addBiasGrouped(Tensor &x, const Tensor &bias,
               std::span<const MaskGroup> groups)
{
    float *xd = x.data().data();
    const float *bd = bias.data().data();
    size_t n = x.cols();
    for (const MaskGroup &g : groups) {
        h2o_assert(g.rowBegin + g.rows <= x.rows() && g.nAct <= n &&
                       g.nAct <= bias.size(),
                   "addBiasGrouped: group out of range");
        for (size_t i = g.rowBegin; i < g.rowBegin + g.rows; ++i) {
            float *row = xd + i * n;
#pragma omp simd
            for (size_t j = 0; j < g.nAct; ++j)
                row[j] += bd[j];
        }
    }
}

void
axpy(float alpha, const Tensor &x, Tensor &y)
{
    h2o_assert(x.size() == y.size(), "axpy size mismatch");
    const float *xd = x.data().data();
    float *yd = y.data().data();
    size_t n = x.size();
#pragma omp simd
    for (size_t i = 0; i < n; ++i)
        yd[i] += alpha * xd[i];
}

} // namespace h2o::nn
