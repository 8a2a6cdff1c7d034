#include "nn/ops.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel.h"
#include "nn/matmul_kernel.h"

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

} // namespace

// ---------------------------------------------------------------------------
// Reference kernels: the original scalar loops, kept as the test oracle.
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
// Matmul kernels: the ISA variants of nn/matmul_kernel.cc.
//
// Per output element every variant runs the reference kernel's sequence
// (k or i ascending, one multiply then one add, from the same start), so
// each variant equals the reference bit for bit and the choice of ISA
// never changes a value.
//
// matmulMasked and matmulTransAMasked fork-join over output rows
// (common::parallelFor with align = kRowTile, the micro-kernel's row
// count), matmulTransBMasked over output columns; no element's value
// depends on the part or the tile it lands in.
// ---------------------------------------------------------------------------

namespace isa {

namespace {

/** Rows of a micro-kernel tile: the row split's alignment. */
constexpr size_t kRowTile = 4;
/** Work units per micro-kernel step; see gemmWork(). */
constexpr size_t kWorkPerVectorStep = 3;
/** matmulTransBMasked's column split alignment, and the rows of B it
 *  transposes together when staging. */
constexpr size_t kSplitCols = 16;
/** Columns of C per staged panel of B^T in matmulTransBMasked: the
 *  AVX-512 build's widest tile. */
constexpr size_t kPanelCols = 64;
/** Floats in a staged panel (64 KiB on the part's stack): a full-width
 *  panel for contractions up to 256 wide, narrower ones up to 16384. */
constexpr size_t kPanelFloats = 16384;

struct VariantTable
{
    Variant variants[3] = {};
    size_t count = 0;
};

VariantTable
probeVariants()
{
    VariantTable t;
    t.variants[t.count++] = {"baseline", 4, gemmBaseline};
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        t.variants[t.count++] = {"avx2", 8, gemmAvx2};
    if (__builtin_cpu_supports("avx512f"))
        t.variants[t.count++] = {"avx512f", 16, gemmAvx512f};
#endif
    return t;
}

const VariantTable &
variantTable()
{
    static const VariantTable table = probeVariants();
    return table;
}

/** Rows [row0, row0 + rows) of C = (or +=) A * B over the active
 *  region; shared by the plain and grouped entry points. */
Gemm
matmulRows(const Tensor &a, const Tensor &b, Tensor &c, size_t row0,
           size_t rows, size_t k_act, size_t n_act, bool accumulate)
{
    Gemm g;
    g.a = a.data().data() + row0 * a.cols();
    g.aRow = a.cols();
    g.aStep = 1;
    g.b = b.data().data();
    g.ldb = b.cols();
    g.c = c.data().data() + row0 * c.cols();
    g.ldc = c.cols();
    g.rows = rows;
    g.cols = n_act;
    g.depth = k_act;
    g.init = accumulate ? GemmInit::LoadC : GemmInit::Zero;
    return g;
}

/**
 * The work of `g` in common::kParallelMinPartWork's units. The unit is
 * about one multiply-add of a scalar-era kernel; the micro-kernel does
 * one row x one vector x one k step (v.lanes multiply-adds) in the time
 * of about kWorkPerVectorStep units, and a tile's C load and store cost
 * about two steps. Counting vectors rather than multiply-adds keeps
 * narrow outputs (a 128 -> 2 head pads its 2 columns to one vector)
 * from looking cheaper than they run.
 */
size_t
gemmWork(const Variant &v, const Gemm &g)
{
    const size_t vectors = (g.cols + v.lanes - 1) / v.lanes;
    return kWorkPerVectorStep * g.rows * vectors * (g.depth + 2);
}

/** Run `g` split over its rows on tile boundaries. */
void
gemmSplit(const Variant &v, const Gemm &g)
{
    common::parallelFor(g.rows, kRowTile, gemmWork(v, g),
                        [&](size_t r0, size_t r1) {
                            Gemm part = g;
                            part.a += r0 * g.aRow;
                            part.c += r0 * g.ldc;
                            part.rows = r1 - r0;
                            v.gemm(part);
                        });
}

} // namespace

std::span<const Variant>
supportedVariants()
{
    const VariantTable &t = variantTable();
    return {t.variants, t.count};
}

const Variant &
selectedVariant()
{
    const VariantTable &t = variantTable();
    return t.variants[t.count - 1];
}

void
matmulMasked(const Variant &v, const Tensor &a, const Tensor &b, Tensor &c,
             size_t k_act, size_t n_act, bool accumulate)
{
    checkMatmulMasked(a, b, c, k_act, n_act);
    gemmSplit(v, matmulRows(a, b, c, 0, a.rows(), k_act, n_act, accumulate));
}

void
matmulTransAMasked(const Variant &v, const Tensor &a, const Tensor &b,
                   float *c, size_t ldc, size_t k_act, size_t n_act)
{
    checkMatmulTransAMasked(a, b, k_act, ldc, k_act, n_act);
    // C[k, j] += sum_i A[i, k] B[i, j]: output row k reads column k of
    // A, and the batch rows i are the contraction.
    Gemm g;
    g.a = a.data().data();
    g.aRow = 1;
    g.aStep = a.cols();
    g.b = b.data().data();
    g.ldb = b.cols();
    g.c = c;
    g.ldc = ldc;
    g.rows = k_act;
    g.cols = n_act;
    g.depth = a.rows();
    g.init = GemmInit::LoadC;
    gemmSplit(v, g);
}

void
matmulTransBMasked(const Variant &v, const Tensor &a, const Tensor &b,
                   Tensor &c, size_t n_act, size_t k_act, bool accumulate)
{
    checkMatmulTransBMasked(a, b, c, n_act, k_act);
    // C[i, k] = sum_j A[i, j] B[k, j]: stage B transposed so the
    // contraction streams rows of it, then add the finished sum to C
    // when accumulating — the reference kernel's order. The parts split
    // the output columns k, so the staging is split too: a part takes
    // its columns a panel at a time, transposes those rows of B into a
    // buffer on its own stack (n_act x w, w <= kPanelCols) and runs
    // every row of A against it while it is in cache. Nothing is
    // allocated, and no buffer outlives the call.
    const size_t panel_cols =
        std::min(kPanelCols, kPanelFloats / std::max<size_t>(n_act, 1));
    Gemm g;
    g.a = a.data().data();
    g.aRow = a.cols();
    g.aStep = 1;
    g.c = c.data().data();
    g.ldc = c.cols();
    g.rows = a.rows();
    g.cols = k_act;
    g.depth = n_act;
    g.init = accumulate ? GemmInit::AddToC : GemmInit::Zero;
    const float *bd = b.data().data();
    const size_t nb = b.cols();
    common::parallelFor(
        k_act, kSplitCols, gemmWork(v, g) + n_act * k_act,
        [&](size_t k0, size_t k1) {
            if (panel_cols == 0) {
                // A contraction wider than a panel: plain dot products
                // in the same order, without staging.
                for (size_t i = 0; i < g.rows; ++i) {
                    const float *arow = g.a + i * g.aRow;
                    for (size_t k = k0; k < k1; ++k) {
                        const float *brow = bd + k * nb;
                        float acc = 0.0f;
                        for (size_t j = 0; j < n_act; ++j)
                            acc += arow[j] * brow[j];
                        float &out = g.c[i * g.ldc + k];
                        out = accumulate ? out + acc : acc;
                    }
                }
                return;
            }
            float panel[kPanelFloats];
            for (size_t p0 = k0; p0 < k1; p0 += panel_cols) {
                const size_t w = std::min(k1 - p0, panel_cols);
                // kSplitCols rows of B at a time: each panel row is
                // written a contiguous run at a time while those B rows
                // stay in L1 (a row-at-a-time transpose writes with a
                // power-of-two stride at the usual widths and runs ~7x
                // slower).
                for (size_t kb = 0; kb < w; kb += kSplitCols) {
                    const size_t ke = std::min(w, kb + kSplitCols);
                    for (size_t j = 0; j < n_act; ++j)
                        for (size_t k = kb; k < ke; ++k)
                            panel[j * w + k] = bd[(p0 + k) * nb + j];
                }
                Gemm part = g;
                part.b = panel;
                part.ldb = w;
                part.c += p0;
                part.cols = w;
                v.gemm(part);
            }
        });
}

} // namespace isa

void
matmulMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
             size_t n_act, bool accumulate)
{
    isa::matmulMasked(isa::selectedVariant(), a, b, c, k_act, n_act,
                      accumulate);
}

void
matmulMaskedGrouped(const Tensor &a, const Tensor &b, Tensor &c,
                    std::span<const MaskGroup> groups, bool accumulate)
{
    checkGrouped(a, b, c, groups);
    const isa::Variant &v = isa::selectedVariant();
    for (const MaskGroup &g : groups)
        v.gemm(isa::matmulRows(a, b, c, g.rowBegin, g.rows, g.kAct, g.nAct,
                               accumulate));
}

void
matmulTransAMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
                   size_t n_act)
{
    checkMatmulTransAMasked(a, b, c.rows(), c.cols(), k_act, n_act);
    isa::matmulTransAMasked(isa::selectedVariant(), a, b, c.data().data(),
                            c.cols(), k_act, n_act);
}

void
matmulTransAMasked(const Tensor &a, const Tensor &b, float *c, size_t ldc,
                   size_t k_act, size_t n_act)
{
    isa::matmulTransAMasked(isa::selectedVariant(), a, b, c, ldc, k_act,
                            n_act);
}

void
matmulTransBMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t n_act,
                   size_t k_act, bool accumulate)
{
    isa::matmulTransBMasked(isa::selectedVariant(), a, b, c, n_act, k_act,
                            accumulate);
}

// ---------------------------------------------------------------------------
// Embedding kernels.
// ---------------------------------------------------------------------------

namespace {

/** Columns per register strip of the embedding kernels. */
constexpr size_t kStrip = 64;

} // namespace

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
    // kStrip strip (one store per strip instead of a read-modify-write
    // per id). Per element the adds still run in id-list order from a
    // zero accumulator — bitwise identical to the reference kernel.
    for (size_t i = 0; i < out.rows(); ++i) {
        float *dst = od + i * ow;
        float w = inv[i];
        size_t p0 = offsets[i], p1 = offsets[i + 1];
        for (size_t d0 = 0; d0 < width; d0 += kStrip) {
            size_t dt = std::min(kStrip, width - d0);
            float acc[kStrip];
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
    embeddingScatterAdd(grad_out.data().data(), grad_out.cols(), rows,
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
        for (size_t d0 = 0; d0 < width; d0 += kStrip) {
            size_t dt = std::min(kStrip, width - d0);
            float tmp[kStrip];
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

// ---------------------------------------------------------------------------
// Elementwise helpers.
// ---------------------------------------------------------------------------

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
