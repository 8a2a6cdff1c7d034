/**
 * @file
 * Matrix kernels for the training substrate. All kernels operate on
 * row-major Tensors and support the *masked* variants the weight-sharing
 * super-network needs: a sub-network with active dimensions (k_act, n_act)
 * of a larger shared weight matrix touches only the upper-left sub-matrix,
 * exactly as described for the DLRM super-network (Figure 3, mask (3)).
 *
 * The three masked matmuls run a register-resident micro-kernel built
 * once per ISA (baseline, AVX2, AVX-512F) and chosen once at run time
 * (nn/matmul_kernel.h). Per output element every build runs the
 * contraction in the reference kernel's order, one multiply then one
 * add, so results are the same bits on every ISA, run-to-run, and at
 * any `--threads` setting and core count, and they equal `reference::`
 * bit for bit (which skips products of a zero A element; that can
 * differ only in the sign of a zero sum or with non-finite inputs). The
 * kernels split their output across CPUs (common::parallelFor) on tile
 * boundaries; called from an exec::ThreadPool worker they run inline.
 *
 * `reference::` holds the original scalar loops, the test oracle.
 */

#ifndef H2O_NN_OPS_H
#define H2O_NN_OPS_H

#include <cstddef>
#include <cstdint>
#include <span>

#include "nn/tensor.h"

namespace h2o::nn {

/**
 * C[m,n] = (or +=) A[m,k] * B[k,n], restricted to the active sub-ranges
 * m x k_act of A and k_act x n_act of B. C must be m x n with n >= n_act;
 * only columns [0, n_act) of C are written.
 *
 * @param accumulate When false, the active region of C is overwritten.
 */
void matmulMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
                  size_t n_act, bool accumulate = false);

/**
 * C[k,n] += A^T[k,m] * B[m,n] over active sub-ranges: used for weight
 * gradients dW = X^T * dY. Only the k_act x n_act region of C is updated.
 * Always accumulates: weight gradients sum across micro-batches.
 */
void matmulTransAMasked(const Tensor &a, const Tensor &b, Tensor &c,
                        size_t k_act, size_t n_act);

/**
 * As above into caller-owned row-major storage outside any Tensor: `c`
 * is a k_act x n_act block with row stride ldc (>= n_act) — a compact
 * per-shard gradient block in an arena.
 */
void matmulTransAMasked(const Tensor &a, const Tensor &b, float *c,
                        size_t ldc, size_t k_act, size_t n_act);

/**
 * C[m,k] = (or +=) A[m,n] * B^T[n,k] over active sub-ranges: used for
 * input gradients dX = dY * W^T. Only the first k_act columns of C are
 * written.
 *
 * @param accumulate When false (default), the active region of C is
 *        overwritten — callers need not pre-zero C. When true, each
 *        element's finished sum is added to C.
 */
void matmulTransBMasked(const Tensor &a, const Tensor &b, Tensor &c,
                        size_t n_act, size_t k_act,
                        bool accumulate = false);

/**
 * One candidate's row range and active dimensions inside a *packed*
 * multi-candidate tensor (layout [n_cand * batch, max_width]): the
 * grouped kernels below run the corresponding masked kernel on rows
 * [rowBegin, rowBegin + rows) with this group's (kAct, nAct) masks.
 * Per output element the floating-point operation sequence is the one
 * the ungrouped kernel would use on that candidate's own tensor, so a
 * packed pass is bitwise identical to per-candidate calls.
 */
struct MaskGroup
{
    size_t rowBegin = 0; ///< first packed row of this candidate
    size_t rows = 0;     ///< rows (batch size) of this candidate
    size_t kAct = 0;     ///< active contraction width
    size_t nAct = 0;     ///< active output width
};

/**
 * Grouped-mask batched matmul: for every group g,
 * C[rows of g, 0..nAct) = A[rows of g, 0..kAct) * B[0..kAct, 0..nAct),
 * sharing one weight matrix B across all groups. Row ranges must not
 * overlap. Bitwise identical to calling matmulMasked per candidate.
 */
void matmulMaskedGrouped(const Tensor &a, const Tensor &b, Tensor &c,
                         std::span<const MaskGroup> groups,
                         bool accumulate = false);

/** Grouped addBias: rows of each group get bias[0..nAct). */
void addBiasGrouped(Tensor &x, const Tensor &bias,
                    std::span<const MaskGroup> groups);

/**
 * Mean-pooled embedding gather. For each example i (a row of `out`),
 * sums inv[i] * table[rows[p]] over p in [offsets[i], offsets[i+1]),
 * writing columns [0, width) of out; examples with an empty range get a
 * zero row. `rows` holds pre-hashed table row indices; `offsets` has
 * out.rows()+1 entries. Per element the adds run in id-list order from
 * a zero accumulator, as in reference::embeddingGatherPooled, so the
 * two are bitwise identical.
 */
void embeddingGatherPooled(const Tensor &table,
                           std::span<const uint32_t> rows,
                           std::span<const size_t> offsets,
                           std::span<const float> inv, Tensor &out,
                           size_t width);

/**
 * The matching scatter-add: grad_table[rows[p]][d] += inv[i] *
 * grad_out[i][d] for d < width, ids in list order. Bitwise identical
 * to the reference kernel (this one hoists the inv product per example,
 * which is value-identical).
 */
void embeddingScatterAdd(const Tensor &grad_out,
                         std::span<const uint32_t> rows,
                         std::span<const size_t> offsets,
                         std::span<const float> inv, Tensor &grad_table,
                         size_t width);

/** As above over caller-owned row-major storage outside any Tensor:
 *  grad_out holds inv.size() rows with stride ldo, grad (indexed by
 *  `rows`) has stride ldg; both strides >= width. */
void embeddingScatterAdd(const float *grad_out, size_t ldo,
                         std::span<const uint32_t> rows,
                         std::span<const size_t> offsets,
                         std::span<const float> inv, float *grad,
                         size_t ldg, size_t width);

/** Full (unmasked) C = A * B. Shapes must conform exactly. */
void matmul(const Tensor &a, const Tensor &b, Tensor &c);

/** Add bias vector b[0..n_act) to every row of x (first n_act columns). */
void addBias(Tensor &x, const Tensor &bias, size_t n_act);

/** axpy: y += alpha * x over whole storage. Sizes must match. */
void axpy(float alpha, const Tensor &x, Tensor &y);

/** Reference (scalar) kernels: the oracle for tests and benches. */
namespace reference {

void matmulMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
                  size_t n_act, bool accumulate = false);
void matmulTransAMasked(const Tensor &a, const Tensor &b, Tensor &c,
                        size_t k_act, size_t n_act);
void matmulTransAMasked(const Tensor &a, const Tensor &b, float *c,
                        size_t ldc, size_t k_act, size_t n_act);
void matmulTransBMasked(const Tensor &a, const Tensor &b, Tensor &c,
                        size_t n_act, size_t k_act,
                        bool accumulate = false);
void matmulMaskedGrouped(const Tensor &a, const Tensor &b, Tensor &c,
                         std::span<const MaskGroup> groups,
                         bool accumulate = false);
void embeddingGatherPooled(const Tensor &table,
                           std::span<const uint32_t> rows,
                           std::span<const size_t> offsets,
                           std::span<const float> inv, Tensor &out,
                           size_t width);
void embeddingScatterAdd(const Tensor &grad_out,
                         std::span<const uint32_t> rows,
                         std::span<const size_t> offsets,
                         std::span<const float> inv, Tensor &grad_table,
                         size_t width);
void embeddingScatterAdd(const float *grad_out, size_t ldo,
                         std::span<const uint32_t> rows,
                         std::span<const size_t> offsets,
                         std::span<const float> inv, float *grad,
                         size_t ldg, size_t width);

} // namespace reference

} // namespace h2o::nn

#endif // H2O_NN_OPS_H
