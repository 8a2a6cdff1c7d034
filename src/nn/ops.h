/**
 * @file
 * Matrix kernels for the training substrate. All kernels operate on
 * row-major Tensors and support the *masked* variants the weight-sharing
 * super-network needs: a sub-network with active dimensions (k_act, n_act)
 * of a larger shared weight matrix touches only the upper-left sub-matrix,
 * exactly as described for the DLRM super-network (Figure 3, mask (3)).
 *
 * Two implementations back every kernel:
 *
 *  - `Tiled` (default): register-tiled, cache-blocked loops with
 *    `omp simd` vectorization hints. The blocking schedule is fixed at
 *    compile time and never depends on runtime state, so results are
 *    deterministic run-to-run and bit-identical at any `--threads`
 *    setting and core count. The three masked matmuls split their
 *    output rows across CPUs (common::parallelFor) only on row-tile
 *    boundaries, so a split never changes a value; called from an
 *    exec::ThreadPool worker they run inline.
 *  - `Reference`: the original scalar loops, kept for A/B testing and as
 *    the correctness oracle in `tests/test_nn_kernels.cc`.
 *
 * Select with setKernelImpl() or the H2O_KERNELS environment variable
 * ("tiled" / "reference", read once at startup). Tiled and reference
 * results agree to ~1e-5 relative (FP summation order differs), and each
 * implementation individually is exactly deterministic.
 */

#ifndef H2O_NN_OPS_H
#define H2O_NN_OPS_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "nn/tensor.h"

namespace h2o::nn {

/** Kernel implementation selector. */
enum class KernelImpl
{
    Tiled,     ///< register-tiled + vectorized (default)
    Reference, ///< original scalar loops (A/B oracle)
};

/** Select the implementation used by the dispatching kernels below. */
void setKernelImpl(KernelImpl impl);

/** The currently selected implementation. */
KernelImpl kernelImpl();

/** Parse "tiled" / "reference"; fatal on unknown names. */
KernelImpl kernelImplFromName(const std::string &name);

/** Human-readable implementation name. */
const char *kernelImplName(KernelImpl impl);

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
 * C[m,k] = (or +=) A[m,n] * B^T[n,k] over active sub-ranges: used for
 * input gradients dX = dY * W^T. Only the first k_act columns of C are
 * written.
 *
 * @param accumulate When false (default), the active region of C is
 *        overwritten — callers no longer need to pre-zero C. Pass true
 *        for the historical read-modify-write behavior.
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
 * a zero accumulator — both implementations share that order, so tiled
 * and reference results are bitwise identical here.
 */
void embeddingGatherPooled(const Tensor &table,
                           std::span<const uint32_t> rows,
                           std::span<const size_t> offsets,
                           std::span<const float> inv, Tensor &out,
                           size_t width);

/**
 * The matching scatter-add: grad_table[rows[p]][d] += inv[i] *
 * grad_out[i][d] for d < width, ids in list order. Bitwise identical
 * across implementations (the tiled path hoists the inv product per
 * example, which is value-identical).
 */
void embeddingScatterAdd(const Tensor &grad_out,
                         std::span<const uint32_t> rows,
                         std::span<const size_t> offsets,
                         std::span<const float> inv, Tensor &grad_table,
                         size_t width);

/** Full (unmasked) C = A * B. Shapes must conform exactly. */
void matmul(const Tensor &a, const Tensor &b, Tensor &c);

/** Add bias vector b[0..n_act) to every row of x (first n_act columns). */
void addBias(Tensor &x, const Tensor &bias, size_t n_act);

/** axpy: y += alpha * x over whole storage. Sizes must match. */
void axpy(float alpha, const Tensor &x, Tensor &y);

/**
 * Reference (scalar) kernels, callable directly regardless of the
 * selected implementation — the A/B oracle for tests and benches.
 */
namespace reference {

void matmulMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
                  size_t n_act, bool accumulate = false);
void matmulTransAMasked(const Tensor &a, const Tensor &b, Tensor &c,
                        size_t k_act, size_t n_act);
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

} // namespace reference

/** Tiled kernels, callable directly (used by the A/B micro-benchmark). */
namespace tiled {

void matmulMasked(const Tensor &a, const Tensor &b, Tensor &c, size_t k_act,
                  size_t n_act, bool accumulate = false);
void matmulTransAMasked(const Tensor &a, const Tensor &b, Tensor &c,
                        size_t k_act, size_t n_act);
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

} // namespace tiled

} // namespace h2o::nn

#endif // H2O_NN_OPS_H
