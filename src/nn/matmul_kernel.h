/**
 * @file
 * The register-resident matmul micro-kernel behind nn/ops.h's three
 * masked matmuls, built once per ISA from one source
 * (nn/matmul_kernel.cc: baseline, and on x86-64 also AVX2 and AVX-512F)
 * and chosen once at run time from what the CPU supports.
 *
 * Every variant computes each output element in the same order: start
 * from the tile's initial value, then for p = 0, 1, ..., depth - 1 one
 * IEEE multiply followed by one IEEE add (no fused multiply-add, no
 * partial sums split by vector width). The variants therefore give the
 * same bits; only their speed differs. tests/test_nn_kernels.cc runs
 * every variant this host supports against the baseline.
 *
 * This header is test-visible; library callers use nn/ops.h.
 */

#ifndef H2O_NN_MATMUL_KERNEL_H
#define H2O_NN_MATMUL_KERNEL_H

#include <cstddef>
#include <cstdint>
#include <span>

namespace h2o::nn {

class Tensor;

namespace isa {

/** Where a tile's accumulators start and what the store writes. */
enum class GemmInit : uint8_t
{
    Zero,  ///< start from 0; store the sum
    LoadC, ///< start from C; store the sum (C += products, one at a time)
    AddToC ///< start from 0; store C + the finished sum
};

/**
 * C(r, j) for r < rows, j < cols, contracting p over [0, depth)
 * ascending, where A(r, p) = a[r * aRow + p * aStep], B(p, j) =
 * b[p * ldb + j] and C(r, j) = c[r * ldc + j]. The strides let one
 * kernel serve A * B (aStep = 1) and A^T * B (aRow = 1).
 */
struct Gemm
{
    const float *a = nullptr;
    size_t aRow = 0, aStep = 0;
    const float *b = nullptr;
    size_t ldb = 0;
    float *c = nullptr;
    size_t ldc = 0;
    size_t rows = 0, cols = 0, depth = 0;
    GemmInit init = GemmInit::Zero;
};

/** One ISA build of the micro-kernel. */
struct Variant
{
    const char *name;            ///< "baseline", "avx2" or "avx512f"
    size_t lanes;                ///< floats per vector of its main tile
    void (*gemm)(const Gemm &g); ///< the whole Gemm, on the calling thread
};

/** The variants this CPU can run, baseline first, widest last. */
std::span<const Variant> supportedVariants();

/** The variant nn/ops.h's matmuls use: the widest supported one. */
const Variant &selectedVariant();

/** nn/ops.h's masked matmuls with the variant named: the same checks,
 *  row split and staging, so each equals the nn:: call bit for bit
 *  when `v` is selectedVariant(). */
void matmulMasked(const Variant &v, const Tensor &a, const Tensor &b,
                  Tensor &c, size_t k_act, size_t n_act, bool accumulate);
void matmulTransAMasked(const Variant &v, const Tensor &a, const Tensor &b,
                        float *c, size_t ldc, size_t k_act, size_t n_act);
void matmulTransBMasked(const Variant &v, const Tensor &a, const Tensor &b,
                        Tensor &c, size_t n_act, size_t k_act,
                        bool accumulate);

/** The per-ISA builds (nn/matmul_kernel.cc); x86-64 only for the
 *  last two, and callable only where the CPU supports them. */
void gemmBaseline(const Gemm &g);
void gemmAvx2(const Gemm &g);
void gemmAvx512f(const Gemm &g);

} // namespace isa

} // namespace h2o::nn

#endif // H2O_NN_MATMUL_KERNEL_H
