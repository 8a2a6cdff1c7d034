/**
 * @file
 * The matmul micro-kernel, compiled once per ISA (see
 * src/nn/CMakeLists.txt): without a define it is the baseline build,
 * with H2O_GEMM_AVX2 or H2O_GEMM_AVX512F (and the matching -m flag) the
 * AVX2 or AVX-512F one. Each build defines one function, gemmBaseline,
 * gemmAvx2 or gemmAvx512f.
 *
 * A tile is MR rows x NV vectors of W floats. Its accumulators stay in
 * registers for the whole contraction: load C or zero once, stream p
 * (one broadcast of A and NV loads of B per step, then one multiply and
 * one add per accumulator), store once. Columns left over after the
 * NV-vector tiles run through one-vector tiles, then a masked one in the
 * narrowest vector that holds them; rows left over after the 4-row
 * tiles run the same tile with MR = 1-3.
 * Which tile covers an element never changes its operation sequence,
 * so every ISA and every row split gives the same bits.
 *
 * Everything here except the exported function has internal linkage: a
 * non-local inline or template symbol compiled with -mavx512f could be
 * the copy the linker keeps for baseline callers. For the same reason
 * nothing from the standard library is used. Every build is compiled
 * with -ffp-contract=off, since -mavx512f (which implies FMA) would
 * otherwise fuse the multiply and the add.
 */

#include "nn/matmul_kernel.h"

#if defined(H2O_GEMM_AVX2) || defined(H2O_GEMM_AVX512F)
#include <immintrin.h>
#endif

namespace h2o::nn::isa {

namespace {

// Vector types: W floats, with loads, stores and the two arithmetic
// operations, plus a masked load/store of the first n < W lanes.

#if defined(H2O_GEMM_AVX2) || defined(H2O_GEMM_AVX512F)

struct Vec128
{
    using V = __m128;
    using Mask = __m128i;
    static constexpr size_t W = 4;
    static V zero() { return _mm_setzero_ps(); }
    static V load(const float *p) { return _mm_loadu_ps(p); }
    static void store(float *p, V v) { _mm_storeu_ps(p, v); }
    static V splat(float x) { return _mm_set1_ps(x); }
    static V mul(V x, V y) { return _mm_mul_ps(x, y); }
    static V add(V x, V y) { return _mm_add_ps(x, y); }
    static Mask
    mask(size_t n)
    {
        return _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(n)),
                               _mm_setr_epi32(0, 1, 2, 3));
    }
    static V maskLoad(const float *p, Mask m) { return _mm_maskload_ps(p, m); }
    static void maskStore(float *p, Mask m, V v) { _mm_maskstore_ps(p, m, v); }
};

struct Vec256
{
    using V = __m256;
    using Mask = __m256i;
    static constexpr size_t W = 8;
    static V zero() { return _mm256_setzero_ps(); }
    static V load(const float *p) { return _mm256_loadu_ps(p); }
    static void store(float *p, V v) { _mm256_storeu_ps(p, v); }
    static V splat(float x) { return _mm256_set1_ps(x); }
    static V mul(V x, V y) { return _mm256_mul_ps(x, y); }
    static V add(V x, V y) { return _mm256_add_ps(x, y); }
    static Mask
    mask(size_t n)
    {
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                                  _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    static V
    maskLoad(const float *p, Mask m)
    {
        return _mm256_maskload_ps(p, m);
    }
    static void
    maskStore(float *p, Mask m, V v)
    {
        _mm256_maskstore_ps(p, m, v);
    }
};

#endif

#if defined(H2O_GEMM_AVX512F)

struct Vec512
{
    using V = __m512;
    using Mask = __mmask16;
    static constexpr size_t W = 16;
    static V zero() { return _mm512_setzero_ps(); }
    static V load(const float *p) { return _mm512_loadu_ps(p); }
    static void store(float *p, V v) { _mm512_storeu_ps(p, v); }
    static V splat(float x) { return _mm512_set1_ps(x); }
    static V mul(V x, V y) { return _mm512_mul_ps(x, y); }
    static V add(V x, V y) { return _mm512_add_ps(x, y); }
    static Mask mask(size_t n) { return static_cast<Mask>((1u << n) - 1u); }
    static V
    maskLoad(const float *p, Mask m)
    {
        return _mm512_maskz_loadu_ps(m, p);
    }
    static void
    maskStore(float *p, Mask m, V v)
    {
        _mm512_mask_storeu_ps(p, m, v);
    }
};

#endif

#if !defined(H2O_GEMM_AVX2) && !defined(H2O_GEMM_AVX512F)

/** Baseline: GCC vector extensions, SSE2 on x86-64 and the native
 *  128-bit unit elsewhere. */
struct VecBase
{
    typedef float V __attribute__((vector_size(16)));
    using Mask = size_t; // lanes in use
    static constexpr size_t W = 4;
    static V zero() { return V{0.0f, 0.0f, 0.0f, 0.0f}; }
    static V
    load(const float *p)
    {
        V v;
        __builtin_memcpy(&v, p, sizeof(V));
        return v;
    }
    static void store(float *p, V v) { __builtin_memcpy(p, &v, sizeof(V)); }
    static V splat(float x) { return V{x, x, x, x}; }
    static V mul(V x, V y) { return x * y; }
    static V add(V x, V y) { return x + y; }
    static Mask mask(size_t n) { return n; }
    static V
    maskLoad(const float *p, Mask n)
    {
        switch (n) {
        case 1:
            return V{p[0], 0.0f, 0.0f, 0.0f};
        case 2:
            return V{p[0], p[1], 0.0f, 0.0f};
        default:
            return V{p[0], p[1], p[2], 0.0f};
        }
    }
    static void
    maskStore(float *p, Mask n, V v)
    {
        for (size_t i = 0; i < n; ++i)
            p[i] = v[i];
    }
};

#endif

// The build's main vector type and tile width in vectors.
#if defined(H2O_GEMM_AVX512F)
using Main = Vec512;
constexpr size_t NV = 4;
#elif defined(H2O_GEMM_AVX2)
using Main = Vec256;
constexpr size_t NV = 3;
#else
using Main = VecBase;
constexpr size_t NV = 3;
#endif

/** Load vector v of a tile row; with Tail the last one is masked. */
template <typename T, bool Tail>
inline typename T::V
loadAt(const float *p, size_t v, size_t nv, typename T::Mask m)
{
    if (Tail && v + 1 == nv)
        return T::maskLoad(p + v * T::W, m);
    return T::load(p + v * T::W);
}

template <typename T, bool Tail>
inline void
storeAt(float *p, size_t v, size_t nv, typename T::Mask m, typename T::V x)
{
    if (Tail && v + 1 == nv)
        T::maskStore(p + v * T::W, m, x);
    else
        T::store(p + v * T::W, x);
}

/** One MR x (TNV vectors of T) tile at (r0, j0); with Tail the last
 *  vector covers only the lanes in `m`. */
template <typename T, size_t MR, size_t TNV, bool Tail>
inline void
tile(const Gemm &g, size_t r0, size_t j0, typename T::Mask m)
{
    using V = typename T::V;
    V acc[MR][TNV];
    float *c = g.c + r0 * g.ldc + j0;
#pragma GCC unroll 8
    for (size_t r = 0; r < MR; ++r)
#pragma GCC unroll 8
        for (size_t v = 0; v < TNV; ++v)
            acc[r][v] = g.init == GemmInit::LoadC
                            ? loadAt<T, Tail>(c + r * g.ldc, v, TNV, m)
                            : T::zero();

    const float *a = g.a + r0 * g.aRow;
    const float *b = g.b + j0;
    for (size_t p = 0; p < g.depth; ++p) {
        const float *bp = b + p * g.ldb;
        const float *ap = a + p * g.aStep;
        V bv[TNV];
#pragma GCC unroll 8
        for (size_t v = 0; v < TNV; ++v)
            bv[v] = loadAt<T, Tail>(bp, v, TNV, m);
#pragma GCC unroll 8
        for (size_t r = 0; r < MR; ++r) {
            const V av = T::splat(ap[r * g.aRow]);
#pragma GCC unroll 8
            for (size_t v = 0; v < TNV; ++v)
                acc[r][v] = T::add(acc[r][v], T::mul(av, bv[v]));
        }
    }

#pragma GCC unroll 8
    for (size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 8
        for (size_t v = 0; v < TNV; ++v) {
            V out = acc[r][v];
            if (g.init == GemmInit::AddToC)
                out = T::add(loadAt<T, Tail>(c + r * g.ldc, v, TNV, m), out);
            storeAt<T, Tail>(c + r * g.ldc, v, TNV, m, out);
        }
    }
}

/** The last n < Main::W columns from j0, in the narrowest vector that
 *  holds them: a masked load that spans fewer cache lines. */
template <size_t MR>
inline void
tailTile(const Gemm &g, size_t r0, size_t j0, size_t n)
{
#if defined(H2O_GEMM_AVX512F)
    if (n > Vec256::W) {
        tile<Vec512, MR, 1, true>(g, r0, j0, Vec512::mask(n));
        return;
    }
#endif
#if defined(H2O_GEMM_AVX2) || defined(H2O_GEMM_AVX512F)
    if (n > Vec128::W)
        tile<Vec256, MR, 1, true>(g, r0, j0, Vec256::mask(n));
    else
        tile<Vec128, MR, 1, true>(g, r0, j0, Vec128::mask(n));
#else
    tile<VecBase, MR, 1, true>(g, r0, j0, VecBase::mask(n));
#endif
}

/** All columns of the MR rows starting at r0. */
template <size_t MR>
void
rowBlock(const Gemm &g, size_t r0)
{
    constexpr size_t W = Main::W;
    const Main::Mask unused = Main::mask(0);
    size_t j = 0;
    for (; j + NV * W <= g.cols; j += NV * W)
        tile<Main, MR, NV, false>(g, r0, j, unused);
    for (; j + W <= g.cols; j += W)
        tile<Main, MR, 1, false>(g, r0, j, unused);
    if (j < g.cols)
        tailTile<MR>(g, r0, j, g.cols - j);
}

void
gemmImpl(const Gemm &g)
{
    size_t r = 0;
    for (; r + 4 <= g.rows; r += 4)
        rowBlock<4>(g, r);
    switch (g.rows - r) {
    case 3:
        rowBlock<3>(g, r);
        break;
    case 2:
        rowBlock<2>(g, r);
        break;
    case 1:
        rowBlock<1>(g, r);
        break;
    default:
        break;
    }
}

} // namespace

#if defined(H2O_GEMM_AVX512F)
void
gemmAvx512f(const Gemm &g)
{
    gemmImpl(g);
}
#elif defined(H2O_GEMM_AVX2)
void
gemmAvx2(const Gemm &g)
{
    gemmImpl(g);
}
#else
void
gemmBaseline(const Gemm &g)
{
    gemmImpl(g);
}
#endif

} // namespace h2o::nn::isa
