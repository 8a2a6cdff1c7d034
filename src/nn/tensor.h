/**
 * @file
 * A minimal dense tensor: row-major float storage with an explicit shape.
 *
 * The library only needs rank-1 and rank-2 tensors (batches of feature
 * vectors and weight matrices), so Tensor optimizes for that case while
 * still carrying a general shape vector for clarity at call sites.
 */

#ifndef H2O_NN_TENSOR_H
#define H2O_NN_TENSOR_H

#include <cstddef>
#include <string>
#include <vector>

namespace h2o::common { class Rng; }

namespace h2o::nn {

/**
 * Dense row-major float tensor.
 */
class Tensor
{
  public:
    /** An empty (rank-0, zero-element) tensor. */
    Tensor() = default;

    /** A zero-initialized tensor of the given shape. */
    explicit Tensor(std::vector<size_t> shape);

    /** Convenience rank-2 constructor (rows x cols), zero-initialized. */
    Tensor(size_t rows, size_t cols);

    // Copies are counted by the allocation tracker (see tensorAllocCount);
    // moves transfer storage and are free.
    Tensor(const Tensor &other);
    Tensor &operator=(const Tensor &other);
    Tensor(Tensor &&other) noexcept = default;
    Tensor &operator=(Tensor &&other) noexcept = default;

    /**
     * Reshape to rows x cols, reusing existing capacity — the zero-alloc
     * path for per-step workspace buffers. Contents are unspecified
     * afterwards; every element must be overwritten before being read.
     */
    void resizeUninitialized(size_t rows, size_t cols);

    /** As above, for an arbitrary shape. */
    void resizeUninitialized(std::vector<size_t> shape);

    /** Become a copy of src, reusing existing capacity where possible. */
    void copyFrom(const Tensor &src);

    /** The shape vector. */
    const std::vector<size_t> &shape() const { return _shape; }

    /** Total number of elements. */
    size_t size() const { return _data.size(); }

    /** Number of rows; valid for rank-1 (returns 1) and rank-2 tensors. */
    size_t rows() const;

    /** Number of columns; valid for rank-1 and rank-2 tensors. */
    size_t cols() const;

    /** Mutable element access for rank-2 tensors. */
    float &at(size_t r, size_t c);

    /** Const element access for rank-2 tensors. */
    float at(size_t r, size_t c) const;

    /** Mutable flat access. */
    float &operator[](size_t i) { return _data[i]; }

    /** Const flat access. */
    float operator[](size_t i) const { return _data[i]; }

    /** Raw storage. */
    std::vector<float> &data() { return _data; }

    /** Raw storage (const). */
    const std::vector<float> &data() const { return _data; }

    /** Set all elements to zero. */
    void zero();

    /** Fill with a constant. */
    void fill(float v);

    /** Fill with He-normal noise (stddev sqrt(2/fan_in)). */
    void heInit(common::Rng &rng, size_t fan_in);

    /**
     * Fill with N(0, stddev) noise: element i is
     * stddev * common::counterNormal(key, i) for one key drawn from rng
     * (rng advances by one draw whatever the size). The fill splits
     * across CPUs (common::parallelFor) and is bitwise the same at any
     * width.
     */
    void gaussianInit(common::Rng &rng, float stddev);

    /** Sum of all elements. */
    double sum() const;

    /** L2 norm of all elements. */
    double norm() const;

    /** Human-readable shape, e.g. "[32, 128]". */
    std::string shapeStr() const;

  private:
    std::vector<size_t> _shape;
    std::vector<float> _data;
};

/**
 * Number of float-buffer heap allocations (fresh buffers and capacity
 * growths) across all Tensors since the last reset. The allocs/step
 * metric for the zero-alloc workspace bench: a warmed-up layer stack
 * should add zero per forward/backward.
 */
size_t tensorAllocCount();

/** Reset the allocation counter to zero. */
void resetTensorAllocCount();

/**
 * Number of whole-buffer zero fills (zero-initializing constructions and
 * zero() calls) across all Tensors since the last reset. Redundant
 * zeroing — clearing a buffer every element of which is then
 * overwritten — shows up here; hot paths should prefer
 * resizeUninitialized and the kernels' explicit `accumulate` flag.
 */
size_t tensorZeroFillCount();

/** Reset the zero-fill counter to zero. */
void resetTensorZeroFillCount();

} // namespace h2o::nn

#endif // H2O_NN_TENSOR_H
