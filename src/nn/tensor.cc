#include "nn/tensor.h"

#include <atomic>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace h2o::nn {

namespace {

size_t
shapeSize(const std::vector<size_t> &shape)
{
    size_t n = 1;
    for (size_t d : shape)
        n *= d;
    return shape.empty() ? 0 : n;
}

/** gaussianInit parts start on multiples of one 64-byte line of floats
 *  (even, so no part splits a Box-Muller pair). */
constexpr size_t kInitAlign = 16;

/** parallelFor work units per gaussianInit element: half a log, sqrt
 *  and sin/cos, about as long as a few dozen multiply-adds. */
constexpr size_t kInitWorkPerElement = 32;

std::atomic<size_t> g_allocCount{0};
std::atomic<size_t> g_zeroFillCount{0};

/** Record a fresh float-buffer allocation (or capacity growth). */
void
countAlloc(size_t elements)
{
    if (elements > 0)
        g_allocCount.fetch_add(1, std::memory_order_relaxed);
}

/** Record a whole-buffer zero fill. */
void
countZeroFill(size_t elements)
{
    if (elements > 0)
        g_zeroFillCount.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

size_t
tensorAllocCount()
{
    return g_allocCount.load(std::memory_order_relaxed);
}

void
resetTensorAllocCount()
{
    g_allocCount.store(0, std::memory_order_relaxed);
}

size_t
tensorZeroFillCount()
{
    return g_zeroFillCount.load(std::memory_order_relaxed);
}

void
resetTensorZeroFillCount()
{
    g_zeroFillCount.store(0, std::memory_order_relaxed);
}

Tensor::Tensor(std::vector<size_t> shape)
    : _shape(std::move(shape)), _data(shapeSize(_shape), 0.0f)
{
    countAlloc(_data.size());
    countZeroFill(_data.size());
}

Tensor::Tensor(size_t rows, size_t cols) : Tensor(std::vector<size_t>{rows, cols})
{
}

Tensor::Tensor(const Tensor &other)
    : _shape(other._shape), _data(other._data)
{
    countAlloc(_data.size());
}

Tensor &
Tensor::operator=(const Tensor &other)
{
    if (this == &other)
        return *this;
    if (other._data.size() > _data.capacity())
        countAlloc(other._data.size());
    _shape = other._shape;
    _data.assign(other._data.begin(), other._data.end());
    return *this;
}

void
Tensor::resizeUninitialized(size_t rows, size_t cols)
{
    resizeUninitialized(std::vector<size_t>{rows, cols});
}

void
Tensor::resizeUninitialized(std::vector<size_t> shape)
{
    size_t n = shapeSize(shape);
    if (n > _data.capacity())
        countAlloc(n);
    _shape = std::move(shape);
    _data.resize(n);
}

void
Tensor::copyFrom(const Tensor &src)
{
    if (this == &src)
        return;
    if (src._data.size() > _data.capacity())
        countAlloc(src._data.size());
    _shape = src._shape;
    _data.assign(src._data.begin(), src._data.end());
}

size_t
Tensor::rows() const
{
    h2o_assert(_shape.size() <= 2, "rows() on rank-", _shape.size(),
               " tensor");
    if (_shape.size() == 2)
        return _shape[0];
    return 1;
}

size_t
Tensor::cols() const
{
    h2o_assert(!_shape.empty() && _shape.size() <= 2,
               "cols() on rank-", _shape.size(), " tensor");
    return _shape.back();
}

float &
Tensor::at(size_t r, size_t c)
{
    h2o_assert(_shape.size() == 2, "at(r,c) on non-matrix tensor");
    h2o_assert(r < _shape[0] && c < _shape[1], "index (", r, ",", c,
               ") out of bounds for ", shapeStr());
    return _data[r * _shape[1] + c];
}

float
Tensor::at(size_t r, size_t c) const
{
    h2o_assert(_shape.size() == 2, "at(r,c) on non-matrix tensor");
    h2o_assert(r < _shape[0] && c < _shape[1], "index (", r, ",", c,
               ") out of bounds for ", shapeStr());
    return _data[r * _shape[1] + c];
}

void
Tensor::zero()
{
    countZeroFill(_data.size());
    std::fill(_data.begin(), _data.end(), 0.0f);
}

void
Tensor::fill(float v)
{
    std::fill(_data.begin(), _data.end(), v);
}

void
Tensor::heInit(common::Rng &rng, size_t fan_in)
{
    h2o_assert(fan_in > 0, "heInit with zero fan_in");
    float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
    gaussianInit(rng, stddev);
}

void
Tensor::gaussianInit(common::Rng &rng, float stddev)
{
    // Element i is stddev * counterNormal(key, i): a pure function of
    // one key and the index, so the fill splits across CPUs by index
    // and writes the same values at any width. Parts start on even
    // indices, so each Box-Muller pair is drawn once.
    const uint64_t key = rng.next64();
    float *d = _data.data();
    const size_t n = _data.size();
    common::parallelFor(
        n, kInitAlign, n * kInitWorkPerElement,
        [=](size_t begin, size_t end) {
            for (size_t i = begin; i < end; i += 2) {
                float z[2];
                common::counterNormalPair(key, i / 2, z);
                d[i] = stddev * z[0];
                if (i + 1 < end)
                    d[i + 1] = stddev * z[1];
            }
        });
}

double
Tensor::sum() const
{
    return std::accumulate(_data.begin(), _data.end(), 0.0);
}

double
Tensor::norm() const
{
    double acc = 0.0;
    for (float v : _data)
        acc += static_cast<double>(v) * static_cast<double>(v);
    return std::sqrt(acc);
}

std::string
Tensor::shapeStr() const
{
    std::ostringstream oss;
    oss << "[";
    for (size_t i = 0; i < _shape.size(); ++i) {
        if (i)
            oss << ", ";
        oss << _shape[i];
    }
    oss << "]";
    return oss.str();
}

} // namespace h2o::nn
