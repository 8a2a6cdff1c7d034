#include "nn/dense.h"

#include <sstream>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "nn/ops.h"

namespace h2o::nn {

namespace {

/** Bias-gradient parts start on a 64-byte line of floats. */
constexpr size_t kBiasColumnAlign = 16;

} // namespace

DenseLayer::DenseLayer(size_t in, size_t out, Activation act,
                       common::Rng &rng)
    : _in(in), _out(out), _act(act), _w(in, out),
      _b(std::vector<size_t>{out}), _wGrad(in, out),
      _bGrad(std::vector<size_t>{out})
{
    h2o_assert(in > 0 && out > 0, "DenseLayer with zero dimension");
    _w.heInit(rng, in);
}

DenseLayer::DenseLayer(Tensor w, Tensor b, Activation act)
    : _in(w.rows()), _out(w.cols()), _act(act), _w(std::move(w)),
      _b(std::move(b)), _wGrad(_in, _out), _bGrad(std::vector<size_t>{_out})
{
    h2o_assert(_in > 0 && _out > 0, "DenseLayer with zero dimension");
    h2o_assert(_b.size() == _out, "DenseLayer bias has ", _b.size(),
               " entries for ", _out, " outputs");
}

const Tensor &
DenseLayer::forward(const Tensor &input)
{
    h2o_assert(input.cols() == _in, "DenseLayer input width ", input.cols(),
               " != ", _in);
    _input = &input;
    _preact.resizeUninitialized(input.rows(), _out);
    matmul(input, _w, _preact);
    addBias(_preact, _b, _out);
    _output.resizeUninitialized(input.rows(), _out);
    activateTensor(_act, _preact, _output);
    return _output;
}

void
DenseLayer::infer(const Tensor &input, Tensor &out) const
{
    h2o_assert(input.cols() == _in, "DenseLayer input width ", input.cols(),
               " != ", _in);
    // forward()'s kernels with the activation applied in place.
    out.resizeUninitialized(input.rows(), _out);
    matmul(input, _w, out);
    addBias(out, _b, _out);
    activateTensor(_act, out, out);
}

const Tensor &
DenseLayer::backward(const Tensor &grad_out)
{
    h2o_assert(_input, "DenseLayer backward before forward");
    h2o_assert(grad_out.rows() == _preact.rows() &&
                   grad_out.cols() == _out,
               "DenseLayer backward shape mismatch");
    // dL/dpre = dL/dy * act'(pre)
    _dpre.resizeUninitialized(grad_out.rows(), _out);
    activateGradTensor(_act, _preact, grad_out, _dpre);

    // dW += X^T dpre ; db += col-sums of dpre ; dX = dpre W^T
    matmulTransAMasked(*_input, _dpre, _wGrad, _in, _out);
    // Column sums split by column: each column still adds its rows in
    // ascending order, so the split is bitwise equal to one pass.
    const float *dp = _dpre.data().data();
    float *bg = _bGrad.data().data();
    const size_t rows = _dpre.rows();
    common::parallelFor(_out, kBiasColumnAlign, rows * _out,
                        [&](size_t c0, size_t c1) {
                            for (size_t r = 0; r < rows; ++r) {
                                const float *row = dp + r * _out;
#pragma omp simd
                                for (size_t c = c0; c < c1; ++c)
                                    bg[c] += row[c];
                            }
                        });

    if (!_needInputGrad) {
        // First-layer fast path: nothing consumes dX, skip its matmul.
        _dx.resizeUninitialized(0, 0);
        return _dx;
    }
    _dx.resizeUninitialized(_dpre.rows(), _in);
    matmulTransBMasked(_dpre, _w, _dx, _out, _in);
    return _dx;
}

std::vector<ParamRef>
DenseLayer::params()
{
    return {{&_w, &_wGrad}, {&_b, &_bGrad}};
}

size_t
DenseLayer::activeParamCount() const
{
    return _in * _out + _out;
}

std::string
DenseLayer::describe() const
{
    std::ostringstream oss;
    oss << "Dense(" << _in << "->" << _out << ", "
        << activationName(_act) << ")";
    return oss.str();
}

} // namespace h2o::nn
