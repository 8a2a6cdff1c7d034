#include "nn/masked_dense.h"

#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "nn/ops.h"

namespace h2o::nn {

MaskedDenseLayer::MaskedDenseLayer(size_t max_in, size_t max_out,
                                   Activation act, common::Rng &rng)
    : _maxIn(max_in), _maxOut(max_out), _activeIn(max_in),
      _activeOut(max_out), _act(act), _w(max_in, max_out),
      _b(std::vector<size_t>{max_out}), _wGrad(max_in, max_out),
      _bGrad(std::vector<size_t>{max_out})
{
    h2o_assert(max_in > 0 && max_out > 0, "MaskedDense with zero max dims");
    _w.heInit(rng, _maxIn);
}

void
MaskedDenseLayer::setActive(size_t in, size_t out)
{
    h2o_assert(in > 0 && in <= _maxIn, "active in ", in,
               " out of range (max ", _maxIn, ")");
    h2o_assert(out > 0 && out <= _maxOut, "active out ", out,
               " out of range (max ", _maxOut, ")");
    _activeIn = in;
    _activeOut = out;
}

const Tensor &
MaskedDenseLayer::forward(const Tensor &input)
{
    h2o_assert(input.cols() >= _activeIn,
               "MaskedDense input width ", input.cols(), " < active in ",
               _activeIn);
    _input = _training ? &input : nullptr;
    _preact.resizeUninitialized(input.rows(), _activeOut);
    matmulMasked(input, _w, _preact, _activeIn, _activeOut);
    addBias(_preact, _b, _activeOut);
    if (!_training) {
        // Eval mode: no backward will read the pre-activations, so
        // activate in place (bitwise-identical values; activateTensor
        // allows aliasing) and skip the separate output buffer.
        activateTensor(_act, _preact, _preact);
        return _preact;
    }
    _output.resizeUninitialized(input.rows(), _activeOut);
    activateTensor(_act, _preact, _output);
    return _output;
}

const Tensor &
MaskedDenseLayer::backward(const Tensor &grad_out)
{
    h2o_assert(_input, "MaskedDense backward before forward");
    h2o_assert(grad_out.rows() == _preact.rows() &&
                   grad_out.cols() == _activeOut,
               "MaskedDense backward width mismatch");
    _dpre.resizeUninitialized(grad_out.rows(), _activeOut);
    activateGradTensor(_act, _preact, grad_out, _dpre);

    matmulTransAMasked(*_input, _dpre, _wGrad, _activeIn, _activeOut);
    for (size_t r = 0; r < _dpre.rows(); ++r)
        for (size_t c = 0; c < _activeOut; ++c)
            _bGrad[c] += _dpre.at(r, c);

    _dx.resizeUninitialized(_dpre.rows(), _activeIn);
    matmulTransBMasked(_dpre, _w, _dx, _activeOut, _activeIn);
    return _dx;
}

std::vector<ParamRef>
MaskedDenseLayer::params()
{
    return {{&_w, &_wGrad}, {&_b, &_bGrad}};
}

size_t
MaskedDenseLayer::activeParamCount() const
{
    return _activeIn * _activeOut + _activeOut;
}

std::string
MaskedDenseLayer::describe() const
{
    std::ostringstream oss;
    oss << "MaskedDense(" << _activeIn << "/" << _maxIn << " -> "
        << _activeOut << "/" << _maxOut << ", " << activationName(_act)
        << ")";
    return oss.str();
}

} // namespace h2o::nn
