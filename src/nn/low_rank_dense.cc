#include "nn/low_rank_dense.h"

#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "nn/ops.h"

namespace h2o::nn {

LowRankDenseLayer::LowRankDenseLayer(size_t max_in, size_t max_rank,
                                     size_t max_out, Activation act,
                                     common::Rng &rng)
    : _maxIn(max_in), _maxRank(max_rank), _maxOut(max_out),
      _activeIn(max_in), _activeRank(max_rank), _activeOut(max_out),
      _act(act), _u(max_in, max_rank), _v(max_rank, max_out),
      _b(std::vector<size_t>{max_out}), _uGrad(max_in, max_rank),
      _vGrad(max_rank, max_out), _bGrad(std::vector<size_t>{max_out})
{
    h2o_assert(max_in > 0 && max_rank > 0 && max_out > 0,
               "LowRankDense with zero max dims");
    _u.heInit(rng, _maxIn);
    _v.heInit(rng, _maxRank);
}

LowRankDenseLayer::LowRankDenseLayer(Tensor u, Tensor v, Tensor b,
                                     Activation act)
    : _maxIn(u.rows()), _maxRank(u.cols()), _maxOut(v.cols()),
      _activeIn(_maxIn), _activeRank(_maxRank), _activeOut(_maxOut),
      _act(act), _u(std::move(u)), _v(std::move(v)), _b(std::move(b)),
      _uGrad(_maxIn, _maxRank), _vGrad(_maxRank, _maxOut),
      _bGrad(std::vector<size_t>{_maxOut})
{
    h2o_assert(_maxIn > 0 && _maxRank > 0 && _maxOut > 0,
               "LowRankDense with zero max dims");
    h2o_assert(_v.rows() == _maxRank && _b.size() == _maxOut,
               "LowRankDense factor shapes do not chain");
}

void
LowRankDenseLayer::setActive(size_t in, size_t rank, size_t out)
{
    h2o_assert(in > 0 && in <= _maxIn, "active in out of range");
    h2o_assert(rank > 0 && rank <= _maxRank, "active rank out of range");
    h2o_assert(out > 0 && out <= _maxOut, "active out out of range");
    _activeIn = in;
    _activeRank = rank;
    _activeOut = out;
}

const Tensor &
LowRankDenseLayer::forward(const Tensor &input)
{
    h2o_assert(input.cols() >= _activeIn, "LowRankDense input too narrow");
    _input = _training ? &input : nullptr;
    _hidden.resizeUninitialized(input.rows(), _activeRank);
    matmulMasked(input, _u, _hidden, _activeIn, _activeRank);
    _preact.resizeUninitialized(input.rows(), _activeOut);
    matmulMasked(_hidden, _v, _preact, _activeRank, _activeOut);
    addBias(_preact, _b, _activeOut);
    if (!_training) {
        // Eval mode: no backward follows, so activate in place.
        activateTensor(_act, _preact, _preact);
        return _preact;
    }
    _output.resizeUninitialized(input.rows(), _activeOut);
    activateTensor(_act, _preact, _output);
    return _output;
}

const Tensor &
LowRankDenseLayer::backward(const Tensor &grad_out)
{
    h2o_assert(_input, "LowRankDense backward before forward");
    h2o_assert(grad_out.rows() == _preact.rows() &&
                   grad_out.cols() == _activeOut,
               "LowRankDense backward width mismatch");
    _dpre.resizeUninitialized(grad_out.rows(), _activeOut);
    activateGradTensor(_act, _preact, grad_out, _dpre);

    // dV += H^T dpre ; db += col-sums ; dH = dpre V^T
    matmulTransAMasked(_hidden, _dpre, _vGrad, _activeRank, _activeOut);
    for (size_t r = 0; r < _dpre.rows(); ++r)
        for (size_t c = 0; c < _activeOut; ++c)
            _bGrad[c] += _dpre.at(r, c);

    _dh.resizeUninitialized(_dpre.rows(), _activeRank);
    matmulTransBMasked(_dpre, _v, _dh, _activeOut, _activeRank);

    // dU += X^T dH ; dX = dH U^T
    matmulTransAMasked(*_input, _dh, _uGrad, _activeIn, _activeRank);
    _dx.resizeUninitialized(_dpre.rows(), _activeIn);
    matmulTransBMasked(_dh, _u, _dx, _activeRank, _activeIn);
    return _dx;
}

std::vector<ParamRef>
LowRankDenseLayer::params()
{
    return {{&_u, &_uGrad}, {&_v, &_vGrad}, {&_b, &_bGrad}};
}

size_t
LowRankDenseLayer::activeParamCount() const
{
    return _activeIn * _activeRank + _activeRank * _activeOut + _activeOut;
}

std::string
LowRankDenseLayer::describe() const
{
    std::ostringstream oss;
    oss << "LowRankDense(" << _activeIn << " -r" << _activeRank << "-> "
        << _activeOut << ", " << activationName(_act) << ")";
    return oss.str();
}

} // namespace h2o::nn
