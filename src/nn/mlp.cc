#include "nn/mlp.h"

#include "common/logging.h"
#include "common/rng.h"

namespace h2o::nn {

Mlp::Mlp(const std::vector<size_t> &dims, Activation hidden_act,
         Activation output_act, common::Rng &rng)
{
    h2o_assert(dims.size() >= 2, "Mlp needs at least input and output dims");
    for (size_t i = 0; i + 1 < dims.size(); ++i) {
        Activation act =
            (i + 2 == dims.size()) ? output_act : hidden_act;
        _layers.push_back(
            std::make_unique<DenseLayer>(dims[i], dims[i + 1], act, rng));
    }
}

const Tensor &
Mlp::forward(const Tensor &input)
{
    const Tensor *x = &input;
    for (auto &layer : _layers)
        x = &layer->forward(*x);
    _lastOutput = x;
    return *x;
}

const Tensor &
Mlp::infer(const Tensor &input, std::array<Tensor, 2> &scratch) const
{
    const Tensor *x = &input;
    for (size_t l = 0; l < _layers.size(); ++l) {
        Tensor &out = scratch[l % 2];
        _layers[l]->infer(*x, out);
        x = &out;
    }
    return *x;
}

const Tensor &
Mlp::backward(const Tensor &grad_out)
{
    h2o_assert(_lastOutput, "backward before forward");
    const Tensor *g = &grad_out;
    for (auto it = _layers.rbegin(); it != _layers.rend(); ++it)
        g = &(*it)->backward(*g);
    return *g;
}

std::vector<ParamRef>
Mlp::params()
{
    std::vector<ParamRef> out;
    for (auto &layer : _layers)
        for (auto &p : layer->params())
            out.push_back(p);
    return out;
}

size_t
Mlp::paramCount() const
{
    size_t n = 0;
    for (const auto &layer : _layers)
        n += layer->activeParamCount();
    return n;
}

} // namespace h2o::nn
