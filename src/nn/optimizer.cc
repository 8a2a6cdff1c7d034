#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel.h"

namespace h2o::nn {

namespace {

/** Part boundaries fall on multiples of one 64-byte line of floats. */
constexpr size_t kElementAlign = 16;

/**
 * Run fn(param, begin, end) over every parameter's elements, laid end to
 * end (`offsets`) and split across CPUs (common::parallelFor). Only for
 * elementwise updates: each element reads and writes itself alone, so
 * any split is bitwise equal to one serial pass.
 *
 * @param work_per_element Cost of one element's update, in parallelFor
 *        work units.
 */
template <typename Fn>
void
forEachElementRange(const std::vector<ParamRef> &params,
                    const std::vector<size_t> &offsets,
                    size_t work_per_element, Fn &&fn)
{
    const size_t total = offsets.back();
    common::parallelFor(
        total, kElementAlign, total * work_per_element,
        [&](size_t begin, size_t end) {
            size_t i = size_t(std::upper_bound(offsets.begin(),
                                               offsets.end(), begin) -
                              offsets.begin()) -
                       1;
            for (; i < params.size() && offsets[i] < end; ++i) {
                size_t lo = std::max(begin, offsets[i]) - offsets[i];
                size_t hi = std::min(end, offsets[i + 1]) - offsets[i];
                if (lo < hi)
                    fn(i, lo, hi);
            }
        });
}

} // namespace

Optimizer::Optimizer(std::vector<ParamRef> params)
    : _params(std::move(params))
{
    _offsets.reserve(_params.size() + 1);
    _offsets.push_back(0);
    for (const auto &p : _params) {
        h2o_assert(p.value && p.grad, "null ParamRef");
        h2o_assert(p.value->size() == p.grad->size(),
                   "param/grad size mismatch");
        _offsets.push_back(_offsets.back() + p.value->size());
    }
}

void
Optimizer::zeroGrad()
{
    for (auto &p : _params)
        p.grad->zero();
}

double
Optimizer::gradNorm() const
{
    double acc = 0.0;
    for (const auto &p : _params)
        for (float g : p.grad->data())
            acc += static_cast<double>(g) * static_cast<double>(g);
    return std::sqrt(acc);
}

void
Optimizer::clipGradNorm(double max_norm)
{
    h2o_assert(max_norm > 0.0, "clipGradNorm with non-positive max");
    double norm = gradNorm();
    if (norm <= max_norm || norm == 0.0)
        return;
    float scale = static_cast<float>(max_norm / norm);
    for (auto &p : _params)
        for (auto &g : p.grad->data())
            g *= scale;
}

SgdOptimizer::SgdOptimizer(std::vector<ParamRef> params, double lr,
                           double momentum, double weight_decay)
    : Optimizer(std::move(params)), _momentum(momentum),
      _weightDecay(weight_decay)
{
    _lr = lr;
    if (_momentum != 0.0) {
        _velocity.reserve(_params.size());
        for (const auto &p : _params)
            _velocity.emplace_back(p.value->shape());
    }
}

void
SgdOptimizer::step()
{
    const float lr = static_cast<float>(_lr);
    const float momentum = static_cast<float>(_momentum);
    const float decay = static_cast<float>(_weightDecay);
    auto update = [&](size_t i, size_t lo, size_t hi) {
        float *vp = _params[i].value->data().data();
        float *gp = _params[i].grad->data().data();
        float *vel = _velocity.empty() ? nullptr : _velocity[i].data().data();
        for (size_t j = lo; j < hi; ++j) {
            float g = gp[j];
            if (_weightDecay != 0.0)
                g += decay * vp[j];
            if (vel) {
                vel[j] = momentum * vel[j] + g;
                g = vel[j];
            }
            vp[j] -= lr * g;
        }
        std::fill(gp + lo, gp + hi, 0.0f);
    };
    forEachElementRange(_params, _offsets, 2, update);
}

AdamOptimizer::AdamOptimizer(std::vector<ParamRef> params, double lr,
                             double beta1, double beta2, double eps)
    : Optimizer(std::move(params)), _beta1(beta1), _beta2(beta2), _eps(eps)
{
    _lr = lr;
    _m.reserve(_params.size());
    _v.reserve(_params.size());
    for (const auto &p : _params) {
        _m.emplace_back(p.value->shape());
        _v.emplace_back(p.value->shape());
    }
}

void
AdamOptimizer::step()
{
    ++_t;
    double bc1 = 1.0 - std::pow(_beta1, static_cast<double>(_t));
    double bc2 = 1.0 - std::pow(_beta2, static_cast<double>(_t));
    auto update = [&](size_t i, size_t lo, size_t hi) {
        float *vp = _params[i].value->data().data();
        float *gp = _params[i].grad->data().data();
        float *mp = _m[i].data().data();
        float *vvp = _v[i].data().data();
        // Elementwise update: each lane is independent and keeps the
        // exact scalar expression order, so vectorization is
        // bit-identical to the serial loop.
#pragma omp simd
        for (size_t j = lo; j < hi; ++j) {
            double g = gp[j];
            mp[j] = static_cast<float>(_beta1 * mp[j] + (1.0 - _beta1) * g);
            vvp[j] =
                static_cast<float>(_beta2 * vvp[j] + (1.0 - _beta2) * g * g);
            double mhat = mp[j] / bc1;
            double vhat = vvp[j] / bc2;
            vp[j] -= static_cast<float>(_lr * mhat /
                                        (std::sqrt(vhat) + _eps));
        }
        std::fill(gp + lo, gp + hi, 0.0f);
    };
    forEachElementRange(_params, _offsets, 8, update);
}

} // namespace h2o::nn
