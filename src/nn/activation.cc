#include "nn/activation.h"

#include <cmath>

#include "common/logging.h"
#include "nn/tensor.h"

namespace h2o::nn {

namespace {

float
sigmoidf(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

/** Apply f element-wise: out[i] = f(pre[i]). */
template <typename F>
void
mapTensor(const Tensor &pre, Tensor &out, F f)
{
    const float *p = pre.data().data();
    float *o = out.data().data();
    size_t n = pre.size();
    for (size_t i = 0; i < n; ++i)
        o[i] = f(p[i]);
}

/** Fused backward map: dpre[i] = grad_out[i] * df(pre[i]). */
template <typename F>
void
mapGradTensor(const Tensor &pre, const Tensor &grad_out, Tensor &dpre, F df)
{
    const float *p = pre.data().data();
    const float *g = grad_out.data().data();
    float *d = dpre.data().data();
    size_t n = pre.size();
    // Lanes are independent (d may alias g only index for index), so
    // df's selects vectorize as blends (see CMakeLists.txt).
#pragma omp simd
    for (size_t i = 0; i < n; ++i)
        d[i] = g[i] * df(p[i]);
}

/** Row-range, column-prefix map: out(i, j) = f(pre(i, j)). */
template <typename F>
void
mapTensorRows(const Tensor &pre, Tensor &out, size_t row0, size_t rows,
              size_t n_act, F f)
{
    const float *p = pre.data().data();
    float *o = out.data().data();
    size_t stride = pre.cols();
    for (size_t i = row0; i < row0 + rows; ++i) {
        const float *prow = p + i * stride;
        float *orow = o + i * stride;
        for (size_t j = 0; j < n_act; ++j)
            orow[j] = f(prow[j]);
    }
}

} // namespace

void
activateTensorRows(Activation act, const Tensor &pre, Tensor &out,
                   size_t row0, size_t rows, size_t n_act)
{
    h2o_assert(out.size() == pre.size() && out.cols() == pre.cols(),
               "activateTensorRows shape mismatch");
    h2o_assert(row0 + rows <= pre.rows() && n_act <= pre.cols(),
               "activateTensorRows range out of bounds");
    switch (act) {
      case Activation::Identity:
        if (&out != &pre)
            mapTensorRows(pre, out, row0, rows, n_act,
                          [](float x) { return x; });
        return;
      case Activation::ReLU:
        mapTensorRows(pre, out, row0, rows, n_act,
                      [](float x) { return x > 0.0f ? x : 0.0f; });
        return;
      case Activation::Swish:
        mapTensorRows(pre, out, row0, rows, n_act,
                      [](float x) { return x * sigmoidf(x); });
        return;
      case Activation::GeLU:
        mapTensorRows(pre, out, row0, rows, n_act, [](float x) {
            return 0.5f * x *
                   (1.0f +
                    std::tanh(0.7978845608f * (x + 0.044715f * x * x * x)));
        });
        return;
      case Activation::SquaredReLU:
        mapTensorRows(pre, out, row0, rows, n_act, [](float x) {
            float r = x > 0.0f ? x : 0.0f;
            return r * r;
        });
        return;
      case Activation::Sigmoid:
        mapTensorRows(pre, out, row0, rows, n_act,
                      [](float x) { return sigmoidf(x); });
        return;
      case Activation::Tanh:
        mapTensorRows(pre, out, row0, rows, n_act,
                      [](float x) { return std::tanh(x); });
        return;
    }
    h2o_panic("unhandled activation");
}

void
activateTensor(Activation act, const Tensor &pre, Tensor &out)
{
    h2o_assert(out.size() == pre.size(), "activateTensor size mismatch");
    switch (act) {
      case Activation::Identity:
        if (&out != &pre)
            mapTensor(pre, out, [](float x) { return x; });
        return;
      case Activation::ReLU:
        mapTensor(pre, out, [](float x) { return x > 0.0f ? x : 0.0f; });
        return;
      case Activation::Swish:
        mapTensor(pre, out, [](float x) { return x * sigmoidf(x); });
        return;
      case Activation::GeLU:
        mapTensor(pre, out, [](float x) {
            return 0.5f * x *
                   (1.0f +
                    std::tanh(0.7978845608f * (x + 0.044715f * x * x * x)));
        });
        return;
      case Activation::SquaredReLU:
        mapTensor(pre, out, [](float x) {
            float r = x > 0.0f ? x : 0.0f;
            return r * r;
        });
        return;
      case Activation::Sigmoid:
        mapTensor(pre, out, [](float x) { return sigmoidf(x); });
        return;
      case Activation::Tanh:
        mapTensor(pre, out, [](float x) { return std::tanh(x); });
        return;
    }
    h2o_panic("unhandled activation");
}

void
activateGradTensor(Activation act, const Tensor &pre, const Tensor &grad_out,
                   Tensor &dpre)
{
    h2o_assert(pre.size() == grad_out.size() && pre.size() == dpre.size(),
               "activateGradTensor size mismatch");
    switch (act) {
      case Activation::Identity:
        if (&dpre != &grad_out)
            mapGradTensor(pre, grad_out, dpre, [](float) { return 1.0f; });
        return;
      case Activation::ReLU:
        mapGradTensor(pre, grad_out, dpre,
                      [](float x) { return x > 0.0f ? 1.0f : 0.0f; });
        return;
      case Activation::Swish:
        mapGradTensor(pre, grad_out, dpre, [](float x) {
            float s = sigmoidf(x);
            return s + x * s * (1.0f - s);
        });
        return;
      case Activation::GeLU:
        mapGradTensor(pre, grad_out, dpre, [](float x) {
            float c = 0.7978845608f;
            float inner = c * (x + 0.044715f * x * x * x);
            float t = std::tanh(inner);
            float dinner = c * (1.0f + 3.0f * 0.044715f * x * x);
            return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
        });
        return;
      case Activation::SquaredReLU:
        mapGradTensor(pre, grad_out, dpre,
                      [](float x) { return x > 0.0f ? 2.0f * x : 0.0f; });
        return;
      case Activation::Sigmoid:
        mapGradTensor(pre, grad_out, dpre, [](float x) {
            float s = sigmoidf(x);
            return s * (1.0f - s);
        });
        return;
      case Activation::Tanh:
        mapGradTensor(pre, grad_out, dpre, [](float x) {
            float t = std::tanh(x);
            return 1.0f - t * t;
        });
        return;
    }
    h2o_panic("unhandled activation");
}

float
activate(Activation act, float x)
{
    switch (act) {
      case Activation::Identity:
        return x;
      case Activation::ReLU:
        return x > 0.0f ? x : 0.0f;
      case Activation::Swish:
        return x * sigmoidf(x);
      case Activation::GeLU:
        // tanh approximation of GeLU.
        return 0.5f * x *
               (1.0f + std::tanh(0.7978845608f * (x + 0.044715f * x * x * x)));
      case Activation::SquaredReLU: {
        float r = x > 0.0f ? x : 0.0f;
        return r * r;
      }
      case Activation::Sigmoid:
        return sigmoidf(x);
      case Activation::Tanh:
        return std::tanh(x);
    }
    h2o_panic("unhandled activation");
}

float
activateGrad(Activation act, float x)
{
    switch (act) {
      case Activation::Identity:
        return 1.0f;
      case Activation::ReLU:
        return x > 0.0f ? 1.0f : 0.0f;
      case Activation::Swish: {
        float s = sigmoidf(x);
        return s + x * s * (1.0f - s);
      }
      case Activation::GeLU: {
        // Derivative of the tanh approximation.
        float c = 0.7978845608f;
        float inner = c * (x + 0.044715f * x * x * x);
        float t = std::tanh(inner);
        float dinner = c * (1.0f + 3.0f * 0.044715f * x * x);
        return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
      }
      case Activation::SquaredReLU:
        return x > 0.0f ? 2.0f * x : 0.0f;
      case Activation::Sigmoid: {
        float s = sigmoidf(x);
        return s * (1.0f - s);
      }
      case Activation::Tanh: {
        float t = std::tanh(x);
        return 1.0f - t * t;
      }
    }
    h2o_panic("unhandled activation");
}

std::string
activationName(Activation act)
{
    switch (act) {
      case Activation::Identity:
        return "identity";
      case Activation::ReLU:
        return "relu";
      case Activation::Swish:
        return "swish";
      case Activation::GeLU:
        return "gelu";
      case Activation::SquaredReLU:
        return "squared_relu";
      case Activation::Sigmoid:
        return "sigmoid";
      case Activation::Tanh:
        return "tanh";
    }
    h2o_panic("unhandled activation");
}

Activation
activationFromName(const std::string &name)
{
    if (name == "identity")
        return Activation::Identity;
    if (name == "relu")
        return Activation::ReLU;
    if (name == "swish")
        return Activation::Swish;
    if (name == "gelu")
        return Activation::GeLU;
    if (name == "squared_relu")
        return Activation::SquaredReLU;
    if (name == "sigmoid")
        return Activation::Sigmoid;
    if (name == "tanh")
        return Activation::Tanh;
    h2o_fatal("unknown activation '", name, "'");
}

double
activationVpuCost(Activation act)
{
    switch (act) {
      case Activation::Identity:
        return 0.0;
      case Activation::ReLU:
        return 1.0;
      case Activation::SquaredReLU:
        return 2.0; // compare + multiply
      case Activation::Sigmoid:
        return 4.0;
      case Activation::Tanh:
        return 4.0;
      case Activation::Swish:
        return 5.0; // sigmoid + multiply
      case Activation::GeLU:
        return 6.0; // tanh approximation + polynomial
    }
    h2o_panic("unhandled activation");
}

} // namespace h2o::nn
