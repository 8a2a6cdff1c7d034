/**
 * @file
 * A plain fully-connected layer: y = act(x W + b).
 *
 * Used by the MLP performance model (Section 6.2.1 of the paper: a 2-layer,
 * 512-neuron MLP predicting training/serving performance) and anywhere a
 * fixed-shape layer is needed.
 */

#ifndef H2O_NN_DENSE_H
#define H2O_NN_DENSE_H

#include "nn/activation.h"
#include "nn/layer.h"

namespace h2o::common { class Rng; }

namespace h2o::nn {

/** Fixed-shape fully-connected layer. */
class DenseLayer : public Layer
{
  public:
    /**
     * @param in   Input feature count.
     * @param out  Output feature count.
     * @param act  Activation applied to the affine output.
     * @param rng  Stream for He-normal weight initialization.
     */
    DenseLayer(size_t in, size_t out, Activation act, common::Rng &rng);

    const Tensor &forward(const Tensor &input) override;
    const Tensor &backward(const Tensor &grad_out) override;

    /**
     * Inference forward into the caller-owned `out` (reshaped here).
     * Writes no layer state, so any number of threads may call it at
     * once; values are bitwise equal to forward()'s.
     */
    void infer(const Tensor &input, Tensor &out) const;
    std::vector<ParamRef> params() override;
    size_t activeParamCount() const override;
    std::string describe() const override;

    /** Input width. */
    size_t inDim() const { return _in; }

    /** Output width. */
    size_t outDim() const { return _out; }

    /** Weight matrix (in x out). */
    Tensor &weights() { return _w; }
    const Tensor &weights() const { return _w; }

    /** Bias vector. */
    Tensor &bias() { return _b; }
    const Tensor &bias() const { return _b; }

    /**
     * When disabled, backward() skips the dX = dpre W^T matmul and
     * returns an empty tensor. Only valid for a network's first layer,
     * whose input gradient has no consumer (e.g. the perf model trains
     * on fixed feature rows) — roughly a third of the layer's backward
     * FLOPs for free.
     */
    void setNeedInputGrad(bool need) { _needInputGrad = need; }

  private:
    size_t _in;
    size_t _out;
    Activation _act;
    Tensor _w;
    Tensor _b;
    Tensor _wGrad;
    Tensor _bGrad;
    const Tensor *_input = nullptr; ///< forward input (caller-owned)
    Tensor _preact;  ///< cached pre-activation (reused across calls)
    Tensor _output;  ///< cached activation output (reused across calls)
    Tensor _dpre;    ///< backward scratch (reused across calls)
    Tensor _dx;      ///< input gradient returned by backward
    bool _needInputGrad = true;
};

} // namespace h2o::nn

#endif // H2O_NN_DENSE_H
