/**
 * @file
 * A fixed-shape multi-layer perceptron built from DenseLayers.
 *
 * This is the workhorse for the two-phase hybrid performance model
 * (the paper's Table 1 uses a 2-layer, 512-neuron MLP) and for any
 * fixed-architecture network (e.g. the ground-truth teacher in the
 * synthetic traffic generator).
 */

#ifndef H2O_NN_MLP_H
#define H2O_NN_MLP_H

#include <array>
#include <memory>
#include <vector>

#include "nn/activation.h"
#include "nn/dense.h"

namespace h2o::common { class Rng; }

namespace h2o::nn {

/** Fully-connected feed-forward network. */
class Mlp
{
  public:
    /**
     * @param dims        Layer widths including input and output, e.g.
     *                    {in, 512, 512, out} builds a 2-hidden-layer MLP.
     * @param hidden_act  Activation for hidden layers.
     * @param output_act  Activation for the output layer (Identity for
     *                    regression, Sigmoid only if probabilities are
     *                    needed directly).
     */
    Mlp(const std::vector<size_t> &dims, Activation hidden_act,
        Activation output_act, common::Rng &rng);

    /**
     * Forward pass over a [batch, in] tensor. The first layer caches
     * `input` by pointer: keep it alive and unmodified until backward.
     */
    const Tensor &forward(const Tensor &input);

    /**
     * Inference forward over a [batch, in] tensor through two
     * caller-owned ping-pong buffers; returns a reference to one of
     * them. Writes no network state, so concurrent calls with distinct
     * scratch are safe. Outputs are bitwise equal to forward()'s (same
     * kernels, same order).
     */
    const Tensor &infer(const Tensor &input,
                        std::array<Tensor, 2> &scratch) const;

    /** Backward pass; returns the gradient w.r.t. the input — a
     *  reference to the first layer's buffer, valid until the next
     *  backward. */
    const Tensor &backward(const Tensor &grad_out);

    /** All parameters for optimizer construction. */
    std::vector<ParamRef> params();

    /** Total parameter count. */
    size_t paramCount() const;

    /** Number of layers. */
    size_t numLayers() const { return _layers.size(); }

    /** Access a layer (for tests / inspection). */
    DenseLayer &layer(size_t i) { return *_layers.at(i); }
    const DenseLayer &layer(size_t i) const { return *_layers.at(i); }

    /**
     * Enable/disable the input-gradient matmul of the FIRST layer. When
     * the network's input is data (not an upstream layer's activation),
     * backward()'s return value is unused and the dX product is wasted
     * work; disabling it returns an empty tensor from backward().
     */
    void setInputGradEnabled(bool enabled)
    {
        _layers.front()->setNeedInputGrad(enabled);
    }

  private:
    std::vector<std::unique_ptr<DenseLayer>> _layers;
    const Tensor *_lastOutput = nullptr;
};

} // namespace h2o::nn

#endif // H2O_NN_MLP_H
