/**
 * @file
 * Fine-grained weight-shared dense layer for the DLRM super-network.
 *
 * The super-network creates one weight matrix with the largest possible
 * input and output size for each MLP layer; smaller sub-networks retain
 * only the upper-left sub-matrix and mask out the rest (Figure 3, mask ③
 * in the paper). setActive() selects the sub-network before each
 * forward/backward, so successive search steps train different overlapping
 * regions of the same storage — this is exactly the interference-vs-
 * efficiency trade-off the paper's hybrid sharing design manages.
 */

#ifndef H2O_NN_MASKED_DENSE_H
#define H2O_NN_MASKED_DENSE_H

#include "nn/activation.h"
#include "nn/layer.h"

namespace h2o::common { class Rng; }

namespace h2o::nn {

/** Dense layer with a runtime-selected active sub-matrix. */
class MaskedDenseLayer : public Layer
{
  public:
    /**
     * @param max_in  Largest input width any sub-network may use.
     * @param max_out Largest output width any sub-network may use.
     */
    MaskedDenseLayer(size_t max_in, size_t max_out, Activation act,
                     common::Rng &rng);

    /** Allocate zeroed parameters only; initWeights() fills them. */
    MaskedDenseLayer(size_t max_in, size_t max_out, Activation act);

    /** The rng constructor's fill: He-normal weights, zero bias. */
    void initWeights(common::Rng &rng);

    /**
     * Select the active sub-network dimensions.
     * @pre 0 < in <= max_in and 0 < out <= max_out.
     */
    void setActive(size_t in, size_t out);

    /** Set the activation used by the current sub-network. */
    void setActivation(Activation act) { _act = act; }

    /** Currently active input width. */
    size_t activeIn() const { return _activeIn; }

    /** Currently active output width. */
    size_t activeOut() const { return _activeOut; }

    /** Maximum (shared-storage) input width. */
    size_t maxIn() const { return _maxIn; }

    /** Maximum (shared-storage) output width. */
    size_t maxOut() const { return _maxOut; }

    /** Shared weight storage [maxIn, maxOut] (read-only access for the
     *  packed multi-candidate eval pass). */
    const Tensor &weightTensor() const { return _w; }

    /** Shared bias storage [maxOut]. */
    const Tensor &biasTensor() const { return _b; }

    /** The activation applied by forward(). */
    Activation activation() const { return _act; }

    const Tensor &forward(const Tensor &input) override;
    const Tensor &backward(const Tensor &grad_out) override;
    std::vector<ParamRef> params() override;
    size_t activeParamCount() const override;
    std::string describe() const override;

  private:
    size_t _maxIn;
    size_t _maxOut;
    size_t _activeIn;
    size_t _activeOut;
    Activation _act;
    Tensor _w;
    Tensor _b;
    Tensor _wGrad;
    Tensor _bGrad;
    const Tensor *_input = nullptr; ///< forward input (caller-owned)
    Tensor _preact;
    Tensor _output;
    Tensor _dpre; ///< backward scratch (reused across calls)
    Tensor _dx;   ///< input gradient returned by backward
};

} // namespace h2o::nn

#endif // H2O_NN_MASKED_DENSE_H
