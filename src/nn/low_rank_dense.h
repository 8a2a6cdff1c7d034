/**
 * @file
 * Low-rank factorized dense layer with a searchable rank.
 *
 * y = act((x U) V + b) with U: max_in x max_rank, V: max_rank x max_out.
 * The active rank masks columns of U and rows of V (Figure 3, mask ④),
 * so the rank itself is a weight-shared categorical decision: as the
 * paper notes, both the rank and the low-rank weights are learned directly,
 * without ever materializing the full-rank matrix. Reducing rank cuts
 * compute; the search balances that against quality loss while keeping
 * every tensor dimension large enough to feed the hardware tensor units.
 */

#ifndef H2O_NN_LOW_RANK_DENSE_H
#define H2O_NN_LOW_RANK_DENSE_H

#include "nn/activation.h"
#include "nn/layer.h"

namespace h2o::common { class Rng; }

namespace h2o::nn {

/** Low-rank dense layer with runtime-selected rank and widths. */
class LowRankDenseLayer : public Layer
{
  public:
    /** He-normal U then V (two draws from rng), zero bias. */
    LowRankDenseLayer(size_t max_in, size_t max_rank, size_t max_out,
                      Activation act, common::Rng &rng);

    /** A layer over given factors, all of them active: u [in, rank],
     *  v [rank, out], bias b [out] (a model copied out of trained
     *  storage). */
    LowRankDenseLayer(Tensor u, Tensor v, Tensor b, Activation act);

    /**
     * Select the active sub-network.
     * @pre dims positive and within the max bounds.
     */
    void setActive(size_t in, size_t rank, size_t out);

    /** Currently active rank. */
    size_t activeRank() const { return _activeRank; }

    /** Currently active input width. */
    size_t activeIn() const { return _activeIn; }

    /** Currently active output width. */
    size_t activeOut() const { return _activeOut; }

    /** Shared U factor storage [maxIn, maxRank] (packed eval access). */
    const Tensor &uTensor() const { return _u; }

    /** Shared V factor storage [maxRank, maxOut]. */
    const Tensor &vTensor() const { return _v; }

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
    size_t _maxRank;
    size_t _maxOut;
    size_t _activeIn;
    size_t _activeRank;
    size_t _activeOut;
    Activation _act;
    Tensor _u;      ///< max_in x max_rank
    Tensor _v;      ///< max_rank x max_out
    Tensor _b;
    Tensor _uGrad;
    Tensor _vGrad;
    Tensor _bGrad;
    const Tensor *_input = nullptr; ///< forward input (caller-owned)
    Tensor _hidden; ///< x U (batch x rank)
    Tensor _preact;
    Tensor _output;
    Tensor _dpre; ///< backward scratch (reused across calls)
    Tensor _dh;   ///< hidden gradient scratch
    Tensor _dx;   ///< input gradient returned by backward
};

} // namespace h2o::nn

#endif // H2O_NN_LOW_RANK_DENSE_H
