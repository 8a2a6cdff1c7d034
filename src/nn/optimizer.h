/**
 * @file
 * Optimizers operating on ParamRef registries: SGD with momentum (used for
 * super-network weight training, mirroring the cross-shard gradient update
 * of the paper's single-step algorithm) and Adam (used for the performance
 * model and the REINFORCE policy parameters).
 */

#ifndef H2O_NN_OPTIMIZER_H
#define H2O_NN_OPTIMIZER_H

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace h2o::nn {

/** Base optimizer interface over a fixed parameter registry. */
class Optimizer
{
  public:
    /** @param params Parameter/gradient pairs this optimizer owns updates
     *                for. The referenced tensors must outlive the optimizer. */
    explicit Optimizer(std::vector<ParamRef> params);
    virtual ~Optimizer() = default;

    /** Apply one update from the accumulated gradients, then zero them. */
    virtual void step() = 0;

    /** Zero all gradient accumulators without updating. */
    void zeroGrad();

    /** Set the learning rate (supports schedules driven by the caller). */
    void setLearningRate(double lr) { _lr = lr; }

    /** Current learning rate. */
    double learningRate() const { return _lr; }

    /** Global L2 norm of all gradients (diagnostics / clipping). */
    double gradNorm() const;

    /** Scale all gradients so the global norm is at most max_norm. */
    void clipGradNorm(double max_norm);

  protected:
    std::vector<ParamRef> _params;
    /** Element offset of each parameter with all parameters laid end to
     *  end, plus the total at the back: the index space a step splits
     *  across CPUs. */
    std::vector<size_t> _offsets;
    double _lr = 1e-3;
};

/** SGD with classical momentum. */
class SgdOptimizer : public Optimizer
{
  public:
    SgdOptimizer(std::vector<ParamRef> params, double lr,
                 double momentum = 0.0, double weight_decay = 0.0);

    void step() override;

  private:
    double _momentum;
    double _weightDecay;
    /** One buffer per parameter; empty when momentum is 0 (never read). */
    std::vector<Tensor> _velocity;
};

/** Adam (Kingma & Ba) with bias correction. */
class AdamOptimizer : public Optimizer
{
  public:
    AdamOptimizer(std::vector<ParamRef> params, double lr,
                  double beta1 = 0.9, double beta2 = 0.999,
                  double eps = 1e-8);

    void step() override;

  private:
    double _beta1;
    double _beta2;
    double _eps;
    int64_t _t = 0;
    std::vector<Tensor> _m;
    std::vector<Tensor> _v;
};

} // namespace h2o::nn

#endif // H2O_NN_OPTIMIZER_H
