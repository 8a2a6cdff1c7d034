/**
 * @file
 * Loss functions: binary cross-entropy with logits (DLRM click prediction),
 * mean squared error (performance-model regression), and helpers for
 * evaluation metrics (log-loss, AUC).
 */

#ifndef H2O_NN_LOSS_H
#define H2O_NN_LOSS_H

#include <vector>

#include "nn/tensor.h"

namespace h2o::nn {

/** Value and gradient of a loss over a batch. */
struct LossResult
{
    double value;  ///< mean loss over the batch
    Tensor grad;   ///< dL/dlogits, same shape as logits, already / batch
};

/**
 * Binary cross-entropy with logits. logits and labels are [batch, 1]
 * (or [batch, k] for multi-task), labels in {0, 1}.
 */
LossResult bceWithLogits(const Tensor &logits, const Tensor &labels);

/** As above, writing the gradient into a caller-owned tensor (reshaped
 *  here, reusing its storage); returns the mean loss. */
double bceWithLogits(const Tensor &logits, const Tensor &labels,
                     Tensor &grad);

/** Mean squared error. pred and target must be the same shape. */
LossResult mseLoss(const Tensor &pred, const Tensor &target);

/** Huber (smooth-L1) loss with threshold delta. */
LossResult huberLoss(const Tensor &pred, const Tensor &target, double delta);

/** Mean log-loss (same value as BCE) for evaluation without gradients. */
double logLoss(const std::vector<double> &probs,
               const std::vector<double> &labels);

/**
 * Area under the ROC curve via the rank statistic. Labels in {0, 1}.
 * Returns 0.5 when either class is absent.
 */
double auc(const std::vector<double> &scores,
           const std::vector<double> &labels);

/** Numerically-stable logistic function. */
double sigmoid(double x);

} // namespace h2o::nn

#endif // H2O_NN_LOSS_H
