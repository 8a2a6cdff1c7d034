#include "nn/loss.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/stats.h"

namespace h2o::nn {

double
sigmoid(double x)
{
    if (x >= 0.0) {
        double e = std::exp(-x);
        return 1.0 / (1.0 + e);
    }
    double e = std::exp(x);
    return e / (1.0 + e);
}

LossResult
bceWithLogits(const Tensor &logits, const Tensor &labels)
{
    LossResult res;
    res.value = bceWithLogits(logits, labels, res.grad);
    return res;
}

double
bceWithLogits(const Tensor &logits, const Tensor &labels, Tensor &grad)
{
    h2o_assert(logits.size() == labels.size() && logits.size() > 0,
               "bce shape mismatch");
    grad.resizeUninitialized(logits.shape()); // every element written
    double inv = 1.0 / static_cast<double>(logits.size());
    double total = 0.0;
    for (size_t i = 0; i < logits.size(); ++i) {
        double z = logits[i];
        double y = labels[i];
        // Stable formulation: max(z,0) - z*y + log(1 + exp(-|z|))
        double loss = std::max(z, 0.0) - z * y + std::log1p(std::exp(-std::abs(z)));
        total += loss;
        grad[i] = static_cast<float>((sigmoid(z) - y) * inv);
    }
    return total * inv;
}

LossResult
mseLoss(const Tensor &pred, const Tensor &target)
{
    h2o_assert(pred.size() == target.size() && pred.size() > 0,
               "mse shape mismatch");
    LossResult res;
    res.grad.resizeUninitialized(pred.shape()); // every element written
    double inv = 1.0 / static_cast<double>(pred.size());
    double total = 0.0;
    for (size_t i = 0; i < pred.size(); ++i) {
        double d = static_cast<double>(pred[i]) - target[i];
        total += d * d;
        res.grad[i] = static_cast<float>(2.0 * d * inv);
    }
    res.value = total * inv;
    return res;
}

LossResult
huberLoss(const Tensor &pred, const Tensor &target, double delta)
{
    h2o_assert(pred.size() == target.size() && pred.size() > 0,
               "huber shape mismatch");
    h2o_assert(delta > 0.0, "huber delta must be positive");
    LossResult res;
    res.grad.resizeUninitialized(pred.shape()); // every element written
    double inv = 1.0 / static_cast<double>(pred.size());
    double total = 0.0;
    for (size_t i = 0; i < pred.size(); ++i) {
        double d = static_cast<double>(pred[i]) - target[i];
        if (std::abs(d) <= delta) {
            total += 0.5 * d * d;
            res.grad[i] = static_cast<float>(d * inv);
        } else {
            total += delta * (std::abs(d) - 0.5 * delta);
            res.grad[i] = static_cast<float>((d > 0 ? delta : -delta) * inv);
        }
    }
    res.value = total * inv;
    return res;
}

double
logLoss(const std::vector<double> &probs, const std::vector<double> &labels)
{
    h2o_assert(probs.size() == labels.size() && !probs.empty(),
               "logLoss size mismatch");
    double total = 0.0;
    for (size_t i = 0; i < probs.size(); ++i) {
        double p = std::clamp(probs[i], 1e-12, 1.0 - 1e-12);
        total += -(labels[i] * std::log(p) +
                   (1.0 - labels[i]) * std::log(1.0 - p));
    }
    return total / static_cast<double>(probs.size());
}

double
auc(const std::vector<double> &scores, const std::vector<double> &labels)
{
    h2o_assert(scores.size() == labels.size() && !scores.empty(),
               "auc size mismatch");
    auto rk = common::ranks(scores);
    double pos = 0.0, pos_rank_sum = 0.0;
    for (size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] > 0.5) {
            pos += 1.0;
            pos_rank_sum += rk[i];
        }
    }
    double neg = static_cast<double>(labels.size()) - pos;
    if (pos == 0.0 || neg == 0.0)
        return 0.5;
    // Mann-Whitney U statistic.
    double u = pos_rank_sum - pos * (pos + 1.0) / 2.0;
    return u / (pos * neg);
}

} // namespace h2o::nn
