#include "exec/fault_injector.h"

#include "common/logging.h"
#include "common/rng.h"

namespace h2o::exec {

FaultInjector::FaultInjector(FaultConfig config) : _config(config)
{
    auto valid_prob = [](double p) { return p >= 0.0 && p <= 1.0; };
    h2o_assert(valid_prob(_config.failProb) &&
                   valid_prob(_config.stragglerProb) &&
                   valid_prob(_config.preemptProb),
               "fault probabilities must lie in [0, 1]");
    h2o_assert(_config.stragglerDelayMs >= 0.0,
               "negative straggler delay");
}

FaultKind
FaultInjector::decide(size_t step, size_t shard, size_t attempt) const
{
    // One hash per decision: timing- and thread-count-independent.
    uint64_t state = _config.seed ^
                     (0x9e3779b97f4a7c15ULL * (step + 1)) ^
                     (0xbf58476d1ce4e5b9ULL * (shard + 1)) ^
                     (0x94d049bb133111ebULL * (attempt + 1));
    uint64_t h = common::splitmix64(state);
    double u = static_cast<double>(h >> 11) /
               static_cast<double>(1ULL << 53);

    double preempt = (attempt == 0) ? _config.preemptProb : 0.0;
    if (u < preempt)
        return FaultKind::Preempt;
    if (u < preempt + _config.failProb)
        return FaultKind::Fail;
    if (u < preempt + _config.failProb + _config.stragglerProb)
        return FaultKind::Straggle;
    return FaultKind::None;
}

void
FaultInjector::record(FaultKind kind)
{
    switch (kind) {
    case FaultKind::Fail:
        _stats.failures.fetch_add(1, std::memory_order_relaxed);
        break;
    case FaultKind::Straggle:
        _stats.straggles.fetch_add(1, std::memory_order_relaxed);
        break;
    case FaultKind::Preempt:
        _stats.preemptions.fetch_add(1, std::memory_order_relaxed);
        break;
    case FaultKind::None:
        break;
    }
}

} // namespace h2o::exec
