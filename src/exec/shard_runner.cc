#include "exec/shard_runner.h"

#include "common/logging.h"

namespace h2o::exec {

// ---------------------------------------------------------- StepReport

std::vector<size_t>
StepReport::survivors() const
{
    std::vector<size_t> ok;
    ok.reserve(shards.size());
    for (size_t s = 0; s < shards.size(); ++s)
        if (shards[s].state != ShardState::Degraded)
            ok.push_back(s);
    return ok;
}

bool
StepReport::degraded() const
{
    for (const auto &r : shards)
        if (r.state == ShardState::Degraded)
            return true;
    return false;
}

// --------------------------------------------------------- ShardRunner

ShardRunner::ShardRunner(ThreadPool &pool, ShardRunnerConfig config,
                         FaultInjector *injector)
    : _pool(pool), _config(config), _injector(injector)
{
    h2o_assert(_config.numShards > 0, "runner with zero shards");
    h2o_assert(_config.maxAttempts > 0, "runner with zero attempts");
    h2o_assert(_config.backoffBaseMs >= 0.0, "negative backoff");
}

ShardResult
ShardRunner::runShard(size_t step, size_t shard,
                      const std::function<void(size_t)> &body)
{
    ShardResult result;
    for (size_t attempt = 0; attempt < _config.maxAttempts; ++attempt) {
        result.attempts = attempt + 1;
        AttemptAction action =
            strikeAttempt(_injector, step, shard, attempt,
                          _config.maxAttempts, _config.backoffBaseMs);
        if (action == AttemptAction::Degrade)
            break;
        if (action == AttemptAction::Retry)
            continue;
        try {
            body(shard);
            result.state = attempt == 0 ? ShardState::Ok
                                        : ShardState::Retried;
            return result;
        } catch (const std::exception &e) {
            h2o::common::warn("shard ", shard, " attempt ", attempt,
                              " failed: ", e.what());
        }
    }
    result.state = ShardState::Degraded;
    return result;
}

StepReport
ShardRunner::runStep(size_t step,
                     const std::function<void(size_t shard)> &body)
{
    h2o_assert(body, "null shard body");
    StepReport report;
    report.shards.assign(_config.numShards, ShardResult{});

    if (_pool.size() == 1) {
        // One worker: run the shards inline in index order on this
        // thread, skipping the submit/future/wake-up round trip per
        // shard (there is nothing to overlap).
        for (size_t s = 0; s < _config.numShards; ++s)
            report.shards[s] = runShard(step, s, body);
        ++_inlineSteps;
    } else {
        std::vector<std::future<void>> futures;
        futures.reserve(_config.numShards);
        for (size_t s = 0; s < _config.numShards; ++s) {
            futures.push_back(
                _pool.submit([this, step, s, &body, &report] {
                    report.shards[s] = runShard(step, s, body);
                }));
        }
        // The cross-shard barrier: aggregation must not start before
        // every shard has completed or been declared lost.
        for (auto &f : futures)
            f.get();
        ++_dispatchedSteps;
    }

    for (const auto &r : report.shards)
        if (r.state == ShardState::Degraded)
            ++_degradedShardSteps;
    return report;
}

} // namespace h2o::exec
