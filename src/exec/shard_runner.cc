#include "exec/shard_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "common/logging.h"
#include "exec/shard_transport.h"

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
                         FaultInjector *injector, ShardTransport *transport)
    : _pool(pool), _config(config), _injector(injector),
      _transport(transport)
{
    h2o_assert(_config.numShards > 0, "runner with zero shards");
    h2o_assert(_config.maxAttempts > 0, "runner with zero attempts");
    h2o_assert(_config.backoffBaseMs >= 0.0, "negative backoff");
}

bool
ShardRunner::runAttempts(size_t step, size_t shard, size_t lane,
                         const AttemptFn &work, ShardAttempt &st)
{
    using Ms = std::chrono::duration<double, std::milli>;
    while (st.attemptsUsed < _config.maxAttempts) {
        const size_t attempt = st.attemptsUsed++;
        st.result.attempts = attempt + 1;
        // Injected faults strike before the work: a preempted shard is
        // lost for the step, a failed attempt is spent (exponential
        // backoff, skipped after the last attempt), a straggler runs
        // late.
        FaultKind fault = FaultKind::None;
        if (_injector) {
            fault = _injector->decide(step, shard, attempt);
            _injector->record(fault);
        }
        if (fault == FaultKind::Preempt)
            break;
        if (fault == FaultKind::Fail) {
            if (attempt + 1 < _config.maxAttempts &&
                _config.backoffBaseMs > 0.0)
                std::this_thread::sleep_for(
                    Ms(_config.backoffBaseMs *
                       static_cast<double>(1ULL << attempt)));
            continue;
        }
        if (fault == FaultKind::Straggle)
            std::this_thread::sleep_for(
                Ms(_injector->config().stragglerDelayMs));
        try {
            // A worker death spends the attempt but keeps the encoded
            // request; the shard waits for the respawn round and its
            // lane stops claiming.
            if (!work(shard, lane, st))
                return false;
        } catch (const std::exception &e) {
            // A thrown body or worker task: consume the attempt and
            // re-run from the draw.
            common::warn("shard ", shard, " attempt ", attempt,
                         " failed: ", e.what());
            st.request.reset();
            continue;
        }
        st.result.state =
            attempt == 0 ? ShardState::Ok : ShardState::Retried;
        st.settled = true;
        return true;
    }
    st.result.state = ShardState::Degraded;
    st.settled = true;
    return true;
}

void
ShardRunner::onLanes(size_t lanes, const std::function<void(size_t)> &lane,
                     const std::function<void()> &lead)
{
    if (lanes == 1) {
        // One lane: nothing to overlap, so skip the hand-off.
        if (lead)
            lead();
        lane(0);
        return;
    }
    std::vector<std::future<void>> futures;
    futures.reserve(lanes);
    for (size_t l = 0; l < lanes; ++l)
        futures.push_back(_pool.submit([&lane, l] { lane(l); }));
    // The barrier: every lane finishes (the lanes read the caller's
    // stack) before the first failure, if any, propagates.
    std::exception_ptr failure;
    if (lead) {
        try {
            lead();
        } catch (...) {
            failure = std::current_exception();
        }
    }
    for (auto &f : futures) {
        try {
            f.get();
        } catch (...) {
            if (!failure)
                failure = std::current_exception();
        }
    }
    if (failure)
        std::rethrow_exception(failure);
}

void
ShardRunner::forEach(size_t items,
                     const std::function<void(size_t item, size_t lane)> &body,
                     const std::function<void()> &lead)
{
    h2o_assert(body, "null lane body");
    if (items == 0) {
        if (lead)
            lead();
        return;
    }
    std::atomic<size_t> next{0};
    onLanes(
        std::min(_pool.size(), items),
        [&](size_t lane) {
            for (size_t i; (i = next.fetch_add(1)) < items;)
                body(i, lane);
        },
        lead);
}

StepReport
ShardRunner::runLanes(size_t step, size_t lanes, const AttemptFn &work,
                      std::vector<ShardAttempt> &shards)
{
    const size_t n = _config.numShards;
    lanes = std::min(lanes, n);

    // Rounds: lane l starts on shard l — so every slot serves, and a
    // dead one is found, in every round — then claims the next shard
    // from the round's cursor until none is left. A worker death ends
    // that lane's round (its shard stays pending), and the dead slots
    // are respawned from current coordinator state before the next
    // round. Each death consumes an attempt of its shard, so the loop
    // terminates. Which lane runs a shard never changes its result:
    // faults are keyed by (step, shard, attempt) and bodies touch
    // shard-local state only.
    for (bool pending = true; pending;) {
        std::vector<char> died(lanes, 0);
        std::atomic<size_t> next{lanes};
        onLanes(lanes, [&](size_t lane) {
            for (size_t s = lane; s < n; s = next.fetch_add(1)) {
                if (!shards[s].settled &&
                    !runAttempts(step, s, lane, work, shards[s])) {
                    died[lane] = 1;
                    break;
                }
            }
        });

        const size_t deaths = std::count(died.begin(), died.end(), 1);
        _transportFailures += deaths;
        pending = deaths > 0;
        if (pending)
            _transport->respawnDead();
    }
    ++(lanes == 1 ? _inlineSteps : _dispatchedSteps);

    StepReport report;
    report.shards.reserve(n);
    for (const auto &st : shards) {
        report.shards.push_back(st.result);
        if (st.result.state == ShardState::Degraded)
            ++_degradedShardSteps;
    }
    return report;
}

StepReport
ShardRunner::runStep(size_t step,
                     const std::function<void(size_t shard)> &body)
{
    h2o_assert(body, "null shard body");
    std::vector<ShardAttempt> shards(_config.numShards);
    return runLanes(step, _pool.size(),
                    [&](size_t s, size_t, ShardAttempt &) {
                        body(s);
                        return true;
                    },
                    shards);
}

StepReport
ShardRunner::runStep(size_t step, const ProcShardTask &task)
{
    h2o_assert(_transport, "task step on a runner without a transport");
    h2o_assert(!task.name.empty() && task.encode && task.decode,
               "malformed proc shard task");
    std::vector<ShardAttempt> shards(_config.numShards);
    StepReport report = runLanes(
        step, _transport->size(),
        [&](size_t s, size_t slot, ShardAttempt &st) {
            // Encode at most once per step: a transport retry resends
            // the SAME bytes, so the shard's RNG stream advances once.
            if (!st.request)
                st.request = task.encode(s);
            st.response =
                _transport->call(slot, task.name, step, s, *st.request);
            return st.response.has_value();
        },
        shards);

    // Apply responses in ascending shard order on this thread — the
    // order closure steps' callers aggregate survivors in, so decoders
    // that touch shared state see the serial schedule.
    for (size_t s = 0; s < shards.size(); ++s)
        if (shards[s].response)
            task.decode(s, *shards[s].response);
    return report;
}

} // namespace h2o::exec
