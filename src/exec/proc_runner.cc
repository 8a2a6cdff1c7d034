#include "exec/proc_runner.h"

#include "common/logging.h"

namespace h2o::exec {

ProcRunner::ProcRunner(ShardTransport &pool, ShardRunnerConfig config,
                       FaultInjector *injector)
    : _pool(pool), _config(config), _injector(injector),
      _io(pool.size())
{
    h2o_assert(_config.numShards > 0, "runner with zero shards");
    h2o_assert(_config.maxAttempts > 0, "runner with zero attempts");
    h2o_assert(_config.backoffBaseMs >= 0.0, "negative backoff");
}

bool
ProcRunner::runShardAttempts(size_t step, size_t shard, size_t worker,
                             const ProcShardTask &task, ShardAttempt &st)
{
    while (st.attemptsUsed < _config.maxAttempts) {
        const size_t attempt = st.attemptsUsed++;
        st.result.attempts = attempt + 1;

        // Injected faults strike before encode, mirroring the thread
        // runtime (a preempted shard never draws its sample).
        AttemptAction action =
            strikeAttempt(_injector, step, shard, attempt,
                          _config.maxAttempts, _config.backoffBaseMs);
        if (action == AttemptAction::Degrade)
            break;
        if (action == AttemptAction::Retry)
            continue;

        try {
            // Encode at most once per step: a transport retry must
            // resend the SAME bytes so the shard's RNG stream advances
            // exactly once, like an unkilled run.
            if (!st.request)
                st.request = task.encode(shard);
        } catch (const std::exception &e) {
            common::warn("shard ", shard, " attempt ", attempt,
                         " failed encoding: ", e.what());
            st.request.reset();
            continue;
        }

        std::optional<std::string> reply;
        try {
            reply = _pool.call(worker, task.name, step, shard,
                               *st.request);
        } catch (const std::exception &e) {
            // The worker task threw: same contract as a thrown shard
            // body — warn, consume the attempt, re-run from the draw.
            common::warn("shard ", shard, " attempt ", attempt,
                         " failed: ", e.what());
            st.request.reset();
            continue;
        }
        if (!reply) {
            // Worker death mid-call. The attempt is spent, the encoded
            // request is kept, and the shard (plus everything queued
            // behind it on this worker) waits for the respawn round.
            return false;
        }
        st.response = std::move(reply);
        st.result.state =
            attempt == 0 ? ShardState::Ok : ShardState::Retried;
        st.settled = true;
        return true;
    }
    st.result.state = ShardState::Degraded;
    st.settled = true;
    return true;
}

StepReport
ProcRunner::runStep(size_t step, const ProcShardTask &task)
{
    h2o_assert(!task.name.empty() && task.encode && task.decode,
               "malformed proc shard task");
    const size_t n = _config.numShards;
    const size_t procs = _pool.size();
    std::vector<ShardAttempt> shards(n);

    // Rounds: run every unsettled shard on its worker; a worker death
    // ends that worker's round early, and the next round begins by
    // re-forking every corpse from current coordinator state. Each
    // round with a dead worker consumes at least one attempt of its
    // first pending shard, so the loop terminates.
    bool pending = true;
    while (pending) {
        _pool.respawnDead();

        // Ascending shard lists per worker (shard s -> worker s % k):
        // each worker serves its shards in index order, every round.
        std::vector<std::vector<size_t>> assigned(procs);
        for (size_t s = 0; s < n; ++s)
            if (!shards[s].settled)
                assigned[s % procs].push_back(s);

        auto runWorkerLane = [&](size_t w) {
            for (size_t s : assigned[w]) {
                if (!runShardAttempts(step, s, w, task, shards[s])) {
                    ++_transportFailures;
                    break; // corpse: defer the rest of this lane
                }
            }
        };

        if (procs == 1) {
            // One worker process: its lane is sequential anyway, so
            // drive the socket from the caller's thread directly.
            runWorkerLane(0);
        } else {
            std::vector<std::future<void>> lanes;
            lanes.reserve(procs);
            for (size_t w = 0; w < procs; ++w) {
                if (!assigned[w].empty())
                    lanes.push_back(
                        _io.submit([&, w] { runWorkerLane(w); }));
            }
            // The cross-shard barrier for this round.
            for (auto &f : lanes)
                f.get();
        }

        pending = false;
        for (const auto &st : shards)
            if (!st.settled) {
                pending = true;
                break;
            }
    }

    // Apply responses in ascending shard order on this thread — the
    // order the thread path's callers aggregate survivors in, so
    // decoders that touch shared state see the serial schedule.
    StepReport report;
    report.shards.reserve(n);
    for (size_t s = 0; s < n; ++s) {
        if (shards[s].response)
            task.decode(s, *shards[s].response);
        report.shards.push_back(shards[s].result);
    }
    for (const auto &r : report.shards)
        if (r.state == ShardState::Degraded)
            ++_degradedShardSteps;
    ++_stepsRun;
    return report;
}

} // namespace h2o::exec
