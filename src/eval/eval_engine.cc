#include "eval/eval_engine.h"

#include <atomic>

#include "common/logging.h"
#include "exec/remote_transport.h"
#include "exec/shard_transport.h"

namespace h2o::eval {

PerfBatchFn
batchify(PerfFn fn)
{
    h2o_assert(fn, "null performance functor");
    return [fn = std::move(fn)](
               std::span<const searchspace::Sample> samples) {
        std::vector<std::vector<double>> out;
        out.reserve(samples.size());
        for (const auto &s : samples)
            out.push_back(fn(s));
        return out;
    };
}

namespace {

/**
 * The worker-side eval task: decode one candidate, run the pure
 * per-candidate quality and/or performance functions, encode the
 * answers. Captures COPIES of the functors so the fork-time snapshot is
 * self-contained.
 *
 * Request:  u32 wantQuality | u64 decisionCount | u64 per decision
 * Response: u32 hasQuality [f64 quality] | u32 perfCount | f64 each
 */
exec::ProcTaskFn
makeEvalTask(QualityFn quality, PerfFn perf)
{
    return [quality = std::move(quality), perf = std::move(perf)](
               uint64_t, uint64_t, const std::string &request) {
        exec::WireReader req(request);
        const bool wantQuality = req.getU32() != 0;
        searchspace::Sample sample(req.getU64());
        for (auto &d : sample)
            d = static_cast<size_t>(req.getU64());

        exec::WireWriter out;
        if (wantQuality) {
            if (!quality)
                throw std::runtime_error(
                    "eval task asked for quality but the engine was "
                    "built without a pure quality functor");
            out.putU32(1);
            out.putDouble(quality(sample));
        } else {
            out.putU32(0);
        }
        if (perf) {
            std::vector<double> values = perf(sample);
            out.putU32(static_cast<uint32_t>(values.size()));
            for (double v : values)
                out.putDouble(v);
        } else {
            out.putU32(0);
        }
        return out.take();
    };
}

/** Fleet mode: register the eval task, THEN build the transports —
 *  forked workers only know tasks registered before their fork, and
 *  remote handshakes verify the task is registered on both ends. The
 *  name is unique per engine instance because one process may host
 *  several engines at once (serve::Server runs one per job). */
std::unique_ptr<exec::ProcTaskRegistration>
registerEvalTask(const EvalEngineConfig &config, QualityFn quality,
                 PerfFn perf)
{
    if (config.procs == 0 && config.workers.empty())
        return nullptr;
    static std::atomic<uint64_t> instances{0};
    return std::make_unique<exec::ProcTaskRegistration>(
        "eval_engine/" + std::to_string(instances.fetch_add(1)),
        makeEvalTask(std::move(quality), std::move(perf)));
}

/** Forked slots first, remote slots after — fork order matters for fd
 *  hygiene (fork-local daemons must not inherit remote connection
 *  fds), and slot order fixes the shard pinning (shard s -> slot s %
 *  total) that outcomes are invariant to anyway (pure tasks). */
std::unique_ptr<exec::ShardTransport>
makeTransport(const EvalEngineConfig &config, const std::string &task)
{
    std::vector<std::unique_ptr<exec::ShardTransport>> parts;
    if (config.procs > 0)
        parts.push_back(std::make_unique<exec::ProcPool>(
            exec::ProcPool::resolve(config.procs, config.numShards)));
    if (!config.workers.empty()) {
        exec::RemotePoolConfig remote;
        remote.endpoints = exec::parseWorkerList(config.workers);
        remote.requiredTasks = {task};
        parts.push_back(
            std::make_unique<exec::RemotePool>(std::move(remote)));
    }
    if (parts.size() == 1)
        return std::move(parts.front());
    return std::make_unique<exec::MixedTransport>(std::move(parts));
}

} // namespace

EvalEngine::EvalEngine(PerfStage perf,
                       const reward::RewardFunction &rewardf,
                       EvalEngineConfig config, QualityFn quality)
    : _perf(std::move(perf)), _reward(rewardf), _config(config),
      _quality(std::move(quality)),
      _taskReg(registerEvalTask(_config, _quality, _perf.perCandidate)),
      _transport(_taskReg ? makeTransport(_config, _taskReg->name())
                          : nullptr),
      // One lane per worker slot in fleet mode.
      _pool(exec::ThreadPool::resolve(
          _transport ? _transport->size() : config.threads,
          config.numShards)),
      _runner(_pool,
              {config.numShards, config.maxShardAttempts,
               config.retryBackoffMs},
              config.faults, _transport.get())
{
    h2o_assert(_perf.perCandidate || _perf.batched,
               "null performance functor");
    h2o_assert(_config.numShards > 0, "engine with zero shards");
}

void
EvalEngine::finishStep(StepEval &ev)
{
    // Stage 2 (batched mode): one performance call over the survivors,
    // on this thread. Purity makes this element-for-element identical
    // to the per-shard calls of per-candidate mode.
    if (_perf.batched) {
        std::vector<searchspace::Sample> live;
        live.reserve(ev.survivors.size());
        for (size_t s : ev.survivors)
            live.push_back(ev.samples[s]);
        auto perfs = _perf.batched(live);
        h2o_assert(perfs.size() == live.size(),
                   "performance batch returned ", perfs.size(),
                   " results for ", live.size(), " candidates");
        for (size_t i = 0; i < ev.survivors.size(); ++i)
            ev.performance[ev.survivors[i]] = std::move(perfs[i]);
    }

    // Stage 3: reward, per survivor, in shard-index order.
    for (size_t s : ev.survivors)
        ev.rewards[s] =
            _reward.compute({ev.qualities[s], ev.performance[s]});
}

StepEval
EvalEngine::runShards(size_t step, const SampleBodyFn &body,
                      bool withQuality)
{
    const size_t n = _config.numShards;
    StepEval ev;
    ev.samples.resize(n);
    ev.qualities.assign(n, 0.0);
    ev.performance.resize(n);
    ev.rewards.assign(n, 0.0);

    // Under the fault-tolerant runner: a degraded shard never draws, so
    // its RNG stream never advances. Per-candidate stages ride along in
    // the shard body (or the worker process), so a blocking function
    // (device-in-the-loop) occupies its shard and overlaps across
    // lanes.
    if (_transport) {
        // Encode = the draw, run where a closure step runs its body (so
        // each shard's RNG stream advances exactly as in-process);
        // decode applies the worker's answers after the barrier.
        exec::ProcShardTask task;
        task.name = _taskReg->name();
        task.encode = [&](size_t s) {
            body(s, ev.samples[s]);
            exec::WireWriter w;
            w.putU32(withQuality ? 1u : 0u);
            w.putU64(ev.samples[s].size());
            for (size_t d : ev.samples[s])
                w.putU64(static_cast<uint64_t>(d));
            return w.take();
        };
        task.decode = [&](size_t s, const std::string &response) {
            exec::WireReader r(response);
            if (r.getU32() != 0)
                ev.qualities[s] = r.getDouble();
            const uint32_t perfCount = r.getU32();
            if (_perf.perCandidate) {
                std::vector<double> values(perfCount);
                for (auto &v : values)
                    v = r.getDouble();
                ev.performance[s] = std::move(values);
            }
        };
        ev.report = _runner.runStep(step, task);
    } else {
        ev.report = _runner.runStep(step, [&](size_t s) {
            body(s, ev.samples[s]);
            if (withQuality)
                ev.qualities[s] = _quality(ev.samples[s]);
            if (_perf.perCandidate)
                ev.performance[s] = _perf.perCandidate(ev.samples[s]);
        });
    }
    ev.survivors = ev.report.survivors();
    return ev;
}

StepEval
EvalEngine::evaluate(size_t step, const SampleBodyFn &body)
{
    h2o_assert(_quality, "evaluate() without a batched quality requires "
                         "the engine to be built with a pure quality "
                         "functor");
    StepEval ev = runShards(step, body, /*withQuality=*/true);
    if (!ev.survivors.empty())
        finishStep(ev);
    return ev;
}

StepEval
EvalEngine::evaluate(size_t step, const SampleBodyFn &body,
                     const QualityBatchFn &quality)
{
    h2o_assert(quality, "null batched quality functor");
    StepEval ev = runShards(step, body, /*withQuality=*/false);
    if (ev.survivors.empty())
        return ev;

    // ONE quality call over the survivors, ascending shard order.
    std::vector<searchspace::Sample> live;
    live.reserve(ev.survivors.size());
    for (size_t s : ev.survivors)
        live.push_back(ev.samples[s]);
    std::vector<double> qs = quality(ev.survivors, live);
    h2o_assert(qs.size() == live.size(), "quality batch returned ",
               qs.size(), " results for ", live.size(), " candidates");
    for (size_t i = 0; i < ev.survivors.size(); ++i)
        ev.qualities[ev.survivors[i]] = qs[i];

    finishStep(ev);
    return ev;
}

} // namespace h2o::eval
