/**
 * @file
 * The multi-tenant NAS job scheduler: runs up to k admitted jobs
 * concurrently on ONE shared `exec::ThreadPool`, fronting ONE shared
 * `sim::SimCache`, in round-based fair-share time slices.
 *
 * Scheduling model: each call to runRound() admits queued jobs into
 * free concurrency slots, then dispatches one slice task per active job
 * to the worker pool — a slice advances the job's resumable stepper by
 * up to `stepsPerSlice` search steps — and barriers on the round. Every
 * active job therefore advances the same step quantum per round
 * (round-robin fair share); a job's steps always execute sequentially
 * inside its own slice, never concurrently with each other.
 *
 * Determinism contract: a job's rewards, history, Pareto set and the
 * deterministic telemetry fields are bit-identical to the same spec run
 * standalone (serve::runStandalone), regardless of tenant mix, server
 * thread count, or slice quantum. Two mechanisms make this true: (1)
 * per-job sequential stepping means each search consumes its RNG
 * streams, supernet weights and pipeline cursor in exactly the
 * standalone order; (2) the shared SimCache only memoizes a PURE
 * simulator, so the tenant mix moves hit rates, never values.
 *
 * Deadlock-freedom: slices are the only tasks submitted to the server
 * pool, and a slice never blocks on another slice — jobs evaluate
 * candidates inline (their engines are configured single-threaded), the
 * shared cache computes misses on the calling thread, and every lock
 * (queue, telemetry, cache stripes) is leaf-level. The barrier in
 * runRound() runs on the coordinator thread, which is not a pool
 * worker.
 *
 * Lifecycle: pauseJob() checkpoints the job (exec::Checkpoint atomic
 * commit) at its next step boundary and unloads it; resumeJob()
 * requeues it, and admission reloads the checkpoint — as it also does
 * after a server crash/restart with the same checkpoint directory (the
 * kill-and-resume path). cancelJob() stops a running job at its next
 * step boundary, or retracts a queued one.
 */

#ifndef H2O_SERVE_SCHEDULER_H
#define H2O_SERVE_SCHEDULER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "serve/job.h"
#include "serve/job_queue.h"
#include "serve/telemetry.h"
#include "sim/sim_cache.h"

namespace h2o::serve {

/** Server configuration. */
struct ServeConfig
{
    /** Worker threads of the shared pool; 0 = one per CPU in the
     *  affinity mask. Results are bit-identical at any value. */
    size_t threads = 0;
    /** Concurrency slots: jobs running per round (k). */
    size_t maxConcurrentJobs = 4;
    /** Search steps one job advances per scheduling round. */
    size_t stepsPerSlice = 8;
    /** Shared SimCache geometry. */
    size_t cacheCapacity = 1 << 16;
    size_t cacheShards = 16;
    /** Directory for per-job checkpoints (`job_<id>.ckpt`); empty
     *  disables pause/resume and crash recovery. */
    std::string checkpointDir;
    /** Extra step cadence for crash-safety checkpoints of RUNNING jobs
     *  (0 = checkpoint only on pause). Requires checkpointDir. */
    size_t checkpointEvery = 0;
    /** Optional sim-cache warm-start file (see warmSimCacheFromFile). */
    std::string warmCacheFile;
    /** Job factory; default makeDefaultJob. */
    JobFactoryFn factory;
};

/** The job server (see file comment). Public methods are meant for ONE
 *  coordinator thread; cross-thread control happens through the
 *  request flags they set, which slices poll at step boundaries. */
class Server
{
  public:
    explicit Server(ServeConfig config);

    /** Enqueue a job; returns its id. */
    uint64_t submit(JobSpec spec);

    /** One scheduling round: admit, slice every active job on the
     *  pool, barrier, finalize lifecycle transitions. Returns false
     *  when there was nothing to run (server idle). */
    bool runRound();

    /** Drive rounds until no job is active or queued. */
    void runUntilIdle();

    /** Request a running job be checkpointed and unloaded at its next
     *  step boundary. False when the job is not running or the server
     *  has no checkpointDir. Takes effect within the next round. */
    bool pauseJob(uint64_t id);

    /** Put a Paused job back in the admission queue. */
    void resumeJob(uint64_t id);

    /** Cancel a queued or running job. False when it already
     *  finished. */
    bool cancelJob(uint64_t id);

    /** Finished job's result; null until the job is Done. */
    const JobResult *result(uint64_t id) const;

    /** `<checkpointDir>/job_<id>.ckpt` (empty when disabled). */
    std::string checkpointPathFor(uint64_t id) const;

    /** Merge-save the shared cache to a file (saveSimCacheFileMerged). */
    void saveCacheFile(const std::string &path);

    JobQueue &queue() { return _queue; }
    const JobQueue &queue() const { return _queue; }
    TelemetryStream &telemetry() { return _telemetry; }
    sim::SimCache &cache() { return _cache; }
    /** Rounds executed so far (the queue's round stamps count these). */
    uint64_t round() const { return _round; }
    size_t activeJobs() const { return _active.size(); }

  private:
    struct ActiveJob
    {
        uint64_t id = 0;
        JobSpec spec;
        std::unique_ptr<SearchJob> job;
        JobProgress progress;
        /** Coordinator -> slice control; polled at step boundaries. */
        std::atomic<int> request{0}; // 0 none, 1 pause, 2 cancel
        /** Slice -> coordinator outcome of the round. */
        bool pausePending = false;
        bool cancelPending = false;
        bool failed = false;
        std::string error;
    };

    void admit();
    void slice(ActiveJob &aj, size_t running_jobs);
    void checkpointJob(ActiveJob &aj);
    void finalizeRound();

    ServeConfig _config;
    exec::ThreadPool _pool;
    sim::SimCache _cache;
    JobQueue _queue;
    TelemetryStream _telemetry;
    std::vector<std::unique_ptr<ActiveJob>> _active;
    std::map<uint64_t, JobResult> _results;
    uint64_t _round = 0;
};

} // namespace h2o::serve

#endif // H2O_SERVE_SCHEDULER_H
