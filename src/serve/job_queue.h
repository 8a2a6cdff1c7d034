/**
 * @file
 * The server's job table + FIFO admission queue. Tracks every job ever
 * submitted (spec, lifecycle state, progress, error) under one mutex;
 * the scheduler pops queued jobs as concurrency slots free up and
 * reports state transitions back.
 *
 * Lifecycle: Queued -> Running -> {Done, Failed, Cancelled, Paused};
 * Paused -> Queued again via requeue() (the scheduler reloads the
 * job's checkpoint on re-admission). Cancellation of a job that never
 * started skips straight from Queued to Cancelled.
 */

#ifndef H2O_SERVE_JOB_QUEUE_H
#define H2O_SERVE_JOB_QUEUE_H

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/job.h"

namespace h2o::serve {

enum class JobState
{
    Queued,
    Running,
    Paused,
    Done,
    Failed,
    Cancelled,
};

const char *jobStateName(JobState state);

/** One job's queue-side record. */
struct JobInfo
{
    JobSpec spec;
    JobState state = JobState::Queued;
    size_t stepsDone = 0;
    double bestReward = 0.0;
    std::string error;
    /** Scheduling rounds observed at submit/finish (the server's round
     *  counter; wall-clock-free so runs stay reproducible). */
    uint64_t submittedRound = 0;
    uint64_t finishedRound = 0;
};

/** Thread-safe job table + FIFO of not-yet-admitted jobs. */
class JobQueue
{
  public:
    /** Register a job: assigns the next id (returned; also written to
     *  the stored spec), state Queued. */
    uint64_t submit(JobSpec spec, uint64_t round = 0);

    /** Pop the oldest queued job and mark it Running. Empty when no
     *  job is waiting. */
    std::optional<JobSpec> popQueued();

    /** Put a Paused job back at the END of the FIFO (fatal if the job
     *  is in any other state). */
    void requeue(uint64_t id);

    /** Cancel a job still in the FIFO: state Cancelled, removed from
     *  the FIFO. Returns false when the job is not Queued (a running
     *  job is cancelled through the scheduler instead). */
    bool cancelQueued(uint64_t id);

    /** Jobs waiting in the FIFO. */
    size_t depth() const;

    /** Jobs ever submitted. */
    size_t size() const;

    JobState state(uint64_t id) const;
    JobInfo info(uint64_t id) const;

    /** Every job's record, ascending id. */
    std::vector<JobInfo> snapshot() const;

    void setState(uint64_t id, JobState state, uint64_t round = 0);
    void setProgress(uint64_t id, size_t steps_done, double best_reward);
    void setError(uint64_t id, const std::string &error);

  private:
    JobInfo &infoLocked(uint64_t id);
    const JobInfo &infoLocked(uint64_t id) const;

    mutable std::mutex _mu;
    std::map<uint64_t, JobInfo> _jobs;
    std::deque<uint64_t> _fifo;
    uint64_t _nextId = 0;
};

} // namespace h2o::serve

#endif // H2O_SERVE_JOB_QUEUE_H
