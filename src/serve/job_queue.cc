#include "serve/job_queue.h"

#include <algorithm>

#include "common/logging.h"

namespace h2o::serve {

const char *
jobStateName(JobState state)
{
    switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Paused: return "paused";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
    }
    return "unknown";
}

namespace {

/** The job's entry in `jobs` (const or not); fatal when unknown. */
template <typename Jobs>
auto &
findJob(Jobs &jobs, uint64_t id)
{
    auto it = jobs.find(id);
    if (it == jobs.end())
        h2o_fatal("unknown job id ", id);
    return it->second;
}

} // namespace

JobInfo &
JobQueue::infoLocked(uint64_t id)
{
    return findJob(_jobs, id);
}

const JobInfo &
JobQueue::infoLocked(uint64_t id) const
{
    return findJob(_jobs, id);
}

uint64_t
JobQueue::submit(JobSpec spec, uint64_t round)
{
    std::lock_guard<std::mutex> lock(_mu);
    uint64_t id = ++_nextId;
    spec.id = id;
    JobInfo info;
    info.spec = std::move(spec);
    info.submittedRound = round;
    _jobs.emplace(id, std::move(info));
    _fifo.push_back(id);
    return id;
}

std::optional<JobSpec>
JobQueue::popQueued()
{
    std::lock_guard<std::mutex> lock(_mu);
    if (_fifo.empty())
        return std::nullopt;
    uint64_t id = _fifo.front();
    _fifo.pop_front();
    JobInfo &info = infoLocked(id);
    info.state = JobState::Running;
    return info.spec;
}

void
JobQueue::requeue(uint64_t id)
{
    std::lock_guard<std::mutex> lock(_mu);
    JobInfo &info = infoLocked(id);
    if (info.state != JobState::Paused)
        h2o_fatal("requeue of job ", id, " in state ",
                  jobStateName(info.state));
    info.state = JobState::Queued;
    _fifo.push_back(id);
}

bool
JobQueue::cancelQueued(uint64_t id)
{
    std::lock_guard<std::mutex> lock(_mu);
    JobInfo &info = infoLocked(id);
    if (info.state != JobState::Queued)
        return false;
    info.state = JobState::Cancelled;
    _fifo.erase(std::remove(_fifo.begin(), _fifo.end(), id),
                _fifo.end());
    return true;
}

size_t
JobQueue::depth() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _fifo.size();
}

size_t
JobQueue::size() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _jobs.size();
}

JobState
JobQueue::state(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(_mu);
    return infoLocked(id).state;
}

JobInfo
JobQueue::info(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(_mu);
    return infoLocked(id);
}

std::vector<JobInfo>
JobQueue::snapshot() const
{
    std::lock_guard<std::mutex> lock(_mu);
    std::vector<JobInfo> out;
    out.reserve(_jobs.size());
    for (const auto &[id, info] : _jobs)
        out.push_back(info);
    return out;
}

void
JobQueue::setState(uint64_t id, JobState state, uint64_t round)
{
    std::lock_guard<std::mutex> lock(_mu);
    JobInfo &info = infoLocked(id);
    info.state = state;
    if (state == JobState::Done || state == JobState::Failed ||
        state == JobState::Cancelled)
        info.finishedRound = round;
}

void
JobQueue::setProgress(uint64_t id, size_t steps_done, double best_reward)
{
    std::lock_guard<std::mutex> lock(_mu);
    JobInfo &info = infoLocked(id);
    info.stepsDone = steps_done;
    info.bestReward = best_reward;
}

void
JobQueue::setError(uint64_t id, const std::string &error)
{
    std::lock_guard<std::mutex> lock(_mu);
    infoLocked(id).error = error;
}

} // namespace h2o::serve
