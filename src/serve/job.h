/**
 * @file
 * NAS-as-a-service job definitions: the request a tenant submits
 * (`JobSpec`), the adapter wrapping one resumable search behind the
 * common `search::StepwiseSearch` interface (`SearchJob`), and the
 * result handed back when the job finishes (`JobResult`).
 *
 * A job bundles everything one search needs — search space, baseline
 * targets, supernet/pipeline for the weight-sharing kinds, reward —
 * built from the spec alone plus the server's SHARED `sim::SimCache`.
 * Step-time simulation goes through an `eval::CachedDlrmTimer` fronting
 * that shared cache, which is the cross-tenant scaling lever: every
 * candidate one tenant simulates is a free hit for every other tenant
 * exploring the same space. Sharing never changes results (the
 * simulator is pure; a hit returns exactly what a miss would compute),
 * so a job's outputs are a function of its spec and seed alone.
 */

#ifndef H2O_SERVE_JOB_H
#define H2O_SERVE_JOB_H

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "search/stepwise.h"
#include "serve/telemetry.h"
#include "sim/sim_cache.h"

namespace h2o::serve {

/** Which searcher the job runs. */
enum class JobKind
{
    /** SurrogateSearch over the DLRM space: analytic quality + cached
     *  simulator step time. Cheap; the load-generator workhorse. */
    DlrmSurrogate = 0,
    /** Full unified single-step search (H2oDlrmSearch) on a small
     *  weight-sharing supernet with synthetic production traffic. */
    DlrmSupernet = 1,
    /** TuNAS alternating baseline on the same small supernet. */
    DlrmTunas = 2,
};

const char *jobKindName(JobKind kind);

/** One tenant's search request. */
struct JobSpec
{
    /** Assigned by JobQueue::submit; 0 = not yet submitted. */
    uint64_t id = 0;
    std::string name;
    JobKind kind = JobKind::DlrmSurrogate;
    uint64_t seed = 1;
    size_t numSteps = 20;
    /** Parallel candidates per step (shards); the Tunas kind ignores
     *  it (one candidate per step by construction). */
    size_t samplesPerStep = 4;
    /** Step-time target, relative to the baseline architecture's
     *  simulated step time (1.0 = match the baseline). */
    double stepTimeTargetRel = 1.0;
    /** Model-size target, relative to the baseline's bytes. */
    double modelSizeTargetRel = 1.0;
    double learningRate = 0.08;
    double entropyWeight = 5e-3;
    /** Worker PROCESSES for the job's shard stage (the multi-process
     *  transport; see eval::EvalEngineConfig::procs). 0 — the default,
     *  and the right choice for load tests — keeps the job in-process
     *  on the scheduler's worker. >= 1 forks that many workers for THIS
     *  job (clamped to samplesPerStep); results are byte-identical
     *  either way, so the server's determinism contract is unaffected.
     *  The supernet kinds keep their shared weights coordinator-side
     *  and ship only the pure per-candidate work. */
    size_t procs = 0;
    /** Remote worker daemons for the job's shard stage, comma-separated
     *  ("host:port" or "local"; eval::EvalEngineConfig::workers).
     *  Combines with procs into one mixed pool for THIS job. Empty —
     *  the default — keeps the job local; results are byte-identical
     *  for any fleet shape, so the server's determinism contract is
     *  unaffected. */
    std::string workers;
    /** Joint multi-target mode: chip registry names ("tpuv4i",
     *  "edgecpu", "edgenpu", ...) every candidate must serve on. Empty
     *  (the default) is the classic single-platform search, bytes
     *  unchanged. Non-empty, the job's performance stage returns one
     *  serving step time per chip, the reward is the min over per-chip
     *  ReLU rewards (each against stepTimeTargetRel x that chip's
     *  baseline serve time), and the outcome carries one Pareto front
     *  per chip. */
    std::vector<std::string> targets;
};

/** A finished job's outputs. */
struct JobResult
{
    search::SearchOutcome outcome;
    /** Best single-candidate reward over the whole history. */
    double bestReward = -std::numeric_limits<double>::infinity();
    /** Pareto front over the history: quality maximized vs. the first
     *  performance objective (step time) minimized; indices into
     *  outcome.history sorted by increasing cost. */
    std::vector<size_t> paretoIndices;
    size_t stepsRun = 0;
};

/** Incremental scan of a stepper's growing history: tracks the best
 *  reward seen without rereading records. */
struct JobProgress
{
    size_t historyCursor = 0;
    double bestReward = -std::numeric_limits<double>::infinity();

    void absorb(const search::SearchOutcome &outcome)
    {
        for (; historyCursor < outcome.history.size(); ++historyCursor) {
            double r = outcome.history[historyCursor].reward;
            if (r > bestReward)
                bestReward = r;
        }
    }
};

/**
 * The deterministic part of one post-step telemetry row: absorbs the
 * stepper's new history into `progress` and fills the jobId/step/
 * reward fields. The scheduler and runStandalone() both record rows
 * through this helper, which is what makes a served job's telemetry
 * bitwise-comparable with the standalone run (the caller adds the
 * observational fields afterwards). Call exactly once per completed
 * step, immediately after step().
 */
TelemetryRow makeProgressRow(uint64_t job_id,
                             const search::StepwiseSearch &stepper,
                             JobProgress &progress);

/** Build a JobResult from a finished stepper's outcome. */
JobResult makeJobResult(search::SearchOutcome outcome,
                        const JobProgress &progress, size_t steps_run);

/** One live search job: owns the search space, timer, reward and
 *  searcher, and exposes the searcher's resumable stepper. */
class SearchJob
{
  public:
    virtual ~SearchJob() = default;

    /** The job's resumable search state. Owned by the job; save()/
     *  load() it for checkpoint/resume. */
    virtual search::StepwiseSearch &stepper() = 0;
};

/** Builds a job against the server's shared cache. Factories must be
 *  pure: the same spec yields an identically-behaving job. */
using JobFactoryFn = std::function<std::unique_ptr<SearchJob>(
    const JobSpec &, sim::SimCache &)>;

/** The default factory covering every JobKind. */
std::unique_ptr<SearchJob> makeDefaultJob(const JobSpec &spec,
                                          sim::SimCache &shared_cache);

/** A standalone (no server) run of one spec: the bitwise reference for
 *  the server's determinism contract. */
struct StandaloneRun
{
    JobResult result;
    /** Rows as the server would record them, observational fields 0. */
    std::vector<TelemetryRow> rows;
};

/** Run the spec to completion through makeDefaultJob with a PRIVATE
 *  cache of `cache_capacity` entries. */
StandaloneRun runStandalone(const JobSpec &spec,
                            size_t cache_capacity = 1 << 16);

} // namespace h2o::serve

#endif // H2O_SERVE_JOB_H
