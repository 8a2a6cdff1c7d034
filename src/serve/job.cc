#include "serve/job.h"

#include <span>
#include <utility>

#include "arch/dlrm_arch.h"
#include "baselines/quality_model.h"
#include "common/logging.h"
#include "common/rng.h"
#include "eval/dlrm_timer.h"
#include "hw/chip.h"
#include "hw/target_set.h"
#include "pipeline/pipeline.h"
#include "pipeline/traffic_generator.h"
#include "reward/reward.h"
#include "search/h2o_dlrm_search.h"
#include "search/pareto.h"
#include "search/surrogate_search.h"
#include "search/tunas_search.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

namespace h2o::serve {

const char *
jobKindName(JobKind kind)
{
    switch (kind) {
    case JobKind::DlrmSurrogate: return "dlrm_surrogate";
    case JobKind::DlrmSupernet: return "dlrm_supernet";
    case JobKind::DlrmTunas: return "dlrm_tunas";
    }
    return "unknown";
}

TelemetryRow
makeProgressRow(uint64_t job_id, const search::StepwiseSearch &stepper,
                JobProgress &progress)
{
    progress.absorb(stepper.partialOutcome());
    TelemetryRow row;
    row.jobId = job_id;
    row.step = stepper.stepIndex() - 1; // the step just completed
    row.meanReward = stepper.lastMeanReward();
    row.bestReward = progress.bestReward;
    return row;
}

JobResult
makeJobResult(search::SearchOutcome outcome, const JobProgress &progress,
              size_t steps_run)
{
    JobResult result;
    result.bestReward = progress.bestReward;
    result.stepsRun = steps_run;
    std::vector<search::ParetoPoint> points;
    points.reserve(outcome.history.size());
    for (const auto &rec : outcome.history) {
        double cost = rec.performance.empty() ? 0.0 : rec.performance[0];
        points.push_back({rec.quality, cost});
    }
    result.paretoIndices = search::paretoFront(points);
    result.outcome = std::move(outcome);
    return result;
}

namespace {

/** Key-salt per search space sharing the server cache: the surrogate
 *  jobs search the production baselineDlrm() space with the historical
 *  tags (salt 0 — warm files from the benches stay warm), the supernet
 *  kinds search a distinct small space and must never alias. */
constexpr uint64_t kSurrogateSalt = 0;
constexpr uint64_t kSupernetSalt = 1;

/** The small DLRM the weight-sharing kinds train: big enough to have a
 *  real embedding/MLP trade-off, small enough that a supernet step is
 *  tens of microseconds — a thousand-job load test stays cheap. */
arch::DlrmArch
smallDlrm()
{
    arch::DlrmArch a;
    a.name = "dlrm-serve-small";
    a.numDenseFeatures = 4;
    a.tables = {{2048, 8, 1.0}, {512, 8, 1.0}};
    a.bottomMlp = {{16, 0}};
    a.topMlp = {{32, 0}, {16, 0}};
    a.globalBatch = 256;
    return a;
}

/** Shared plumbing of every DLRM job: space, shared-cache timer,
 *  baseline-relative reward targets. The timer resolves the baseline
 *  step time through the shared cache, so even the targets benefit
 *  from cross-tenant hits. With spec.targets set, the job runs in
 *  joint multi-target mode: per-chip serving step times as the
 *  performance stage, a min-combined per-chip reward, and the
 *  multi-target annotation on the search config. */
class DlrmJobBase : public SearchJob
{
  protected:
    DlrmJobBase(const JobSpec &spec, sim::SimCache &shared,
                arch::DlrmArch baseline, uint64_t key_salt)
        : _space(std::move(baseline)),
          _targets(spec.targets.empty()
                       ? hw::TargetSet()
                       : hw::TargetSet::fromNames(joinNames(spec.targets))),
          _timer(hw::trainingPlatform(), hw::servingPlatform(), shared,
                 1, key_salt),
          _baseTime(_timer.trainStepTime(_space, _space.baselineSample())),
          _baseBytes(_space.baseline().modelBytes()),
          _reward(makeJobReward(spec))
    {
    }

    /** Batched performance stage. Single-target: cached simulator step
     *  time + decoded model size, parallel to the reward's objectives.
     *  Multi-target: one serving step time per chip, in target order. */
    search::PerfBatchFn perfFn()
    {
        if (!_targets.empty()) {
            return [this](std::span<const searchspace::Sample> ss) {
                return _timer.serveStepTimesMulti(_space, ss, _targets);
            };
        }
        return [this](std::span<const searchspace::Sample> ss) {
            auto step_times = _timer.trainStepTimes(_space, ss);
            std::vector<std::vector<double>> out;
            out.reserve(ss.size());
            for (size_t i = 0; i < ss.size(); ++i)
                out.push_back(
                    {step_times[i], _space.decode(ss[i]).modelBytes()});
            return out;
        };
    }

    /** The search-config multi-target annotation matching perfFn()
     *  (canonical registry names, so checkpoint validation is
     *  alias-insensitive). Empty in single-target mode. */
    search::MultiTargetSpec multiTargetSpec() const
    {
        search::MultiTargetSpec mt;
        mt.targetNames = _targets.names();
        return mt;
    }

    searchspace::DlrmSearchSpace _space;
    hw::TargetSet _targets;
    eval::CachedDlrmTimer _timer;
    double _baseTime;
    double _baseBytes;
    std::unique_ptr<reward::RewardFunction> _reward;

  private:
    static std::string joinNames(const std::vector<std::string> &names)
    {
        std::string csv;
        for (const auto &n : names) {
            if (!csv.empty())
                csv += ',';
            csv += n;
        }
        return csv;
    }

    std::unique_ptr<reward::RewardFunction>
    makeJobReward(const JobSpec &spec)
    {
        if (_targets.empty()) {
            return std::make_unique<reward::ReluReward>(
                std::vector<reward::PerformanceObjective>{
                    {"step_time", spec.stepTimeTargetRel * _baseTime,
                     -2.0},
                    {"model_size", spec.modelSizeTargetRel * _baseBytes,
                     -2.0}});
        }
        // Per-chip latency targets: the baseline candidate's serving
        // step time on each chip (resolved through the shared cache),
        // scaled by the spec's relative target.
        std::vector<searchspace::Sample> base{_space.baselineSample()};
        auto base_times =
            _timer.serveStepTimesMulti(_space, base, _targets)[0];
        std::vector<reward::PerformanceObjective> objs;
        objs.reserve(_targets.size());
        for (size_t c = 0; c < _targets.size(); ++c)
            objs.push_back({_targets[c].name,
                            spec.stepTimeTargetRel * base_times[c], -2.0});
        return std::make_unique<reward::MultiTargetReward>(std::move(objs));
    }
};

class DlrmSurrogateJob final : public DlrmJobBase
{
  public:
    DlrmSurrogateJob(const JobSpec &spec, sim::SimCache &shared)
        : DlrmJobBase(spec, shared, arch::baselineDlrm(), kSurrogateSalt),
          _search(_space.decisions(),
                  [this](const searchspace::Sample &s) {
                      return 100.0 * baselines::dlrmQualitySurrogate(
                                         _space.decode(s));
                  },
                  perfFn(), *_reward, config(spec))
    {
        common::Rng rng(spec.seed);
        _stepper = _search.makeStepper(rng);
    }

    search::StepwiseSearch &stepper() override { return *_stepper; }

  private:
    search::SurrogateSearchConfig config(const JobSpec &spec) const
    {
        search::SurrogateSearchConfig cfg;
        cfg.numSteps = spec.numSteps;
        cfg.samplesPerStep = spec.samplesPerStep;
        cfg.rl.learningRate = spec.learningRate;
        cfg.rl.entropyWeight = spec.entropyWeight;
        // Steps run inline on the scheduler's worker: concurrency comes
        // from the server running MANY jobs, not from one job fanning
        // out (and the engine's inline path means no nested pools).
        cfg.threads = 1;
        cfg.procs = spec.procs;
        cfg.workers = spec.workers;
        cfg.multiTarget = multiTargetSpec();
        return cfg;
    }

    search::SurrogateSearch _search;
    std::unique_ptr<search::StepwiseSearch> _stepper;
};

/** Supernet + traffic pipeline shared by the two weight-sharing kinds,
 *  seeded exactly as examples/dlrm_search.cpp seeds them. */
class DlrmSupernetJobBase : public DlrmJobBase
{
  protected:
    DlrmSupernetJobBase(const JobSpec &spec, sim::SimCache &shared)
        : DlrmJobBase(spec, shared, smallDlrm(), kSupernetSalt),
          _netRng(spec.seed + 1), _supernet(_space, {}, _netRng),
          _pipeline(makePipeline(_space.baseline(), spec.seed + 2))
    {
    }

    static std::unique_ptr<pipeline::InMemoryPipeline>
    makePipeline(const arch::DlrmArch &baseline, uint64_t seed)
    {
        std::vector<uint64_t> vocabs;
        std::vector<double> avg_ids;
        for (const auto &t : baseline.tables) {
            vocabs.push_back(t.vocab);
            avg_ids.push_back(t.avgIds);
        }
        auto gen = std::make_unique<pipeline::TrafficGenerator>(
            pipeline::trafficConfigFor(baseline.numDenseFeatures, vocabs,
                                       avg_ids),
            seed);
        return std::make_unique<pipeline::InMemoryPipeline>(
            std::move(gen), 32);
    }

    common::Rng _netRng;
    supernet::DlrmSupernet _supernet;
    std::unique_ptr<pipeline::InMemoryPipeline> _pipeline;
};

class DlrmSupernetJob final : public DlrmSupernetJobBase
{
  public:
    DlrmSupernetJob(const JobSpec &spec, sim::SimCache &shared)
        : DlrmSupernetJobBase(spec, shared),
          _search(_space, _supernet, *_pipeline, perfFn(), *_reward,
                  config(spec))
    {
        common::Rng rng(spec.seed);
        _stepper = _search.makeStepper(rng);
    }

    search::StepwiseSearch &stepper() override { return *_stepper; }

  private:
    search::H2oSearchConfig config(const JobSpec &spec) const
    {
        search::H2oSearchConfig cfg;
        cfg.numShards = spec.samplesPerStep;
        cfg.numSteps = spec.numSteps;
        cfg.warmupSteps = 4;
        cfg.rl.learningRate = spec.learningRate;
        cfg.rl.entropyWeight = spec.entropyWeight;
        cfg.threads = 1; // see DlrmSurrogateJob::config
        cfg.procs = spec.procs;
        cfg.workers = spec.workers;
        cfg.multiTarget = multiTargetSpec();
        return cfg;
    }

    search::H2oDlrmSearch _search;
    std::unique_ptr<search::StepwiseSearch> _stepper;
};

class DlrmTunasJob final : public DlrmSupernetJobBase
{
  public:
    DlrmTunasJob(const JobSpec &spec, sim::SimCache &shared)
        : DlrmSupernetJobBase(spec, shared),
          _search(_space, _supernet, *_pipeline, perfFn(), *_reward,
                  config(spec))
    {
        common::Rng rng(spec.seed);
        _stepper = _search.makeStepper(rng);
    }

    search::StepwiseSearch &stepper() override { return *_stepper; }

  private:
    search::TunasSearchConfig config(const JobSpec &spec) const
    {
        search::TunasSearchConfig cfg;
        cfg.numIterations = spec.numSteps;
        cfg.warmupSteps = 4;
        cfg.rl.learningRate = spec.learningRate;
        cfg.rl.entropyWeight = spec.entropyWeight;
        cfg.procs = spec.procs;
        cfg.workers = spec.workers;
        cfg.multiTarget = multiTargetSpec();
        return cfg;
    }

    search::TunasSearch _search;
    std::unique_ptr<search::StepwiseSearch> _stepper;
};

} // namespace

std::unique_ptr<SearchJob>
makeDefaultJob(const JobSpec &spec, sim::SimCache &shared_cache)
{
    switch (spec.kind) {
    case JobKind::DlrmSurrogate:
        return std::make_unique<DlrmSurrogateJob>(spec, shared_cache);
    case JobKind::DlrmSupernet:
        return std::make_unique<DlrmSupernetJob>(spec, shared_cache);
    case JobKind::DlrmTunas:
        return std::make_unique<DlrmTunasJob>(spec, shared_cache);
    }
    h2o_fatal("unknown job kind ", static_cast<int>(spec.kind));
}

StandaloneRun
runStandalone(const JobSpec &spec, size_t cache_capacity)
{
    sim::SimCache private_cache(cache_capacity);
    auto job = makeDefaultJob(spec, private_cache);
    auto &stepper = job->stepper();

    StandaloneRun run;
    JobProgress progress;
    while (!stepper.done()) {
        stepper.step();
        run.rows.push_back(makeProgressRow(spec.id, stepper, progress));
    }
    size_t steps = stepper.stepIndex();
    run.result = makeJobResult(stepper.finish(), progress, steps);
    return run;
}

} // namespace h2o::serve
