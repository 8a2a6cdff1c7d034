#include "workloads.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>

#include "arch/dlrm_arch.h"
#include "baselines/quality_model.h"
#include "common/rng.h"
#include "eval/dlrm_timer.h"
#include "hw/chip.h"
#include "hw/target_set.h"
#include "nn/tensor.h"
#include "perfmodel/features.h"
#include "perfmodel/hardware_oracle.h"
#include "perfmodel/perf_model.h"
#include "perfmodel/two_phase.h"
#include "pipeline/pipeline.h"
#include "pipeline/traffic_generator.h"
#include "reward/reward.h"
#include "search/h2o_dlrm_search.h"
#include "search/stepwise.h"
#include "search/surrogate_search.h"
#include "searchspace/dlrm_space.h"
#include "serve/scheduler.h"
#include "sim/simulator.h"
#include "supernet/dlrm_supernet.h"

namespace h2o::e2e {

namespace {

using searchspace::Sample;

/**
 * Rounds whose outputs the statistical checks (fine-tuning beats
 * pretraining, the training loss falls) average over: the first ones of
 * the run, which every run makes (main() runs at least three rounds), so
 * a verdict depends on --seed alone and not on how many rounds fit in
 * the run. A single round can miss either property: fine-tuning lost to
 * pretraining (ratio 1.001) in one of ~150 full-size rounds seen, and
 * the loss of the last tenth of steps came within 0.3% of the first
 * tenth's in a round of 314.
 */
constexpr size_t kCheckedRounds = 3;

/** Step time of one candidate from a fresh, uncached simulator — the
 *  reference the program's cached values are checked against. */
sim::SimResult
simulateUncached(const searchspace::DlrmSearchSpace &space,
                 const Sample &sample, const hw::Platform &platform,
                 arch::ExecMode mode)
{
    arch::DlrmArch a = space.decode(sample);
    if (mode == arch::ExecMode::Serving)
        a.globalBatch = 1024; // the serving batch CachedDlrmTimer uses
    sim::Simulator simulator({platform.chip, true, true, {}});
    return simulator.run(arch::buildDlrmGraph(a, platform, mode));
}

/** One (candidate, platform) pair to lower and simulate again. */
struct ReplayItem
{
    const Sample *sample = nullptr;
    hw::Platform platform;
    arch::ExecMode mode = arch::ExecMode::Serving;
};

/** Replays pairs a round already simulated: lowering (decode +
 *  arch::buildDlrmGraph) and simulation (Simulator::runBatchMulti) are
 *  timed apart, on this thread. Returns microseconds per graph. */
std::pair<double, double>
replayLowerAndSimulate(const searchspace::DlrmSearchSpace &space,
                       const std::vector<ReplayItem> &items)
{
    if (items.empty())
        return {0.0, 0.0};
    std::vector<sim::SimConfig> configs;
    configs.reserve(items.size());
    for (const ReplayItem &it : items)
        configs.push_back({it.platform.chip, true, true, {}});

    std::vector<sim::Graph> graphs;
    graphs.reserve(items.size());
    auto t0 = Clock::now();
    {
        Span span("arch.lower_replay");
        for (const ReplayItem &it : items) {
            arch::DlrmArch a = space.decode(*it.sample);
            if (it.mode == arch::ExecMode::Serving)
                a.globalBatch = 1024;
            graphs.push_back(arch::buildDlrmGraph(a, it.platform, it.mode));
        }
    }
    double lower_s = secondsSince(t0);

    std::vector<sim::SimRequest> reqs;
    reqs.reserve(items.size());
    for (size_t i = 0; i < items.size(); ++i)
        reqs.push_back({&graphs[i], &configs[i]});
    auto t1 = Clock::now();
    {
        Span span("sim.run_replay");
        auto results = sim::Simulator::runBatchMulti(reqs);
        h2o_assert(results.size() == items.size(), "replay size mismatch");
    }
    double run_s = secondsSince(t1);
    double n = double(items.size());
    return {lower_s / n * 1e6, run_s / n * 1e6};
}

/** Per-layer sums over the traced rounds of one workload. */
class LayerSums
{
  public:
    void add(const std::string &name, double v) { _sums[name] += v; }
    double sum(const std::string &name) const
    {
        auto it = _sums.find(name);
        return it == _sums.end() ? 0.0 : it->second;
    }
    void countRound() { ++_rounds; }
    double perRound(const std::string &name) const
    {
        return _rounds ? sum(name) / double(_rounds) : 0.0;
    }

  private:
    std::map<std::string, double> _sums;
    size_t _rounds = 0;
};

/** Summed duration of the spans called `name` that started after
 *  `since_id`, and their count (a round's own spans). */
std::pair<double, size_t>
spanTotal(const std::vector<SpanRecord> &spans, const char *name,
          uint64_t since_id = 0)
{
    double sum = 0.0;
    size_t n = 0;
    for (const SpanRecord &s : spans) {
        if (s.id > since_id && std::string_view(s.name) == name) {
            sum += s.seconds();
            ++n;
        }
    }
    return {sum, n};
}

/** Summed duration of the `child` spans (started after `since_id`)
 *  whose parent is a `parent` span. */
double
childTotal(const std::vector<SpanRecord> &spans, const char *child,
           const char *parent, uint64_t since_id)
{
    std::set<uint64_t> parents;
    for (const SpanRecord &s : spans)
        if (s.id > since_id && std::string_view(s.name) == parent)
            parents.insert(s.id);
    double sum = 0.0;
    for (const SpanRecord &s : spans)
        if (std::string_view(s.name) == child && parents.count(s.parent))
            sum += s.seconds();
    return sum;
}

void
addCacheMetrics(Metrics &out, const LayerSums &sums)
{
    double hits = sums.perRound("hits");
    double misses = sums.perRound("misses");
    out.push_back({"sim_cache.lookups", hits + misses, "count"});
    out.push_back({"sim_cache.hits", hits, "count"});
    out.push_back({"sim_cache.misses", misses, "count"});
    out.push_back({"sim_cache.evictions", sums.perRound("evictions"),
                   "count"});
    out.push_back({"sim_cache.hit_rate",
                   hits + misses > 0 ? hits / (hits + misses) : 0.0,
                   "ratio"});
}

void
addCacheStats(LayerSums &sums, const sim::SimCacheStats &s)
{
    sums.add("hits", double(s.hits));
    sums.add("misses", double(s.misses));
    sums.add("evictions", double(s.evictions));
}

/** The search and perf-stage metrics of the two search workloads, from
 *  the step_s/steps/perf_s sums of their traced rounds. */
void
addSearchMetrics(Metrics &out, const LayerSums &sums)
{
    double steps = sums.sum("steps");
    double step_s = sums.sum("step_s");
    double perf_s = sums.sum("perf_s");
    out.push_back({"search.step_s", steps > 0 ? step_s / steps : 0.0, "s"});
    out.push_back({"search.step_self_s",
                   steps > 0 ? (step_s - perf_s) / steps : 0.0, "s"});
    out.push_back({"eval.perf_fn_s", steps > 0 ? perf_s / steps : 0.0, "s"});
    out.push_back({"eval.perf_fn_share", step_s > 0 ? perf_s / step_s : 0.0,
                   "ratio"});
    addCacheMetrics(out, sums);
    double misses = sums.perRound("misses");
    out.push_back({"sim.us_per_miss",
                   misses > 0 ? sums.perRound("perf_s") / misses * 1e6 : 0.0,
                   "us"});
}

std::vector<uint64_t>
vocabsOf(const arch::DlrmArch &a)
{
    std::vector<uint64_t> v;
    for (const auto &t : a.tables)
        v.push_back(t.vocab);
    return v;
}

std::vector<double>
avgIdsOf(const arch::DlrmArch &a)
{
    std::vector<double> v;
    for (const auto &t : a.tables)
        v.push_back(t.avgIds);
    return v;
}

// ---------------------------------------------------------------------
// perfmodel_two_phase
// ---------------------------------------------------------------------

/** The Table 1 path through the public API: a cold SimCache labels
 *  uniformly drawn DLRM candidates (batched, fill pool of `threads`),
 *  the MLP perf model pretrains on them, fine-tunes on 20 hardware-
 *  oracle points and is scored on a held-out oracle set. */
class PerfmodelTwoPhase final : public Workload
{
  public:
    explicit PerfmodelTwoPhase(const Options &o)
        : _o(o), _space(arch::baselineDlrm()), _encoder(_space),
          _trainPlatform(hw::trainingPlatform()),
          _servePlatform(hw::servingPlatform()),
          _pretrainSamples(o.tiny ? 2000 : 10000),
          _evalSamples(o.tiny ? 60 : 400)
    {
        _config.hiddenWidth = 128;
        _config.hiddenLayers = 2;
        _config.epochs = o.tiny ? 10 : 30;
        common::Rng rng(o.seed ^ 0x5eedf00dULL);
        const size_t rows = o.tiny ? 256 : 4096;
        for (size_t i = 0; i < rows; ++i)
            _predictRows.push_back(
                _encoder.encode(_space.decisions().uniformSample(rng)));
    }

    void round(uint64_t seed, bool traced) override
    {
        const size_t allocs0 = nn::tensorAllocCount();
        const uint64_t first_span = traced ? tracer().nextId() : 0;
        eval::CachedDlrmTimer timer(_trainPlatform, _servePlatform, 1 << 16,
                                    _o.threads);
        std::vector<Sample> pretrain_samples;
        std::vector<perfmodel::SimTimes> pretrain_labels;
        perfmodel::SimulateBatchFn label =
            [&](std::span<const Sample> samples) {
                Span span("perfmodel.label");
                auto train_t = timer.trainStepTimes(_space, samples);
                auto serve_t = timer.serveStepTimes(_space, samples);
                std::vector<perfmodel::SimTimes> out(samples.size());
                for (size_t i = 0; i < samples.size(); ++i)
                    out[i] = {train_t[i], serve_t[i]};
                if (pretrain_samples.empty()) {
                    pretrain_samples.assign(samples.begin(), samples.end());
                    pretrain_labels = out;
                }
                return out;
            };
        perfmodel::TwoPhaseTrainer trainer(
            _space.decisions(), _encoder, label,
            perfmodel::HardwareOracle({}, seed * 31 + 5));
        common::Rng rng(seed);
        perfmodel::PerfModel model(_encoder.dim(), _config, rng);
        {
            Span span("perfmodel.pretrain");
            trainer.pretrain(model, _pretrainSamples, rng);
        }
        // Pre- and post-fine-tune scores use the same candidate set (a
        // fork with a fixed salt depends on the seed alone).
        common::Rng pre_rng = rng.fork(0xe7a1);
        perfmodel::EvalNrmse pre;
        {
            Span span("perfmodel.evaluate");
            pre = trainer.evaluateAgainstOracle(model, _evalSamples, pre_rng);
        }
        {
            Span span("perfmodel.finetune");
            trainer.finetune(model, 20, rng);
        }
        common::Rng post_rng = rng.fork(0xe7a1);
        perfmodel::EvalNrmse post;
        {
            Span span("perfmodel.evaluate");
            post =
                trainer.evaluateAgainstOracle(model, _evalSamples, post_rng);
        }
        auto t_predict = Clock::now();
        {
            Span span("perfmodel.predict");
            auto preds = model.predictBatch(_predictRows);
            h2o_assert(preds.size() == _predictRows.size(),
                       "predictBatch size mismatch");
        }
        double predict_s = secondsSince(t_predict);

        if (_nrmseRounds.size() < kCheckedRounds)
            _nrmseRounds.push_back({pre.train, post.train});
        _ev.nrmseCeiling = _o.tiny ? kTinyNrmseCeiling : kNrmseCeiling;
        _nrmse = post.train;
        _samples = std::move(pretrain_samples);
        _labels = std::move(pretrain_labels);

        if (!traced)
            return;
        sim::SimCacheStats cs = timer.cacheStats();
        auto spans = tracer().spans();
        double label_s = spanTotal(spans, "perfmodel.label", first_span).first;
        double pretrain_s =
            spanTotal(spans, "perfmodel.pretrain", first_span).first;
        double label_in_pretrain_s = childTotal(
            spans, "perfmodel.label", "perfmodel.pretrain", first_span);
        _sums.countRound();
        addCacheStats(_sums, cs);
        _sums.add("label_s", label_s);
        _sums.add("pretrain_fit_s", pretrain_s - label_in_pretrain_s);
        _sums.add("finetune_s",
                  spanTotal(spans, "perfmodel.finetune", first_span).first);
        _sums.add("predict_rows", double(_predictRows.size()));
        _sums.add("predict_s", predict_s);
        _sums.add("allocs", double(nn::tensorAllocCount() - allocs0));
    }

    Failures check() override { return checkPerfmodel(evidence()); }

    /** The last round's evidence, with the uncached references, and
     *  the NRMSEs averaged over the first kCheckedRounds rounds. */
    PerfmodelEvidence evidence() const
    {
        PerfmodelEvidence ev = _ev;
        for (const auto &[pre, post] : _nrmseRounds) {
            ev.pretrainedNrmse += pre / double(_nrmseRounds.size());
            ev.finetunedNrmse += post / double(_nrmseRounds.size());
        }
        const size_t n_labels = std::min<size_t>(_o.tiny ? 8 : 32,
                                                 _samples.size());
        for (size_t i = 0; i < n_labels; ++i) {
            ev.labels.push_back(
                {_labels[i].trainSec,
                 simulateUncached(_space, _samples[i], _trainPlatform,
                                  arch::ExecMode::Training)
                     .stepTimeSec});
            ev.labels.push_back(
                {_labels[i].serveSec,
                 simulateUncached(_space, _samples[i], _servePlatform,
                                  arch::ExecMode::Serving)
                     .stepTimeSec});
        }
        const size_t n_bounds = std::min<size_t>(_o.tiny ? 4 : 16,
                                                 _samples.size());
        for (hw::ChipModel m : hw::allChipModels()) {
            hw::Platform p{hw::chipSpec(m), _trainPlatform.numChips};
            for (size_t i = 0; i < n_bounds; ++i)
                ev.bounds.push_back(
                    {hw::chipModelName(m), p.chip.peakTensorFlops,
                     simulateUncached(_space, _samples[i], p,
                                      arch::ExecMode::Training)});
        }
        return ev;
    }

    uint64_t jobsPerRound() const override { return 1; }
    uint64_t candidatesPerRound() const override { return _pretrainSamples; }

    Metrics layerMetrics() override
    {
        Metrics out;
        addCacheMetrics(out, _sums);
        double misses = _sums.perRound("misses");
        out.push_back({"sim.us_per_miss",
                       misses > 0 ? _sums.perRound("label_s") / misses * 1e6
                                  : 0.0,
                       "us"});
        // Replay the pretrain set's distinct training graphs.
        std::vector<ReplayItem> items;
        std::set<Sample> seen;
        const size_t cap = _o.tiny ? 64 : 1024;
        for (const Sample &s : _samples) {
            if (items.size() >= cap)
                break;
            if (seen.insert(s).second)
                items.push_back({&s, _trainPlatform,
                                 arch::ExecMode::Training});
        }
        auto [lower_us, run_us] = replayLowerAndSimulate(_space, items);
        out.push_back({"arch.lower_us_per_graph", lower_us, "us"});
        out.push_back({"sim.run_us_per_graph", run_us, "us"});
        out.push_back({"perfmodel.label_s", _sums.perRound("label_s"), "s"});
        out.push_back({"perfmodel.pretrain_fit_s",
                       _sums.perRound("pretrain_fit_s"), "s"});
        out.push_back({"perfmodel.finetune_s", _sums.perRound("finetune_s"),
                       "s"});
        double predict_s = _sums.sum("predict_s");
        out.push_back({"perfmodel.predict_rows_per_s",
                       predict_s > 0 ? _sums.sum("predict_rows") / predict_s
                                     : 0.0,
                       "1/s"});
        out.push_back({"perfmodel.nrmse", _nrmse, "ratio"});
        out.push_back({"nn.tensor_allocs", _sums.perRound("allocs"), "count"});
        return out;
    }

  private:
    /** Fixed ceiling on the fine-tuned training-head NRMSE (the worst
     *  of seeds 1-40 reads 0.125 at full size). A tiny round trains too
     *  little for it and gets a looser one. */
    static constexpr double kNrmseCeiling = 0.20;
    static constexpr double kTinyNrmseCeiling = 0.50;

    Options _o;
    searchspace::DlrmSearchSpace _space;
    perfmodel::DlrmFeatureEncoder _encoder;
    hw::Platform _trainPlatform;
    hw::Platform _servePlatform;
    size_t _pretrainSamples;
    size_t _evalSamples;
    perfmodel::PerfModelConfig _config;
    std::vector<std::vector<double>> _predictRows;

    PerfmodelEvidence _ev;
    /** (pretrained, fine-tuned) NRMSE of the first rounds. */
    std::vector<std::pair<double, double>> _nrmseRounds;
    double _nrmse = 0.0;
    std::vector<Sample> _samples;
    std::vector<perfmodel::SimTimes> _labels;
    LayerSums _sums;
};

// ---------------------------------------------------------------------
// h2o_supernet
// ---------------------------------------------------------------------

/** The flagship DLRM of examples/dlrm_search.cpp. */
arch::DlrmArch
flagshipDlrm()
{
    arch::DlrmArch baseline;
    baseline.numDenseFeatures = 8;
    baseline.tables = {{65536, 24, 1.0}, {16384, 16, 1.0},
                       {4096, 16, 1.0},  {1024, 8, 2.0}};
    baseline.bottomMlp = {{64, 0}, {32, 0}};
    baseline.topMlp = {{128, 0}, {64, 0}};
    baseline.globalBatch = 4096;
    return baseline;
}

/** One whole unified single-step search per round: a fresh supernet
 *  and traffic pipeline, 16 shards on `threads` workers, the batched
 *  cached-simulator perf stage, driven step by step. */
class H2oSupernet final : public Workload
{
  public:
    explicit H2oSupernet(const Options &o)
        : _o(o), _space(flagshipDlrm()),
          _platform(hw::trainingPlatform()),
          _steps(o.tiny ? 20 : 40), _warmup(o.tiny ? 2 : 4)
    {
        double base_time = simulateUncached(_space, _space.baselineSample(),
                                            _platform,
                                            arch::ExecMode::Training)
                               .stepTimeSec;
        _objectives = {{base_time, -2.0},
                       {_space.baseline().modelBytes(), -2.0}};
    }

    void round(uint64_t seed, bool traced) override
    {
        const size_t allocs0 = nn::tensorAllocCount();
        const uint64_t first_span = traced ? tracer().nextId() : 0;
        common::Rng net_rng(seed + 1);
        supernet::DlrmSupernet net(_space, {}, net_rng);
        const arch::DlrmArch &base = _space.baseline();
        pipeline::InMemoryPipeline pipe(
            std::make_unique<pipeline::TrafficGenerator>(
                pipeline::trafficConfigFor(base.numDenseFeatures,
                                           vocabsOf(base), avgIdsOf(base)),
                seed + 2),
            kBatch);
        eval::CachedDlrmTimer timer(_platform, hw::servingPlatform());
        reward::ReluReward reward(
            {{"step_time", _objectives[0].target, _objectives[0].beta},
             {"model_size", _objectives[1].target, _objectives[1].beta}});
        search::PerfBatchFn perf = [&](std::span<const Sample> ss) {
            Span span("eval.perf_fn");
            auto times = timer.trainStepTimes(_space, ss);
            std::vector<std::vector<double>> out;
            out.reserve(ss.size());
            for (size_t i = 0; i < ss.size(); ++i)
                out.push_back({times[i], _space.decode(ss[i]).modelBytes()});
            return out;
        };
        search::H2oSearchConfig cfg;
        cfg.numShards = kShards;
        cfg.numSteps = _steps;
        cfg.warmupSteps = _warmup;
        cfg.threads = _o.threads;
        search::H2oDlrmSearch search(_space, net, pipe, perf, reward, cfg);
        common::Rng srng(seed + 3);
        auto stepper = search.makeStepper(srng);
        bool more = true;
        while (more) {
            Span span("search.step");
            more = stepper->step();
        }
        search::SearchOutcome outcome = stepper->finish();

        pipeline::PipelineStats ps = pipe.stats();
        _ev = SupernetEvidence{};
        _ev.history = std::move(outcome.history);
        _ev.objectives = _objectives;
        _ev.batchesIssued = ps.batchesIssued;
        _ev.examplesIssued = ps.examplesIssued;
        _ev.completeLeases = ps.completeLeases;
        _ev.alphaOnlyLeases = ps.alphaOnlyLeases;
        _ev.shards = kShards;
        _ev.steps = _steps;
        _ev.warmupSteps = _warmup;
        _ev.batchSize = kBatch;
        if (_lossRounds.size() < kCheckedRounds) {
            _lossRounds.emplace_back();
            for (const auto &st : search.stepStats())
                _lossRounds.back().push_back(st.trainLoss);
        }

        if (!traced)
            return;
        auto spans = tracer().spans();
        auto [step_s, n_steps] = spanTotal(spans, "search.step", first_span);
        double perf_s = spanTotal(spans, "eval.perf_fn", first_span).first;
        _sums.countRound();
        _sums.add("step_s", step_s);
        _sums.add("steps", double(n_steps));
        _sums.add("perf_s", perf_s);
        addCacheStats(_sums, timer.cacheStats());
        _sums.add("batches", double(ps.batchesIssued));
        _sums.add("examples", double(ps.examplesIssued));
        _sums.add("alpha_only", double(ps.alphaOnlyLeases));
        _sums.add("allocs", double(nn::tensorAllocCount() - allocs0));
    }

    Failures check() override { return checkSupernet(evidence()); }

    SupernetEvidence evidence() const
    {
        SupernetEvidence ev = _ev;
        // Each step's training loss averaged over the first rounds.
        ev.stepLosses.assign(_lossRounds.front().size(), 0.0);
        for (const std::vector<double> &losses : _lossRounds)
            for (size_t i = 0; i < losses.size(); ++i)
                ev.stepLosses[i] += losses[i] / double(_lossRounds.size());
        const size_t n = std::min<size_t>(_o.tiny ? 8 : 32, ev.history.size());
        for (size_t i = 0; i < n; ++i) {
            const auto &rec = ev.history[i * ev.history.size() / n];
            ev.stepTimes.push_back(
                {rec.performance.empty() ? 0.0 : rec.performance[0],
                 simulateUncached(_space, rec.sample, _platform,
                                  arch::ExecMode::Training)
                     .stepTimeSec});
        }
        return ev;
    }

    uint64_t jobsPerRound() const override { return 1; }
    uint64_t candidatesPerRound() const override { return kShards * _steps; }

    Metrics layerMetrics() override
    {
        Metrics out;
        addSearchMetrics(out, _sums);
        out.push_back({"nn.tensor_allocs", _sums.perRound("allocs"), "count"});
        out.push_back({"pipeline.batches", _sums.perRound("batches"),
                       "count"});
        out.push_back({"pipeline.examples", _sums.perRound("examples"),
                       "count"});
        out.push_back({"pipeline.alpha_only_leases",
                       _sums.perRound("alpha_only"), "count"});
        return out;
    }

  private:
    static constexpr size_t kShards = 16;
    static constexpr size_t kBatch = 64;

    Options _o;
    searchspace::DlrmSearchSpace _space;
    hw::Platform _platform;
    size_t _steps;
    size_t _warmup;
    std::vector<ReluObjective> _objectives;
    SupernetEvidence _ev;
    /** Per-step training losses of the first rounds. */
    std::vector<std::vector<double>> _lossRounds;
    LayerSums _sums;
};

// ---------------------------------------------------------------------
// multitarget_cold
// ---------------------------------------------------------------------

/** One whole joint multi-target surrogate search per round, from an
 *  EMPTY SimCache: wide steps, a fill pool of `threads`, and a strong
 *  entropy bonus so candidates stay distinct and keep missing. */
class MultitargetCold final : public Workload
{
  public:
    explicit MultitargetCold(const Options &o)
        : _o(o), _space(arch::baselineDlrm()),
          _targets(hw::TargetSet::fromNames("tpuv4i,edgecpu,edgenpu")),
          _steps(o.tiny ? 3 : 6), _width(o.tiny ? 64 : 2048)
    {
        std::vector<reward::PerformanceObjective> objs;
        for (const hw::Target &t : _targets) {
            double base = simulateUncached(_space, _space.baselineSample(),
                                           t.platform,
                                           arch::ExecMode::Serving)
                              .stepTimeSec;
            _objectives.push_back({base, -2.0});
            objs.push_back({t.name, base, -2.0});
        }
        _reward = std::make_unique<reward::MultiTargetReward>(objs);
    }

    void round(uint64_t seed, bool traced) override
    {
        const uint64_t first_span = traced ? tracer().nextId() : 0;
        eval::CachedDlrmTimer timer(hw::trainingPlatform(),
                                    hw::servingPlatform(), 1 << 16,
                                    _o.threads);
        search::PerfBatchFn perf = [&](std::span<const Sample> ss) {
            Span span("eval.perf_fn");
            return timer.serveStepTimesMulti(_space, ss, _targets);
        };
        search::QualityFn quality = [this](const Sample &s) {
            return 100.0 * baselines::dlrmQualitySurrogate(_space.decode(s));
        };
        search::SurrogateSearchConfig cfg;
        cfg.numSteps = _steps;
        cfg.samplesPerStep = _width;
        cfg.rl.learningRate = 0.05;
        cfg.rl.entropyWeight = 0.05;
        cfg.threads = _o.threads;
        cfg.multiTarget.targetNames = _targets.names();
        search::SurrogateSearch search(_space.decisions(), quality, perf,
                                       *_reward, cfg);
        common::Rng rng(seed);
        auto stepper = search.makeStepper(rng);
        bool more = true;
        while (more) {
            Span span("search.step");
            more = stepper->step();
        }
        search::SearchOutcome outcome = stepper->finish();
        sim::SimCacheStats cs = timer.cacheStats();

        _ev = MultitargetEvidence{};
        _ev.history = std::move(outcome.history);
        _ev.fronts = std::move(outcome.targetFronts);
        _ev.objectives = _objectives;
        _ev.hits = cs.hits;
        _ev.misses = cs.misses;
        std::set<Sample> distinct;
        for (const auto &rec : _ev.history)
            distinct.insert(rec.sample);
        _ev.distinctPairs = distinct.size() * _targets.size();

        if (!traced)
            return;
        auto spans = tracer().spans();
        auto [step_s, n_steps] = spanTotal(spans, "search.step", first_span);
        _sums.countRound();
        _sums.add("step_s", step_s);
        _sums.add("steps", double(n_steps));
        _sums.add("perf_s", spanTotal(spans, "eval.perf_fn", first_span).first);
        addCacheStats(_sums, cs);
    }

    Failures check() override { return checkMultitarget(_ev); }
    const MultitargetEvidence &evidence() const { return _ev; }

    uint64_t jobsPerRound() const override { return 1; }
    uint64_t candidatesPerRound() const override { return _steps * _width; }

    Metrics layerMetrics() override
    {
        Metrics out;
        addSearchMetrics(out, _sums);
        // Replay the distinct (candidate, chip) pairs of the last round.
        std::vector<ReplayItem> items;
        std::set<Sample> seen;
        const size_t cap = _o.tiny ? 96 : 1536;
        for (const auto &rec : _ev.history) {
            if (items.size() >= cap)
                break;
            if (!seen.insert(rec.sample).second)
                continue;
            for (const hw::Target &t : _targets)
                items.push_back({&rec.sample, t.platform,
                                 arch::ExecMode::Serving});
        }
        auto [lower_us, run_us] = replayLowerAndSimulate(_space, items);
        out.push_back({"arch.lower_us_per_graph", lower_us, "us"});
        out.push_back({"sim.run_us_per_graph", run_us, "us"});
        return out;
    }

  private:
    Options _o;
    searchspace::DlrmSearchSpace _space;
    hw::TargetSet _targets;
    size_t _steps;
    size_t _width;
    std::vector<ReluObjective> _objectives;
    std::unique_ptr<reward::MultiTargetReward> _reward;
    MultitargetEvidence _ev;
    LayerSums _sums;
};

// ---------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------

/** Forwards a job's stepper, timing each step as a serve.job_step span
 *  under the current scheduling-round span. */
class TimedStepper final : public search::StepwiseSearch
{
  public:
    TimedStepper(search::StepwiseSearch &inner, uint64_t job,
                 const std::atomic<uint64_t> &round_span)
        : _inner(inner), _job(job), _roundSpan(round_span)
    {
    }

    bool step() override
    {
        Span span("serve.job_step", _job,
                  _roundSpan.load(std::memory_order_relaxed));
        return _inner.step();
    }
    size_t stepIndex() const override { return _inner.stepIndex(); }
    size_t totalSteps() const override { return _inner.totalSteps(); }
    double lastMeanReward() const override
    {
        return _inner.lastMeanReward();
    }
    const search::SearchOutcome &partialOutcome() const override
    {
        return _inner.partialOutcome();
    }
    search::SearchOutcome finish() override { return _inner.finish(); }
    exec::ProcPoolStats transportStats() const override
    {
        return _inner.transportStats();
    }
    void save(std::ostream &os) const override { _inner.save(os); }
    void load(std::istream &is) override { _inner.load(is); }

  private:
    search::StepwiseSearch &_inner;
    uint64_t _job;
    const std::atomic<uint64_t> &_roundSpan;
};

class TimedJob final : public serve::SearchJob
{
  public:
    TimedJob(std::unique_ptr<serve::SearchJob> inner, uint64_t job,
             const std::atomic<uint64_t> &round_span)
        : _inner(std::move(inner)),
          _stepper(_inner->stepper(), job, round_span)
    {
    }
    search::StepwiseSearch &stepper() override { return _stepper; }

  private:
    std::unique_ptr<serve::SearchJob> _inner;
    TimedStepper _stepper;
};

/**
 * A closed loop of tenants on serve::Server: each tenant submits its
 * next job as soon as its last one is Done. One round is a fixed batch
 * of jobs on a fresh server (cold shared cache that warms up as the
 * round goes). The server and the jobs take the defaults of
 * bench/bench_serve_load.cc (8 slots, 4 steps per slice, 6 steps of 4
 * candidates, latency targets cycling 0.85/0.95/1.0/1.1 x baseline, and
 * seeds cycling a pool a tenth as large as the job count: 100 seeds for
 * its 1000 jobs there); the job kinds follow the tenant mix of
 * examples/serve_demo.cpp (4 DlrmSurrogate : 1 DlrmSupernet :
 * 1 DlrmTunas).
 */
class ServeMix final : public Workload
{
  public:
    explicit ServeMix(const Options &o)
        : _o(o), _tenants(o.tiny ? 4 : 16), _jobsPerTenant(o.tiny ? 3 : 8),
          _specs(makeSpecs(o.seed))
    {
    }

    /** The round's jobs in submission order: job i = j * tenants + t is
     *  tenant t's j-th job. Job i has kind i % 6 of the serve_demo mix,
     *  latency target i % 4 and seed `base + i % pool`, where the round's
     *  seed picks the base, so every seed runs the same mix. */
    std::vector<serve::JobSpec> makeSpecs(uint64_t seed) const
    {
        const std::vector<double> targets{0.85, 0.95, 1.0, 1.1};
        const uint64_t base = 1 + common::Rng(seed).next64() % 1000000;
        const size_t n_jobs = _tenants * _jobsPerTenant;
        const size_t pool = std::max<size_t>(1, n_jobs / 10);
        std::vector<serve::JobSpec> specs;
        for (size_t i = 0; i < n_jobs; ++i) {
            serve::JobSpec spec;
            spec.name = "t" + std::to_string(i % _tenants) + "-j" +
                        std::to_string(i / _tenants);
            spec.kind = i % 6 == 4   ? serve::JobKind::DlrmSupernet
                        : i % 6 == 5 ? serve::JobKind::DlrmTunas
                                     : serve::JobKind::DlrmSurrogate;
            spec.seed = base + i % pool;
            spec.numSteps = 6;
            spec.samplesPerStep = 4;
            spec.stepTimeTargetRel = targets[i % targets.size()];
            specs.push_back(spec);
        }
        return specs;
    }

    void round(uint64_t seed, bool traced) override
    {
        const size_t allocs0 = nn::tensorAllocCount();
        const uint64_t first_span = traced ? tracer().nextId() : 0;
        ++_roundIndex;
        _specs = makeSpecs(seed);
        if (!traced)
            _latencies.emplace_back();
        std::map<uint64_t, int64_t> submit_ns;
        std::atomic<uint64_t> round_span{0};

        serve::ServeConfig cfg;
        cfg.threads = _o.threads;
        cfg.maxConcurrentJobs = 8;
        cfg.stepsPerSlice = 4;
        cfg.cacheCapacity = 1 << 16;
        const uint64_t job_base = _roundIndex * 1000000;
        if (traced) {
            cfg.factory = [&](const serve::JobSpec &spec,
                              sim::SimCache &cache)
                -> std::unique_ptr<serve::SearchJob> {
                const uint64_t job = job_base + spec.id;
                SpanRecord wait;
                wait.name = "serve.queue_wait";
                wait.id = tracer().nextId();
                wait.parent = round_span.load();
                wait.job = job;
                wait.tid = threadIndex();
                wait.startNs = submit_ns.at(spec.id);
                wait.endNs = nowNs();
                tracer().record(wait);
                Span span("serve.job_setup", job);
                return std::make_unique<TimedJob>(
                    serve::makeDefaultJob(spec, cache), job, round_span);
            };
        }
        serve::Server server(cfg);

        // Closed loop: tenant t runs jobs t, t + T, t + 2T, ... one at a
        // time (T tenants).
        std::vector<size_t> next(_tenants, 0);
        std::vector<uint64_t> current(_tenants, 0);
        std::vector<Clock::time_point> submitted(_tenants);
        std::vector<uint64_t> ids(_specs.size(), 0);
        auto submit = [&](size_t t) {
            size_t idx = next[t]++ * _tenants + t;
            current[t] = server.submit(_specs[idx]);
            ids[idx] = current[t];
            submitted[t] = Clock::now();
            if (traced)
                submit_ns[current[t]] = nowNs();
        };
        for (size_t t = 0; t < _tenants; ++t)
            submit(t);
        size_t live = _tenants;
        while (live > 0) {
            {
                Span span("serve.round");
                round_span.store(span.id());
                if (!server.runRound())
                    h2o_fatal("serve_mix: server went idle with ", live,
                              " tenants waiting");
            }
            for (size_t t = 0; t < _tenants; ++t) {
                if (current[t] == 0)
                    continue;
                serve::JobState st = server.queue().info(current[t]).state;
                if (st == serve::JobState::Queued ||
                    st == serve::JobState::Running)
                    continue;
                if (!traced)
                    _latencies.back().push_back(secondsSince(submitted[t]));
                current[t] = 0;
                if (next[t] < _jobsPerTenant)
                    submit(t);
                else
                    --live;
            }
        }

        // Outputs of this round, for the checks.
        _ev = ServeEvidence{};
        _failed = 0;
        for (size_t i = 0; i < _specs.size(); ++i) {
            ServedJob job;
            job.spec = server.queue().info(ids[i]).spec;
            const serve::JobResult *res = server.result(ids[i]);
            job.done = res != nullptr;
            if (job.done)
                job.result = *res;
            else
                ++_failed;
            _ev.jobs.push_back(std::move(job));
        }

        if (!traced)
            return;
        auto spans = tracer().spans();
        _sums.countRound();
        auto [round_s, n_rounds] = spanTotal(spans, "serve.round", first_span);
        auto [wait_s, n_wait] = spanTotal(spans, "serve.queue_wait", first_span);
        auto [setup_s, n_setup] =
            spanTotal(spans, "serve.job_setup", first_span);
        auto [step_s, n_step] = spanTotal(spans, "serve.job_step", first_span);
        _sums.add("round_s", round_s);
        _sums.add("rounds", double(n_rounds));
        _sums.add("wait_s", wait_s);
        _sums.add("waits", double(n_wait));
        _sums.add("setup_s", setup_s);
        _sums.add("setups", double(n_setup));
        _sums.add("step_s", step_s);
        _sums.add("steps", double(n_step));
        addCacheStats(_sums, server.cache().stats());
        _sums.add("allocs", double(nn::tensorAllocCount() - allocs0));
    }

    Failures check() override { return checkServe(evidence()); }

    /** The last round's outputs; the first job of each kind is rerun
     *  standalone as a bitwise probe. */
    ServeEvidence evidence() const
    {
        ServeEvidence ev = _ev;
        std::set<serve::JobKind> probed;
        for (ServedJob &job : ev.jobs) {
            if (!job.done || !probed.insert(job.spec.kind).second)
                continue;
            job.probed = true;
            job.standalone = serve::runStandalone(job.spec).result;
        }
        return ev;
    }

    uint64_t jobsPerRound() const override { return _specs.size(); }
    uint64_t failedLastRound() const override { return _failed; }
    uint64_t candidatesPerRound() const override
    {
        uint64_t n = 0;
        for (const auto &spec : _specs)
            n += spec.numSteps * (spec.kind == serve::JobKind::DlrmTunas
                                      ? 1
                                      : spec.samplesPerStep);
        return n;
    }
    std::vector<std::vector<double>> roundLatencies() const override
    {
        return _latencies;
    }

    Metrics layerMetrics() override
    {
        Metrics out;
        auto mean = [&](const char *sum, const char *count) {
            double n = _sums.sum(count);
            return n > 0 ? _sums.sum(sum) / n : 0.0;
        };
        out.push_back({"serve.round_s", mean("round_s", "rounds"), "s"});
        out.push_back({"serve.rounds", _sums.perRound("rounds"), "count"});
        out.push_back({"serve.queue_wait_s", mean("wait_s", "waits"), "s"});
        out.push_back({"serve.job_setup_s", mean("setup_s", "setups"), "s"});
        out.push_back({"serve.job_step_s", mean("step_s", "steps"), "s"});
        double round_s = _sums.sum("round_s");
        out.push_back({"serve.pool_busy_ratio",
                       round_s > 0 ? _sums.sum("step_s") /
                                         (round_s * double(_o.threads))
                                   : 0.0,
                       "ratio"});
        addCacheMetrics(out, _sums);
        out.push_back({"nn.tensor_allocs", _sums.perRound("allocs"), "count"});
        return out;
    }

  private:
    Options _o;
    size_t _tenants;
    size_t _jobsPerTenant;
    std::vector<serve::JobSpec> _specs;
    uint64_t _roundIndex = 0;
    std::vector<std::vector<double>> _latencies;
    ServeEvidence _ev;
    uint64_t _failed = 0;
    LayerSums _sums;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const Options &opts)
{
    if (opts.workload == "perfmodel_two_phase")
        return std::make_unique<PerfmodelTwoPhase>(opts);
    if (opts.workload == "h2o_supernet")
        return std::make_unique<H2oSupernet>(opts);
    if (opts.workload == "multitarget_cold")
        return std::make_unique<MultitargetCold>(opts);
    if (opts.workload == "serve_mix")
        return std::make_unique<ServeMix>(opts);
    return nullptr;
}

PerfmodelEvidence
perfmodelEvidence(const Options &opts)
{
    PerfmodelTwoPhase w(opts);
    w.round(opts.seed, false);
    return w.evidence();
}

SupernetEvidence
supernetEvidence(const Options &opts)
{
    H2oSupernet w(opts);
    w.round(opts.seed, false);
    return w.evidence();
}

MultitargetEvidence
multitargetEvidence(const Options &opts)
{
    MultitargetCold w(opts);
    w.round(opts.seed, false);
    return w.evidence();
}

ServeEvidence
serveEvidence(const Options &opts)
{
    ServeMix w(opts);
    w.round(opts.seed, false);
    return w.evidence();
}

} // namespace h2o::e2e
