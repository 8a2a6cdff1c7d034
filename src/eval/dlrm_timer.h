/**
 * @file
 * Memoized DLRM step-time evaluation: fronts `Simulator::run` with a
 * `sim::SimCache` keyed by the candidate's canonical decision encoding
 * plus an exec-mode tag and the simulator-config fingerprint. Candidates
 * that recur — paired eval sets, a converging RL policy's repeats, and
 * (with a shared cache) OTHER TENANTS' searches over the same space —
 * skip decode, lowering, the compiler passes and the DAG walk entirely.
 *
 * The SimConfig fingerprint covers the chip, not how many chips a graph
 * was lowered for, so a platform whose chip count differs from its
 * mode's default platform (hw::trainingPlatform / hw::servingPlatform)
 * appends the count as one more trailing key word: one chip at 1 and at
 * 4 chips never share an entry, while default-count keys keep their
 * historical form and saved caches stay warm.
 *
 * Grew up in bench/bench_util.h; promoted here so the NAS job server
 * (h2o::serve) can hang many jobs' timers off one shared SimCache.
 */

#ifndef H2O_EVAL_DLRM_TIMER_H
#define H2O_EVAL_DLRM_TIMER_H

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "arch/dlrm_arch.h"
#include "arch/lowering.h"
#include "common/logging.h"
#include "exec/thread_pool.h"
#include "hw/chip.h"
#include "hw/target_set.h"
#include "searchspace/dlrm_space.h"
#include "sim/sim_cache.h"
#include "sim/simulator.h"

namespace h2o::eval {

/** See file comment. Thread-safe to the extent SimCache is: concurrent
 *  calls from different jobs are fine; results are pure. */
class CachedDlrmTimer
{
  public:
    /**
     * Owning constructor: the timer creates its own cache.
     *
     * @param fill_threads Workers for the cold-path fill: cache misses
     *        in the batched entry points decode/lower/simulate on this
     *        many threads (SimCache::getOrComputeBatch fan-out; the
     *        per-thread PassWorkspaces keep workers allocation-free).
     *        1 — the default — computes misses inline on the calling
     *        thread; 0 means one worker per CPU in the affinity mask.
     *        Results, counters and cache images are bit-identical at
     *        any value.
     * @param key_salt Distinguishes timers whose samples come from
     *        DIFFERENT search spaces sharing one cache: the salt folds
     *        into the exec-mode tag appended to every key (salt 0
     *        reproduces the historical tags 0/1, so existing cache
     *        files stay warm).
     */
    CachedDlrmTimer(hw::Platform train_platform,
                    hw::Platform serve_platform,
                    size_t cache_capacity = 1 << 16,
                    size_t fill_threads = 1, uint64_t key_salt = 0)
        : _train(train_platform), _serve(serve_platform),
          _trainConfig{train_platform.chip, true, true, {}},
          _serveConfig{serve_platform.chip, true, true, {}},
          _owned(std::make_unique<sim::SimCache>(cache_capacity)),
          _cache(_owned.get()), _trainTag(key_salt << 1),
          _serveTag((key_salt << 1) | 1)
    {
        initKeys();
        makeFillPool(fill_threads);
    }

    /**
     * Shared-cache constructor: the timer fronts a cache owned by the
     * caller (e.g. the job server's cross-tenant cache). The cache must
     * outlive the timer. Give each distinct search space its own
     * `key_salt` so two spaces' identical decision vectors never alias.
     */
    CachedDlrmTimer(hw::Platform train_platform,
                    hw::Platform serve_platform, sim::SimCache &shared,
                    size_t fill_threads = 1, uint64_t key_salt = 0)
        : _train(train_platform), _serve(serve_platform),
          _trainConfig{train_platform.chip, true, true, {}},
          _serveConfig{serve_platform.chip, true, true, {}},
          _cache(&shared), _trainTag(key_salt << 1),
          _serveTag((key_salt << 1) | 1)
    {
        initKeys();
        makeFillPool(fill_threads);
    }

    /** Training step time of the sample's decode on the train platform. */
    double trainStepTime(const searchspace::DlrmSearchSpace &space,
                         const searchspace::Sample &sample)
    {
        sim::SimCacheKey key = sim::makeSimCacheKey(
            sample, _trainKey.tags, _trainKey.fingerprint);
        return _cache
            ->getOrCompute(key,
                           [&] {
                               arch::DlrmArch a = space.decode(sample);
                               sim::Simulator simulator(_trainConfig);
                               return simulator.run(arch::buildDlrmGraph(
                                   a, _train, arch::ExecMode::Training));
                           })
            .stepTimeSec;
    }

    /** Serving step time (serving batch 1024, as dlrmServeStepTime). */
    double serveStepTime(const searchspace::DlrmSearchSpace &space,
                         const searchspace::Sample &sample)
    {
        sim::SimCacheKey key = sim::makeSimCacheKey(
            sample, _serveKey.tags, _serveKey.fingerprint);
        return _cache
            ->getOrCompute(key,
                           [&] {
                               arch::DlrmArch serving =
                                   space.decode(sample);
                               serving.globalBatch = 1024;
                               sim::Simulator simulator(_serveConfig);
                               return simulator.run(arch::buildDlrmGraph(
                                   serving, _serve,
                                   arch::ExecMode::Serving));
                           })
            .stepTimeSec;
    }

    /**
     * Batched training step times, parallel to `samples`. One
     * getOrComputeBatch (each cache stripe locked once per phase) with
     * Simulator::runBatch over chunks of the distinct misses —
     * computed in parallel on the fill pool when one was requested —
     * equal values to per-sample trainStepTime calls, identical
     * hit/miss totals.
     */
    std::vector<double>
    trainStepTimes(const searchspace::DlrmSearchSpace &space,
                   std::span<const searchspace::Sample> samples)
    {
        return stepTimes(space, samples, _trainKey, _trainConfig, _train,
                         arch::ExecMode::Training);
    }

    /** Batched serving step times (serving batch 1024). */
    std::vector<double>
    serveStepTimes(const searchspace::DlrmSearchSpace &space,
                   std::span<const searchspace::Sample> samples)
    {
        return stepTimes(space, samples, _serveKey, _serveConfig, _serve,
                         arch::ExecMode::Serving);
    }

    /**
     * Joint multi-target serving step times: out[i][c] is sample i's
     * serving step time (batch 1024) on targets[c]. All (candidate x
     * chip) pairs go through ONE getOrComputeBatch — keys are laid out
     * candidate-major ([i*k + c]) under the usual serve tag, with each
     * target's SimConfig fingerprint keeping the k keyspaces disjoint —
     * and misses simulate through Simulator::runBatchMulti (one
     * PassWorkspace fetch per chunk, one simulator core per target).
     * Each missed candidate is decoded once and lowered once per
     * distinct chip count in its fill chunk (buildDlrmGraph reads only
     * the platform's numChips), and all of its chips' requests share
     * that graph. A one-element TargetSet whose platform equals the
     * timer's serve platform issues exactly serveStepTimes' key
     * sequence: identical hits, misses, LRU image and values.
     */
    std::vector<std::vector<double>>
    serveStepTimesMulti(const searchspace::DlrmSearchSpace &space,
                        std::span<const searchspace::Sample> samples,
                        const hw::TargetSet &targets)
    {
        const size_t k = targets.size();
        h2o_assert(k > 0, "serveStepTimesMulti needs >= 1 target");
        std::vector<sim::SimConfig> configs;
        std::vector<KeyForm> forms;
        configs.reserve(k);
        forms.reserve(k);
        for (const hw::Target &t : targets) {
            configs.push_back(sim::SimConfig{t.platform.chip, true, true,
                                             {}});
            forms.push_back(keyForm(_serveTag, configs.back(), t.platform,
                                    arch::ExecMode::Serving));
        }
        std::vector<sim::SimCacheKey> keys;
        keys.reserve(samples.size() * k);
        for (const auto &s : samples)
            for (size_t c = 0; c < k; ++c)
                keys.push_back(sim::makeSimCacheKey(s, forms[c].tags,
                                                    forms[c].fingerprint));
        // As in stepTimes, the lambda touches only locals + const state
        // (configs/targets/samples), so fill-pool fan-out is safe.
        auto results = _cache->getOrComputeBatch(
            keys,
            [&](const std::vector<size_t> &misses) {
                // Misses ascend, and keys are candidate-major, so one
                // candidate's misses are adjacent: decode it once, lower
                // once per chip count, point every chip at that graph.
                std::vector<sim::Graph> graphs;
                std::vector<size_t> graph_of(misses.size());
                std::vector<std::pair<uint32_t, size_t>> lowered;
                arch::DlrmArch serving;
                size_t candidate = samples.size();
                for (size_t j = 0; j < misses.size(); ++j) {
                    const size_t i = misses[j] / k;
                    const hw::Platform &platform =
                        targets[misses[j] % k].platform;
                    if (i != candidate) {
                        candidate = i;
                        lowered.clear();
                        serving = space.decode(samples[i]);
                        serving.globalBatch = 1024;
                    }
                    auto it = std::find_if(
                        lowered.begin(), lowered.end(), [&](const auto &e) {
                            return e.first == platform.numChips;
                        });
                    if (it == lowered.end()) {
                        lowered.emplace_back(platform.numChips,
                                             graphs.size());
                        graphs.push_back(arch::buildDlrmGraph(
                            serving, platform, arch::ExecMode::Serving));
                        it = lowered.end() - 1;
                    }
                    graph_of[j] = it->second;
                }
                std::vector<sim::SimRequest> reqs;
                reqs.reserve(misses.size());
                for (size_t j = 0; j < misses.size(); ++j)
                    reqs.push_back(
                        sim::SimRequest{&graphs[graph_of[j]],
                                        &configs[misses[j] % k]});
                return sim::Simulator::runBatchMulti(reqs);
            },
            _fillPool.get());
        std::vector<std::vector<double>> out(samples.size());
        for (size_t i = 0; i < samples.size(); ++i) {
            out[i].reserve(k);
            for (size_t c = 0; c < k; ++c)
                out[i].push_back(results[i * k + c].stepTimeSec);
        }
        return out;
    }

    sim::SimCacheStats cacheStats() const { return _cache->stats(); }

    /** The underlying cache, e.g. for save()/load() persistence. */
    sim::SimCache &cache() { return *_cache; }

  private:
    /** The trailing key words and config fingerprint shared by every
     *  key of one (mode, platform). */
    struct KeyForm
    {
        std::vector<uint64_t> tags;
        uint64_t fingerprint = 0;
    };

    /** The exec-mode tag, then the platform's chip count when it is not
     *  the mode's default platform's (see the file comment). */
    static KeyForm keyForm(uint64_t tag, const sim::SimConfig &config,
                           const hw::Platform &platform, arch::ExecMode mode)
    {
        const uint32_t default_chips = mode == arch::ExecMode::Training
                                           ? hw::trainingPlatform().numChips
                                           : hw::servingPlatform().numChips;
        KeyForm form{{tag}, sim::simConfigFingerprint(config)};
        if (platform.numChips != default_chips)
            form.tags.push_back(platform.numChips);
        return form;
    }

    void initKeys()
    {
        _trainKey = keyForm(_trainTag, _trainConfig, _train,
                            arch::ExecMode::Training);
        _serveKey = keyForm(_serveTag, _serveConfig, _serve,
                            arch::ExecMode::Serving);
    }

    void makeFillPool(size_t fill_threads)
    {
        size_t resolved = exec::ThreadPool::resolve(
            fill_threads, std::numeric_limits<size_t>::max());
        if (resolved > 1)
            _fillPool = std::make_unique<exec::ThreadPool>(resolved);
    }

    std::vector<double>
    stepTimes(const searchspace::DlrmSearchSpace &space,
              std::span<const searchspace::Sample> samples,
              const KeyForm &form, const sim::SimConfig &config,
              const hw::Platform &platform, arch::ExecMode mode)
    {
        std::vector<sim::SimCacheKey> keys;
        keys.reserve(samples.size());
        for (const auto &s : samples)
            keys.push_back(
                sim::makeSimCacheKey(s, form.tags, form.fingerprint));
        // The cache chunks the distinct misses (kDefaultFillChunk), so
        // at most one chunk's worth of decoded graphs is live per
        // worker, and fans the chunks out over _fillPool when present.
        // The lambda touches only locals + const state: thread-safe.
        auto results = _cache->getOrComputeBatch(
            keys,
            [&](const std::vector<size_t> &misses) {
                sim::Simulator simulator(config);
                std::vector<sim::Graph> graphs;
                graphs.reserve(misses.size());
                for (size_t k : misses) {
                    arch::DlrmArch a = space.decode(samples[k]);
                    if (mode == arch::ExecMode::Serving)
                        a.globalBatch = 1024;
                    graphs.push_back(
                        arch::buildDlrmGraph(a, platform, mode));
                }
                std::vector<const sim::Graph *> ptrs;
                ptrs.reserve(graphs.size());
                for (const auto &g : graphs)
                    ptrs.push_back(&g);
                return simulator.runBatch(ptrs);
            },
            _fillPool.get());
        std::vector<double> out;
        out.reserve(results.size());
        for (const auto &r : results)
            out.push_back(r.stepTimeSec);
        return out;
    }

    hw::Platform _train;
    hw::Platform _serve;
    sim::SimConfig _trainConfig;
    sim::SimConfig _serveConfig;
    /** Present only for the owning constructor. */
    std::unique_ptr<sim::SimCache> _owned;
    sim::SimCache *_cache;
    uint64_t _trainTag;
    uint64_t _serveTag;
    KeyForm _trainKey;
    KeyForm _serveKey;
    /** Cold-path fill workers; null = compute misses inline. */
    std::unique_ptr<exec::ThreadPool> _fillPool;
};

} // namespace h2o::eval

#endif // H2O_EVAL_DLRM_TIMER_H
