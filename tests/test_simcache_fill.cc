/**
 * @file
 * Cross-thread determinism harness for the parallel cold-path fill
 * (SimCache::getOrComputeBatch over an exec::ThreadPool). The contract
 * under test: results, hit/miss/eviction counters, LRU order and save()
 * images are BIT-identical at any fill-pool size and any chunk size,
 * with real simulator workloads and under injected faults. Runs under
 * the `concurrency` ctest label (re-run with -DH2O_TSAN=ON).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <vector>

#include "arch/dlrm_arch.h"
#include "common/rng.h"
#include "eval/eval_engine.h"
#include "exec/fault_injector.h"
#include "exec/thread_pool.h"
#include "hw/chip.h"
#include "reward/reward.h"
#include "searchspace/dlrm_space.h"
#include "sim/sim_cache.h"
#include "sim/simulator.h"

namespace arch = h2o::arch;
namespace ev = h2o::eval;
namespace ex = h2o::exec;
namespace rw = h2o::reward;
namespace ss = h2o::searchspace;
namespace sim = h2o::sim;
namespace hw = h2o::hw;
using h2o::common::Rng;

namespace {

/** Every SimResult field, exact. */
void
expectIdentical(const sim::SimResult &a, const sim::SimResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.stepTimeSec, b.stepTimeSec) << what;
    EXPECT_EQ(a.totalFlops, b.totalFlops) << what;
    EXPECT_EQ(a.achievedFlops, b.achievedFlops) << what;
    EXPECT_EQ(a.operationalIntensity, b.operationalIntensity) << what;
    EXPECT_EQ(a.hbmBytes, b.hbmBytes) << what;
    EXPECT_EQ(a.onChipBytes, b.onChipBytes) << what;
    EXPECT_EQ(a.networkBytes, b.networkBytes) << what;
    EXPECT_EQ(a.hbmBandwidthUsed, b.hbmBandwidthUsed) << what;
    EXPECT_EQ(a.onChipBandwidthUsed, b.onChipBandwidthUsed) << what;
    EXPECT_EQ(a.tensorBusySec, b.tensorBusySec) << what;
    EXPECT_EQ(a.vpuBusySec, b.vpuBusySec) << what;
    EXPECT_EQ(a.hbmSec, b.hbmSec) << what;
    EXPECT_EQ(a.onChipSec, b.onChipSec) << what;
    EXPECT_EQ(a.networkSec, b.networkSec) << what;
    EXPECT_EQ(a.criticalPathSec, b.criticalPathSec) << what;
    EXPECT_EQ(a.boundBy, b.boundBy) << what;
    EXPECT_EQ(a.tensorUtilization, b.tensorUtilization) << what;
    EXPECT_EQ(a.avgPowerW, b.avgPowerW) << what;
    EXPECT_EQ(a.energyPerStepJ, b.energyPerStepJ) << what;
    EXPECT_EQ(a.liveOps, b.liveOps) << what;
    EXPECT_EQ(a.fusedOps, b.fusedOps) << what;
    EXPECT_EQ(a.paramsResident, b.paramsResident) << what;
    ASSERT_EQ(a.perOp.size(), b.perOp.size()) << what;
    for (size_t j = 0; j < a.perOp.size(); ++j) {
        EXPECT_EQ(a.perOp[j].seconds, b.perOp[j].seconds) << what;
        EXPECT_EQ(a.perOp[j].tensorBusySec, b.perOp[j].tensorBusySec)
            << what;
        EXPECT_EQ(a.perOp[j].vpuBusySec, b.perOp[j].vpuBusySec) << what;
        EXPECT_EQ(a.perOp[j].hbmBytes, b.perOp[j].hbmBytes) << what;
        EXPECT_EQ(a.perOp[j].onChipBytes, b.perOp[j].onChipBytes) << what;
        EXPECT_EQ(a.perOp[j].networkBytes, b.perOp[j].networkBytes)
            << what;
        EXPECT_EQ(a.perOp[j].boundBy, b.perOp[j].boundBy) << what;
    }
}

/** One cold fill of real DLRM simulations at a given pool size. */
struct FillOutcome
{
    std::vector<sim::SimResult> results;
    sim::SimCacheStats stats;
    std::string saved;
    uint64_t computedPositions = 0;
};

FillOutcome
coldFill(size_t pool_threads, size_t fill_chunk)
{
    ss::DlrmSearchSpace space(arch::baselineDlrm());
    hw::Platform platform = hw::trainingPlatform();
    sim::SimConfig config{platform.chip, true, true, {}};

    // 12 distinct candidates, each appearing twice, interleaved.
    Rng rng(71);
    std::vector<ss::Sample> samples;
    for (size_t i = 0; i < 12; ++i)
        samples.push_back(space.decisions().uniformSample(rng));
    std::vector<sim::SimCacheKey> keys;
    for (size_t i = 0; i < 24; ++i)
        keys.push_back(
            sim::makeSimCacheKey(samples[i % 12], 0, config));

    sim::SimCache cache(64);
    std::unique_ptr<ex::ThreadPool> pool;
    if (pool_threads > 1)
        pool = std::make_unique<ex::ThreadPool>(pool_threads);
    std::atomic<uint64_t> positions{0};
    FillOutcome out;
    out.results = cache.getOrComputeBatch(
        keys,
        [&](const std::vector<size_t> &misses) {
            positions.fetch_add(misses.size());
            sim::Simulator simulator(config);
            std::vector<sim::Graph> graphs;
            graphs.reserve(misses.size());
            for (size_t k : misses)
                graphs.push_back(arch::buildDlrmGraph(
                    space.decode(samples[k % 12]), platform,
                    arch::ExecMode::Training));
            std::vector<const sim::Graph *> ptrs;
            for (const auto &g : graphs)
                ptrs.push_back(&g);
            return simulator.runBatch(ptrs);
        },
        pool.get(), fill_chunk);
    out.computedPositions = positions.load();
    out.stats = cache.stats();
    std::ostringstream os;
    cache.save(os);
    out.saved = os.str();
    return out;
}

} // namespace

TEST(SimCacheFill, ParallelFillBitIdenticalToSerial)
{
    FillOutcome serial = coldFill(/*pool=*/1, /*chunk=*/3);
    ASSERT_EQ(serial.results.size(), 24u);
    // Dedupe: the 24-position batch simulated its 12 distinct keys once.
    EXPECT_EQ(serial.computedPositions, 12u);
    EXPECT_EQ(serial.stats.misses, 24u);
    EXPECT_EQ(serial.stats.hits, 0u);
    EXPECT_EQ(serial.stats.entries, 12u);

    for (size_t threads : {4u, 8u}) {
        FillOutcome par = coldFill(threads, /*chunk=*/3);
        std::string tag = "threads=" + std::to_string(threads);
        EXPECT_EQ(par.computedPositions, 12u) << tag;
        EXPECT_EQ(par.stats.hits, serial.stats.hits) << tag;
        EXPECT_EQ(par.stats.misses, serial.stats.misses) << tag;
        EXPECT_EQ(par.stats.entries, serial.stats.entries) << tag;
        EXPECT_EQ(par.stats.evictions, serial.stats.evictions) << tag;
        // Byte-identical save(): the cache IMAGE (insertion order,
        // recency ticks), not just the returned values, is independent
        // of worker timing.
        EXPECT_EQ(par.saved, serial.saved) << tag;
        ASSERT_EQ(par.results.size(), serial.results.size()) << tag;
        for (size_t i = 0; i < serial.results.size(); ++i)
            expectIdentical(par.results[i], serial.results[i],
                            tag + " position " + std::to_string(i));
    }
}

TEST(SimCacheFill, ChunkSizeDoesNotChangeResultsOrImage)
{
    // Chunking is an execution detail: any fill_chunk must produce the
    // same results and the same cache image.
    auto fill = [](size_t chunk) { return coldFill(/*pool=*/4, chunk); };
    FillOutcome base = fill(256); // one chunk
    for (size_t chunk : {1u, 2u, 5u}) {
        FillOutcome alt = fill(chunk);
        std::string tag = "chunk=" + std::to_string(chunk);
        EXPECT_EQ(alt.computedPositions, base.computedPositions) << tag;
        EXPECT_EQ(alt.saved, base.saved) << tag;
        ASSERT_EQ(alt.results.size(), base.results.size()) << tag;
        for (size_t i = 0; i < base.results.size(); ++i)
            expectIdentical(alt.results[i], base.results[i],
                            tag + " position " + std::to_string(i));
    }
}

// ------------------------- end-to-end: EvalEngine + faults + fill pool

namespace {

/** Digest of a whole evaluation run: everything a search consumes. */
struct RunDigest
{
    std::vector<ss::Sample> samples;
    std::vector<double> qualities;
    std::vector<std::vector<double>> performance;
    std::vector<double> rewards;
    std::vector<std::vector<size_t>> survivors;
    std::string cacheImage;

    bool operator==(const RunDigest &) const = default;
};

/**
 * A miniature search loop: EvalEngine with `threads` workers and an
 * injected preemption rate, batched perf stage backed by a SimCache
 * whose misses fill on a `threads`-worker pool. Returns everything the
 * REINFORCE update would consume, plus the final cache image.
 */
RunDigest
runFaultySweep(size_t threads)
{
    const size_t shards = 4, steps = 6;
    ss::DlrmSearchSpace space(arch::baselineDlrm());
    hw::Platform platform = hw::trainingPlatform();
    sim::SimConfig config{platform.chip, true, true, {}};
    rw::ReluReward reward({{"step_time", 1e-3, -2.0}});
    ex::FaultInjector faults({0.1, 0.0, 0.0, 0.2, 13});

    sim::SimCache cache(64);
    std::unique_ptr<ex::ThreadPool> fill_pool;
    if (threads > 1)
        fill_pool = std::make_unique<ex::ThreadPool>(threads);

    ev::PerfBatchFn perf_batch = [&](std::span<const ss::Sample> batch) {
        std::vector<sim::SimCacheKey> keys;
        keys.reserve(batch.size());
        for (const auto &s : batch)
            keys.push_back(sim::makeSimCacheKey(s, 0, config));
        auto results = cache.getOrComputeBatch(
            keys,
            [&](const std::vector<size_t> &misses) {
                sim::Simulator simulator(config);
                std::vector<sim::Graph> graphs;
                graphs.reserve(misses.size());
                for (size_t k : misses)
                    graphs.push_back(arch::buildDlrmGraph(
                        space.decode(batch[k]), platform,
                        arch::ExecMode::Training));
                std::vector<const sim::Graph *> ptrs;
                for (const auto &g : graphs)
                    ptrs.push_back(&g);
                return simulator.runBatch(ptrs);
            },
            fill_pool.get(), /*chunk=*/2);
        std::vector<std::vector<double>> out;
        out.reserve(results.size());
        for (const auto &r : results)
            out.push_back({r.stepTimeSec});
        return out;
    };

    ev::EvalEngineConfig cfg;
    cfg.numShards = shards;
    cfg.threads = threads;
    cfg.faults = &faults;
    ev::EvalEngine engine(
        perf_batch, reward, cfg,
        [](const ss::Sample &sample) { return double(sample[0] % 7); });

    std::vector<Rng> shard_rngs;
    for (size_t s = 0; s < shards; ++s)
        shard_rngs.emplace_back(2000 + s);

    RunDigest digest;
    for (size_t step = 0; step < steps; ++step) {
        auto step_eval = engine.evaluate(
            step, [&](size_t s, ss::Sample &sample) {
                sample = space.decisions().uniformSample(shard_rngs[s]);
            });
        for (size_t s = 0; s < shards; ++s) {
            digest.samples.push_back(step_eval.samples[s]);
            digest.qualities.push_back(step_eval.qualities[s]);
            digest.performance.push_back(step_eval.performance[s]);
            digest.rewards.push_back(step_eval.rewards[s]);
        }
        digest.survivors.push_back(step_eval.survivors);
    }
    std::ostringstream os;
    cache.save(os);
    digest.cacheImage = os.str();
    return digest;
}

} // namespace

TEST(SimCacheFill, FaultyEngineSweepIdenticalAtThreads128)
{
    RunDigest t1 = runFaultySweep(1);
    RunDigest t2 = runFaultySweep(2);
    RunDigest t8 = runFaultySweep(8);

    // Faults struck somewhere in the sweep (else the test is vacuous):
    // preemptProb 0.2 over 24 shard-steps degrades some shard with
    // probability 1 - 0.8^24 > 99.5%, and the seed is fixed anyway.
    size_t survivor_total = 0;
    for (const auto &v : t1.survivors)
        survivor_total += v.size();
    EXPECT_LT(survivor_total, 24u);

    EXPECT_TRUE(t1 == t2);
    EXPECT_TRUE(t1 == t8);
}
