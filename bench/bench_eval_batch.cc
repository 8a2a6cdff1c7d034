/**
 * @file
 * Batched vs serial candidate-evaluation wall-clock: the same candidate
 * list evaluated (a) one candidate at a time through hand-rolled
 * quality -> perf -> reward calls, and (b) through eval::EvalEngine
 * steps with the batched performance stage (SimCache::getOrComputeBatch
 * + Simulator::runBatch behind CachedDlrmTimer::trainStepTimes).
 *
 * Both paths see identical candidates and pure evaluation functions, so
 * their summed rewards must match exactly — the bench doubles as an
 * end-to-end equivalence check — while the wall-clock difference
 * isolates the batching delta. Note the delta includes the engine's
 * shard-dispatch overhead: on a single-core host with small per-step
 * batches that overhead can outweigh the runBatch amortization (the
 * batching win grows with batch size; see bench_table1_perfmodel, whose
 * pretrain issues thousand-candidate batches). Emits
 * BENCH_eval_batch.json; registered as a ctest smoke with tiny counts.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <span>
#include <vector>

#include "arch/dlrm_arch.h"
#include "baselines/quality_model.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "eval/eval_engine.h"
#include "reward/reward.h"
#include "searchspace/dlrm_space.h"

using namespace h2o;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("steps", 64, "evaluation steps");
    flags.defineInt("shards", 16, "candidates per step");
    flags.defineInt("seed", 17, "RNG seed");
    flags.defineString("json", "BENCH_eval_batch.json",
                       "output path for the JSON report");
    common::defineThreadsFlag(flags);
    flags.parse(argc, argv);

    size_t steps = static_cast<size_t>(flags.getInt("steps"));
    size_t shards = static_cast<size_t>(flags.getInt("shards"));
    uint64_t seed = static_cast<uint64_t>(flags.getInt("seed"));
    size_t threads = static_cast<size_t>(flags.getInt("threads"));

    searchspace::DlrmSearchSpace space(arch::baselineDlrm());
    hw::Platform train_platform = hw::trainingPlatform();
    hw::Platform serve_platform = hw::servingPlatform();
    reward::ReluReward rwd(
        {{"step_time", 1e-3, -2.0},
         {"model_size", space.baseline().modelBytes(), -2.0}});
    auto quality = [&](const searchspace::Sample &s) {
        return 100.0 * baselines::dlrmQualitySurrogate(space.decode(s));
    };

    // One shared candidate list, so both paths do identical work.
    common::Rng rng(seed);
    std::vector<searchspace::Sample> candidates;
    candidates.reserve(steps * shards);
    for (size_t i = 0; i < steps * shards; ++i)
        candidates.push_back(space.decisions().uniformSample(rng));

    // --- Serial path: per-candidate quality -> perf -> reward, the
    // pre-EvalEngine call chain. A fresh timer keeps its cache cold.
    double serial_checksum = 0.0;
    double serial_sec = 0.0;
    {
        bench::CachedDlrmTimer timer(train_platform, serve_platform);
        auto start = Clock::now();
        for (const auto &s : candidates) {
            double q = quality(s);
            std::vector<double> perf{timer.trainStepTime(space, s),
                                     space.decode(s).modelBytes()};
            serial_checksum += rwd.compute({q, perf});
        }
        serial_sec = secondsSince(start);
    }

    // --- Batched path: EvalEngine steps over the same candidates with
    // the batched performance stage (also from a cold cache). --threads
    // sizes both the engine's shard pool and the cache's miss-fill pool;
    // checksums stay identical at any value.
    double batch_checksum = 0.0;
    double batch_sec = 0.0;
    {
        bench::CachedDlrmTimer timer(train_platform, serve_platform,
                                     1 << 16, threads);
        eval::PerfBatchFn perf_batch =
            [&](std::span<const searchspace::Sample> ss) {
                auto times = timer.trainStepTimes(space, ss);
                std::vector<std::vector<double>> out;
                out.reserve(ss.size());
                for (size_t i = 0; i < ss.size(); ++i)
                    out.push_back(
                        {times[i], space.decode(ss[i]).modelBytes()});
                return out;
            };
        eval::EvalEngineConfig ec;
        ec.numShards = shards;
        ec.threads = threads;
        eval::EvalEngine engine(perf_batch, rwd, ec, quality);
        auto start = Clock::now();
        for (size_t step = 0; step < steps; ++step) {
            auto ev = engine.evaluate(
                step, [&](size_t s, searchspace::Sample &sample) {
                    sample = candidates[step * shards + s];
                });
            for (size_t s : ev.survivors)
                batch_checksum += ev.rewards[s];
        }
        batch_sec = secondsSince(start);
    }

    bool identical = serial_checksum == batch_checksum;
    double speedup = batch_sec > 0.0 ? serial_sec / batch_sec : 0.0;
    std::cout << "eval batch: " << steps << " steps x " << shards
              << " candidates\n"
              << "  serial  " << serial_sec << " s (checksum "
              << serial_checksum << ")\n"
              << "  batched " << batch_sec << " s (checksum "
              << batch_checksum << ")\n"
              << "  speedup " << speedup << "x, checksums "
              << (identical ? "identical" : "DIFFER") << "\n";

    std::string json_path = flags.getString("json");
    std::ofstream js(json_path);
    if (!js) {
        std::cerr << "cannot open " << json_path << "\n";
        return 1;
    }
    js << "{\n"
       << "  \"steps\": " << steps << ",\n"
       << "  \"shards\": " << shards << ",\n"
       << "  \"serial_sec\": " << serial_sec << ",\n"
       << "  \"batched_sec\": " << batch_sec << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"checksums_identical\": " << (identical ? "true" : "false")
       << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
    return identical ? 0 : 1;
}
