/**
 * @file
 * Thread-scaling bench for the h2o::exec runtime (Section 5: one search
 * step runs its N virtual accelerator shards in parallel).
 *
 * In the production system the search loop is a COORDINATOR: each
 * shard's forward pass runs on a remote accelerator, so the loop's
 * worker threads spend their time waiting on devices, and thread scaling
 * comes from keeping N shards in flight at once. Part 1 reproduces that
 * shape hardware-in-the-loop style: a CNN serving search where every
 * shard lowers its candidate, simulates it on the serving chip, and then
 * occupies the shard for the device-resident step time the simulator
 * predicted (scaled to bench scale). The SAME search — same seeds, same
 * shards — runs at 1, 2, 4 and 8 worker threads; the outcome must be
 * bit-for-bit identical at every thread count while step throughput
 * scales with the workers.
 *
 * Part 2 runs the unified single-step DLRM search across the same
 * thread counts — shards draw concurrently, then the coordinator runs
 * the shared supernet + pipeline pass over the survivors in shard order
 * — and checks bit-identity there too.
 *
 * Part 3 attaches the seeded FaultInjector at preemptible-fleet rates
 * (more than a quarter of shard-steps disrupted) and shows the search
 * degrades gracefully: steps aggregate over survivors and the outcome
 * stays finite.
 *
 *   $ ./bench_exec_scaling --steps=24 --shards=8
 */

#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>

#include "arch/conv_arch.h"
#include "arch/dlrm_arch.h"
#include "baselines/efficientnet.h"
#include "baselines/quality_model.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "exec/fault_injector.h"
#include "pipeline/pipeline.h"
#include "reward/reward.h"
#include "search/h2o_dlrm_search.h"
#include "search/surrogate_search.h"
#include "searchspace/conv_space.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

using namespace h2o;

namespace {

/** Bitwise double equality (NaN-safe, distinguishes -0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Bit-for-bit SearchOutcome equality. */
bool
identicalOutcomes(const search::SearchOutcome &a,
                  const search::SearchOutcome &b)
{
    if (a.finalSample != b.finalSample ||
        !sameBits(a.finalMeanReward, b.finalMeanReward) ||
        !sameBits(a.finalEntropy, b.finalEntropy) ||
        a.history.size() != b.history.size())
        return false;
    for (size_t i = 0; i < a.history.size(); ++i) {
        const auto &ra = a.history[i];
        const auto &rb = b.history[i];
        if (ra.sample != rb.sample || ra.step != rb.step ||
            !sameBits(ra.quality, rb.quality) ||
            !sameBits(ra.reward, rb.reward) ||
            ra.performance.size() != rb.performance.size())
            return false;
        for (size_t j = 0; j < ra.performance.size(); ++j)
            if (!sameBits(ra.performance[j], rb.performance[j]))
                return false;
    }
    return true;
}

/** Part 1: CNN serving search with emulated device-resident shards. */
search::SearchOutcome
runDeviceLoopSearch(size_t threads, size_t shards, size_t steps,
                    uint64_t seed, double &seconds)
{
    arch::ConvArch baseline = baselines::efficientnetX(2);
    searchspace::ConvSearchSpace space(baseline);
    hw::Platform serve{hw::chipSpec(hw::ChipModel::TpuV4i), 1};
    double base_time =
        bench::simulate(arch::buildConvGraph(baseline, serve,
                                             arch::ExecMode::Serving),
                        serve.chip)
            .stepTimeSec;

    auto quality_fn = [&](const searchspace::Sample &s) {
        return baselines::convQuality(space.decode(s));
    };
    // Each shard holds its virtual accelerator for the step time the
    // simulator predicts — clamped to [0.5x, 1.5x] of the baseline and
    // scaled so the baseline costs ~4ms of bench time (real serving
    // shards run under a batch deadline, so occupancy is banded). The
    // delay depends only on the candidate, never on timing, so results
    // stay bit-identical at any thread count.
    auto perf_fn = [&](const searchspace::Sample &s) {
        double t = bench::simulate(
                       arch::buildConvGraph(space.decode(s), serve,
                                            arch::ExecMode::Serving),
                       serve.chip)
                       .stepTimeSec;
        double occupancy = std::min(1.5, std::max(0.5, t / base_time));
        std::this_thread::sleep_for(
            std::chrono::duration<double>(occupancy * 4e-3));
        return std::vector<double>{t};
    };
    reward::ReluReward reward({{"serve_time", base_time, -8.0}});

    search::SurrogateSearchConfig cfg;
    cfg.numSteps = steps;
    cfg.samplesPerStep = shards;
    cfg.rl.learningRate = 0.08;
    cfg.rl.entropyWeight = 5e-3;
    cfg.threads = threads;
    search::SurrogateSearch search(space.decisions(), quality_fn, perf_fn,
                                   reward, cfg);
    common::Rng rng(seed);
    auto start = std::chrono::steady_clock::now();
    auto outcome = search.run(rng);
    seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    return outcome;
}

arch::DlrmArch
benchDlrm()
{
    arch::DlrmArch a;
    a.numDenseFeatures = 8;
    a.tables = {{2048, 16, 1.0}, {512, 8, 1.0}};
    a.bottomMlp = {{32, 0}};
    a.topMlp = {{64, 0}};
    a.globalBatch = 1024;
    return a;
}

struct DlrmRun
{
    search::SearchOutcome outcome;
    double meanLiveShards = 0.0;
};

/** Parts 2-3: the unified single-step supernet search. */
DlrmRun
runSupernetSearch(size_t threads, size_t shards, size_t steps,
                  uint64_t seed, exec::FaultInjector *faults)
{
    searchspace::DlrmSearchSpace space(benchDlrm());
    common::Rng net_rng(seed);
    supernet::SupernetConfig ncfg;
    ncfg.vocabCap = 512;
    ncfg.mlpWidthCap = 64;
    supernet::DlrmSupernet net(space, ncfg, net_rng);

    std::vector<uint64_t> vocabs;
    std::vector<double> ids;
    for (const auto &tab : space.baseline().tables) {
        vocabs.push_back(tab.vocab);
        ids.push_back(tab.avgIds);
    }
    auto gen = std::make_unique<pipeline::TrafficGenerator>(
        pipeline::trafficConfigFor(space.baseline().numDenseFeatures,
                                   vocabs, ids),
        seed + 1);
    pipeline::InMemoryPipeline pipe(std::move(gen), 16);

    hw::Platform platform{hw::tpuV4(), 4};
    auto perf_fn = [&](const searchspace::Sample &s) {
        return std::vector<double>{
            bench::dlrmTrainStepTime(space.decode(s), platform)};
    };
    reward::ReluReward rwd({{"step_time", 1.0, -1.0}});

    search::H2oSearchConfig cfg;
    cfg.numShards = shards;
    cfg.numSteps = steps;
    cfg.warmupSteps = steps / 10;
    cfg.threads = threads;
    cfg.faults = faults;
    search::H2oDlrmSearch search(space, net, pipe, perf_fn, rwd, cfg);

    common::Rng srng(seed + 2);
    DlrmRun r;
    r.outcome = search.run(srng);
    double live = 0.0;
    for (const auto &st : search.stepStats())
        live += static_cast<double>(st.liveShards);
    r.meanLiveShards =
        live / static_cast<double>(search.stepStats().size());
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("steps", 24, "search steps per configuration");
    flags.defineInt("shards", 8, "virtual accelerator shards");
    flags.defineInt("seed", 17, "RNG seed");
    flags.parse(argc, argv);
    size_t steps = static_cast<size_t>(flags.getInt("steps"));
    size_t shards = static_cast<size_t>(flags.getInt("shards"));
    uint64_t seed = static_cast<uint64_t>(flags.getInt("seed"));

    // --- Part 1: thread scaling with device-resident shards.
    common::AsciiTable t("exec runtime: thread scaling of one search "
                         "(device-in-the-loop shards, same seeds)");
    t.setHeader({"threads", "wall time (s)", "steps/s", "speedup",
                 "outcome vs 1 thread"});
    search::SearchOutcome ref;
    double ref_secs = 0.0;
    bool all_identical = true;
    double speedup8 = 0.0;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
        double secs = 0.0;
        auto outcome =
            runDeviceLoopSearch(threads, shards, steps, seed, secs);
        bool same = true;
        if (threads == 1) {
            ref = outcome;
            ref_secs = secs;
        } else {
            same = identicalOutcomes(ref, outcome);
            all_identical = all_identical && same;
        }
        double speedup = ref_secs / secs;
        if (threads == 8)
            speedup8 = speedup;
        t.addRow({std::to_string(threads),
                  common::AsciiTable::num(secs, 2),
                  common::AsciiTable::num(double(steps) / secs, 1),
                  common::AsciiTable::num(speedup, 2),
                  threads == 1 ? "(reference)"
                               : (same ? "bit-identical" : "DIVERGED")});
    }
    t.print(std::cout);
    std::cout << "speedup at 8 threads: "
              << common::AsciiTable::num(speedup8, 2) << "x ("
              << (speedup8 >= 2.0 ? "PASS" : "FAIL")
              << " >= 2x target), outcomes "
              << (all_identical ? "bit-identical across all thread counts"
                                : "DIVERGED (bug)")
              << "\n\n";

    // --- Part 2: the shared-supernet search is bit-identical too.
    bool supernet_identical = true;
    DlrmRun sref;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
        auto r = runSupernetSearch(threads, shards, steps, seed, nullptr);
        if (threads == 1)
            sref = r;
        else
            supernet_identical =
                supernet_identical &&
                identicalOutcomes(sref.outcome, r.outcome);
    }
    std::cout << "supernet (unified single-step) search at 1/2/4/8 "
                 "threads: outcomes "
              << (supernet_identical ? "bit-identical"
                                     : "DIVERGED (bug)")
              << "\n\n";

    // --- Part 3: graceful degradation on a preemptible fleet.
    exec::FaultConfig fcfg;
    fcfg.failProb = 0.10;
    fcfg.preemptProb = 0.15;
    fcfg.stragglerProb = 0.05;
    fcfg.stragglerDelayMs = 0.2;
    fcfg.seed = seed * 31 + 7;
    exec::FaultInjector injector(fcfg);
    auto faulty = runSupernetSearch(8, shards, steps, seed, &injector);
    const auto &fs = injector.stats();
    std::cout << "preemptible-fleet run (8 threads): "
              << fs.failures.load() << " failures, "
              << fs.preemptions.load() << " preemptions, "
              << fs.straggles.load() << " stragglers injected; mean "
              << common::AsciiTable::num(faulty.meanLiveShards, 2) << "/"
              << shards << " shards survived per step\n";
    bool finite = std::isfinite(faulty.outcome.finalMeanReward) &&
                  std::isfinite(faulty.outcome.finalEntropy);
    std::cout << "degraded search outcome: mean reward "
              << common::AsciiTable::num(faulty.outcome.finalMeanReward, 4)
              << ", entropy "
              << common::AsciiTable::num(faulty.outcome.finalEntropy, 3)
              << (finite ? " (finite, no NaN)" : " (NON-FINITE: bug)")
              << "\n";
    return (all_identical && supernet_identical && finite &&
            speedup8 >= 2.0)
               ? 0
               : 1;
}
