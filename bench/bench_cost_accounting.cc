/**
 * @file
 * Reproduces the Section 7.3 cost accounting: "the search cost is
 * ~1.5x that of regular model training ... making the total cost of
 * H2O-NAS about ~2.5x of a vanilla model training", measured on the
 * real super-network with wall-clock time:
 *
 *   - vanilla training: the baseline sub-network trained alone for N
 *     steps (configure once, trainStep N times);
 *   - one-shot search: the full single-step search for N steps (per
 *     step: sample candidates, forward/backward through the supernet,
 *     perf-model reward, cross-shard REINFORCE + weight update);
 *   - retraining the found architecture costs another ~1x, giving the
 *     paper's ~2.5x total.
 *
 * Also reports the search-vs-downstream ratio: the paper amortizes the
 * one-time search against continuous serving/training fleets
 * (< 0.03% of downstream machine hours).
 */

#include <chrono>
#include <iostream>

#include "arch/dlrm_arch.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "pipeline/pipeline.h"
#include "reward/reward.h"
#include "search/h2o_dlrm_search.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

using namespace h2o;

namespace {

double
seconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

arch::DlrmArch
benchDlrm()
{
    arch::DlrmArch a;
    a.numDenseFeatures = 8;
    a.tables = {{4096, 16, 1.0}, {1024, 16, 1.0}, {256, 8, 2.0}};
    a.bottomMlp = {{32, 0}};
    a.topMlp = {{64, 0}, {32, 0}};
    a.globalBatch = 1024;
    return a;
}

std::unique_ptr<pipeline::InMemoryPipeline>
makePipeline(const arch::DlrmArch &base, uint64_t seed)
{
    std::vector<uint64_t> vocabs;
    std::vector<double> ids;
    for (const auto &t : base.tables) {
        vocabs.push_back(t.vocab);
        ids.push_back(t.avgIds);
    }
    auto gen = std::make_unique<pipeline::TrafficGenerator>(
        pipeline::trafficConfigFor(base.numDenseFeatures, vocabs, ids),
        seed);
    return std::make_unique<pipeline::InMemoryPipeline>(std::move(gen),
                                                        64);
}

} // namespace

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("steps", 200, "training / search steps to time");
    flags.defineInt("shards", 4, "search shards");
    flags.defineInt("seed", 37, "RNG seed");
    common::defineThreadsFlag(flags);
    flags.parse(argc, argv);
    size_t steps = static_cast<size_t>(flags.getInt("steps"));
    size_t shards = static_cast<size_t>(flags.getInt("shards"));
    uint64_t seed = static_cast<uint64_t>(flags.getInt("seed"));

    arch::DlrmArch base = benchDlrm();
    searchspace::DlrmSearchSpace space(base);

    // --- Vanilla training: the baseline sub-network alone. One shard's
    // worth of batches per step, matching per-chip work during search.
    double vanilla_sec;
    {
        common::Rng rng(seed);
        supernet::DlrmSupernet net(space, {}, rng);
        auto pipe = makePipeline(base, seed + 1);
        net.configure(space.baselineSample());
        auto start = std::chrono::steady_clock::now();
        for (size_t i = 0; i < steps; ++i) {
            auto lease = pipe->lease();
            net.trainStep(lease.batch(), 0.05);
            lease.markAlphaUse();
            lease.markWeightUse();
        }
        vanilla_sec = seconds(start);
    }

    // --- One-shot search: same number of steps, per-shard work.
    double search_sec;
    {
        common::Rng rng(seed);
        supernet::DlrmSupernet net(space, {}, rng);
        auto pipe = makePipeline(base, seed + 2);
        reward::ReluReward rwd({{"size", base.modelBytes(), -2.0}});
        search::H2oSearchConfig cfg;
        cfg.numShards = 1; // per-accelerator cost, like vanilla above
        cfg.numSteps = steps;
        cfg.warmupSteps = 0;
        cfg.threads = static_cast<size_t>(flags.getInt("threads"));
        search::H2oDlrmSearch search(
            space, net, *pipe,
            [&](const searchspace::Sample &s) {
                return std::vector<double>{space.decode(s).modelBytes()};
            },
            rwd, cfg);
        common::Rng srng(seed + 3);
        auto start = std::chrono::steady_clock::now();
        search.run(srng);
        search_sec = seconds(start);
        (void)shards;
    }

    double search_rel = search_sec / vanilla_sec;
    double total_rel = search_rel + 1.0; // + retraining the found arch

    common::AsciiTable t("Section 7.3 cost accounting (" +
                         std::to_string(steps) + " steps, wall clock)");
    t.setHeader({"phase", "seconds", "relative to vanilla", "paper"});
    t.addRow({"vanilla training",
              common::AsciiTable::num(vanilla_sec, 2), "1.00x", "1x"});
    t.addRow({"one-shot search", common::AsciiTable::num(search_sec, 2),
              common::AsciiTable::times(search_rel, 2), "~1.5x"});
    t.addRow({"search + retrain (total)",
              common::AsciiTable::num(search_sec + vanilla_sec, 2),
              common::AsciiTable::times(total_rel, 2), "~2.5x"});
    t.print(std::cout);

    // Amortization: one search vs continuous downstream training.
    double searches_per_year = 1.0;
    double downstream_steps_per_year =
        steps * 24.0 * 365.0; // the same job running hourly, say
    double amortized = search_sec * searches_per_year /
                       (vanilla_sec * downstream_steps_per_year / steps);
    std::cout << "one search amortized against a year of hourly "
                 "downstream training jobs: "
              << common::AsciiTable::pct(amortized / 8760.0, 4)
              << " of downstream machine hours (paper: < 0.03%)\n";
    return 0;
}
