/**
 * @file
 * Joint multi-target search A/B: ONE surrogate H2O-NAS search over the
 * DLRM space scores every candidate across k chips (default TPUv4i +
 * edge-CPU + edge-NPU) and emits k per-chip Pareto fronts, against the
 * obvious alternative of k sequential single-target searches sharing a
 * SimCache.
 *
 * The accounting is deliverable-matched. Both sides must end with k
 * per-chip fronts over a common candidate pool:
 *  - the joint run gets that for free — every history candidate already
 *    carries all k per-chip costs, so its fronts cost ZERO extra
 *    simulate invocations beyond the search itself;
 *  - the sequential runs each explore their own pool against one chip,
 *    and cross-chip cache keys never alias (the chip fingerprint keeps
 *    them disjoint), so producing comparable fronts means re-scoring
 *    the union pool on all k chips — ~(k-1)/k of those pairs are cold.
 *
 * Also the PR's bitwise regression gate (exit non-zero on failure):
 *  1. a one-element TargetSet reproduces the legacy single-target
 *     search exactly (samples, qualities, costs, rewards, final
 *     sample — all bitwise);
 *  2. the joint multi-target search is bit-identical at --threads
 *     1/2/8 (shard pool and cold-fill pool both swept);
 *  3. the joint run emits exactly k non-empty fronts.
 *
 * Emits BENCH_multitarget.json.
 */

#include <fstream>
#include <iostream>
#include <set>
#include <span>
#include <vector>

#include "arch/dlrm_arch.h"
#include "baselines/quality_model.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "hw/target_set.h"
#include "reward/reward.h"
#include "search/pareto.h"
#include "search/surrogate_search.h"
#include "searchspace/dlrm_space.h"

using namespace h2o;

namespace {

/** Bitwise comparison of two search outcomes (history + final sample). */
bool
sameOutcome(const search::SearchOutcome &a, const search::SearchOutcome &b,
            const char *label)
{
    auto fail = [&](const std::string &what) {
        std::cerr << "BITWISE MISMATCH [" << label << "]: " << what
                  << "\n";
        return false;
    };
    if (a.history.size() != b.history.size())
        return fail("history sizes " + std::to_string(a.history.size()) +
                    " vs " + std::to_string(b.history.size()));
    for (size_t i = 0; i < a.history.size(); ++i) {
        const auto &ra = a.history[i];
        const auto &rb = b.history[i];
        if (ra.sample != rb.sample)
            return fail("sample of record " + std::to_string(i));
        if (ra.quality != rb.quality)
            return fail("quality of record " + std::to_string(i));
        if (ra.performance != rb.performance)
            return fail("performance of record " + std::to_string(i));
        if (ra.reward != rb.reward)
            return fail("reward of record " + std::to_string(i));
        if (ra.step != rb.step)
            return fail("step of record " + std::to_string(i));
    }
    if (a.finalSample != b.finalSample)
        return fail("final sample");
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    common::Flags flags;
    flags.defineInt("steps", 60, "search steps (per search, both sides)");
    flags.defineInt("shards", 8, "parallel candidates per step");
    flags.defineInt("seed", 7, "RNG seed");
    flags.defineString("combine", "min",
                       "multi-target reward combiner (min|softmin)");
    flags.defineString("json", "BENCH_multitarget.json",
                       "output path for the JSON report");
    bench::defineChipsFlag(flags);
    common::defineThreadsFlag(flags);
    flags.parse(argc, argv);

    const size_t steps = static_cast<size_t>(flags.getInt("steps"));
    const size_t shards = static_cast<size_t>(flags.getInt("shards"));
    const uint64_t seed = static_cast<uint64_t>(flags.getInt("seed"));
    const size_t threads = static_cast<size_t>(flags.getInt("threads"));
    const std::string combine_name = flags.getString("combine");
    const reward::MultiTargetCombine combine =
        combine_name == "softmin" ? reward::MultiTargetCombine::SoftMin
                                  : reward::MultiTargetCombine::Min;

    hw::TargetSet targets = bench::chipsFromFlags(flags);
    const size_t k = targets.size();

    searchspace::DlrmSearchSpace space(arch::baselineDlrm());
    auto quality_fn = [&](const searchspace::Sample &s) {
        return 100.0 * baselines::dlrmQualitySurrogate(space.decode(s));
    };

    // Per-chip latency targets: the baseline DLRM's serving step time
    // on each chip, computed directly (the simulator is pure, so the
    // values match what any cached path would produce) to keep the
    // cache counters clean for the A/B accounting below.
    std::vector<double> base_times;
    std::vector<reward::PerformanceObjective> joint_objs;
    for (const hw::Target &t : targets) {
        base_times.push_back(
            bench::dlrmServeStepTime(space.baseline(), t.platform));
        joint_objs.push_back({t.name, base_times.back(), -2.0});
    }

    auto make_cfg = [&](size_t t, bool multi) {
        search::SurrogateSearchConfig cfg;
        cfg.numSteps = steps;
        cfg.samplesPerStep = shards;
        cfg.rl.learningRate = 0.08;
        cfg.rl.entropyWeight = 5e-3;
        cfg.threads = t == 0 ? 1 : t;
        if (multi) {
            cfg.multiTarget.targetNames = targets.names();
            cfg.multiTarget.perfOffset = 0;
        }
        return cfg;
    };

    // Runs the joint multi-target search with its own cache/timer and
    // hands back the outcome plus the cache counters.
    auto run_joint = [&](size_t run_threads) {
        auto timer = std::make_unique<bench::CachedDlrmTimer>(
            hw::trainingPlatform(), hw::servingPlatform(), size_t{1} << 16,
            run_threads == 0 ? size_t{1} : run_threads);
        auto perf_fn = [&](std::span<const searchspace::Sample> ss) {
            return timer->serveStepTimesMulti(space, ss, targets);
        };
        reward::MultiTargetReward rwd(joint_objs, combine);
        search::SurrogateSearch srch(space.decisions(), quality_fn,
                                     search::PerfBatchFn(perf_fn), rwd,
                                     make_cfg(run_threads, true));
        common::Rng rng(seed);
        auto outcome = srch.run(rng);
        return std::pair(std::move(outcome), timer->cacheStats());
    };

    // ------------------------------------------------------------------
    // A. The joint multi-target search.
    auto [joint, joint_stats] = run_joint(threads);
    std::set<searchspace::Sample> joint_distinct;
    for (const auto &rec : joint.history)
        joint_distinct.insert(rec.sample);

    // ------------------------------------------------------------------
    // B. k sequential single-target searches sharing one SimCache, then
    // the cross-scoring pass their fronts require.
    sim::SimCache seq_cache(size_t{1} << 16);
    std::set<searchspace::Sample> union_pool;
    std::vector<size_t> seq_own_history;
    for (size_t c = 0; c < k; ++c) {
        bench::CachedDlrmTimer timer_c(hw::trainingPlatform(),
                                       targets[c].platform, seq_cache,
                                       threads == 0 ? 1 : threads);
        auto perf_fn = [&](std::span<const searchspace::Sample> ss) {
            auto times = timer_c.serveStepTimes(space, ss);
            std::vector<std::vector<double>> out;
            out.reserve(ss.size());
            for (double t : times)
                out.push_back({t});
            return out;
        };
        reward::ReluReward rwd({{targets[c].name, base_times[c], -2.0}});
        search::SurrogateSearch srch(space.decisions(), quality_fn,
                                     search::PerfBatchFn(perf_fn), rwd,
                                     make_cfg(threads, false));
        common::Rng rng(seed + c);
        auto outcome = srch.run(rng);
        seq_own_history.push_back(outcome.history.size());
        for (const auto &rec : outcome.history)
            union_pool.insert(rec.sample);
    }
    const auto seq_search_stats = seq_cache.stats();

    // Cross-score the union pool on all k chips (mostly cold: only the
    // own-chip pairs hit) and build the k fronts the joint run already
    // has.
    std::vector<searchspace::Sample> pool(union_pool.begin(),
                                          union_pool.end());
    bench::CachedDlrmTimer rescore_timer(hw::trainingPlatform(),
                                         hw::servingPlatform(), seq_cache,
                                         threads == 0 ? 1 : threads);
    auto pool_times = rescore_timer.serveStepTimesMulti(space, pool,
                                                        targets);
    std::vector<search::ParetoTracker> seq_fronts(k);
    for (size_t i = 0; i < pool.size(); ++i) {
        double q = quality_fn(pool[i]);
        for (size_t c = 0; c < k; ++c)
            seq_fronts[c].insert(i, {q, pool_times[i][c]});
    }
    const auto seq_total_stats = seq_cache.stats();

    // ------------------------------------------------------------------
    // Bitwise regression gates.
    bool ok = true;

    // Gate 1: one-element TargetSet == legacy single-target search.
    {
        hw::TargetSet solo(
            std::vector<hw::Target>{targets[0]});
        bench::CachedDlrmTimer legacy_timer(hw::trainingPlatform(),
                                            targets[0].platform,
                                            size_t{1} << 14);
        auto legacy_perf = [&](std::span<const searchspace::Sample> ss) {
            auto times = legacy_timer.serveStepTimes(space, ss);
            std::vector<std::vector<double>> out;
            out.reserve(ss.size());
            for (double t : times)
                out.push_back({t});
            return out;
        };
        reward::ReluReward legacy_rwd(
            {{targets[0].name, base_times[0], -2.0}});
        search::SurrogateSearch legacy(space.decisions(), quality_fn,
                                       search::PerfBatchFn(legacy_perf),
                                       legacy_rwd, make_cfg(1, false));
        common::Rng legacy_rng(seed);
        auto legacy_out = legacy.run(legacy_rng);

        bench::CachedDlrmTimer solo_timer(hw::trainingPlatform(),
                                          targets[0].platform,
                                          size_t{1} << 14);
        auto solo_perf = [&](std::span<const searchspace::Sample> ss) {
            return solo_timer.serveStepTimesMulti(space, ss, solo);
        };
        reward::MultiTargetReward solo_rwd(
            {{targets[0].name, base_times[0], -2.0}}, combine);
        search::SurrogateSearchConfig solo_cfg = make_cfg(1, false);
        solo_cfg.multiTarget.targetNames = solo.names();
        search::SurrogateSearch multi(space.decisions(), quality_fn,
                                      search::PerfBatchFn(solo_perf),
                                      solo_rwd, solo_cfg);
        common::Rng solo_rng(seed);
        auto solo_out = multi.run(solo_rng);

        ok &= sameOutcome(legacy_out, solo_out, "single-vs-multi");
        if (solo_out.targetFronts.size() != 1) {
            std::cerr << "one-element TargetSet emitted "
                      << solo_out.targetFronts.size() << " fronts\n";
            ok = false;
        }
    }

    // Gate 2: joint search bit-identical at 1/2/8 threads (shard pool
    // and cold-fill pool both swept; fresh cache each run).
    for (size_t t : {size_t{2}, size_t{8}}) {
        auto [alt, alt_stats] = run_joint(t);
        ok &= sameOutcome(joint, alt,
                          ("threads-" + std::to_string(t)).c_str());
        if (alt_stats.misses != joint_stats.misses) {
            std::cerr << "BITWISE MISMATCH [threads-" << t
                      << "]: miss counter " << alt_stats.misses << " vs "
                      << joint_stats.misses << "\n";
            ok = false;
        }
    }

    // Gate 3: k non-empty per-chip fronts from the single joint run.
    if (joint.targetFronts.size() != k) {
        std::cerr << "joint run emitted " << joint.targetFronts.size()
                  << " fronts for " << k << " targets\n";
        ok = false;
    }
    for (const auto &front : joint.targetFronts) {
        if (front.indices.empty()) {
            std::cerr << "empty Pareto front for target '" << front.target
                      << "'\n";
            ok = false;
        }
    }

    // ------------------------------------------------------------------
    // Report.
    const uint64_t joint_sims = joint_stats.misses;
    const uint64_t seq_sims = seq_total_stats.misses;
    common::AsciiTable t("Joint multi-target search vs " +
                         std::to_string(k) +
                         " sequential single-target searches");
    t.setHeader({"side", "candidates", "distinct", "simulate calls",
                 "hit rate", "front sizes"});
    auto front_sizes = [](const auto &fronts, auto size_of) {
        std::string s;
        for (const auto &f : fronts) {
            if (!s.empty())
                s += "/";
            s += std::to_string(size_of(f));
        }
        return s;
    };
    t.addRow({"joint (1 search x " + std::to_string(k) + " chips)",
              std::to_string(joint.history.size()),
              std::to_string(joint_distinct.size()),
              std::to_string(joint_sims),
              common::AsciiTable::pct(joint_stats.hitRate(), 1),
              front_sizes(joint.targetFronts, [](const auto &f) {
                  return f.indices.size();
              })});
    t.addRow({"sequential (" + std::to_string(k) + " searches + rescore)",
              std::to_string(k * steps * shards),
              std::to_string(pool.size()), std::to_string(seq_sims),
              common::AsciiTable::pct(seq_total_stats.hitRate(), 1),
              front_sizes(seq_fronts, [](const auto &f) {
                  return f.size();
              })});
    t.print(std::cout);

    const double advantage =
        joint_sims ? static_cast<double>(seq_sims) /
                         static_cast<double>(joint_sims)
                   : 0.0;
    std::cout << "search-phase sequential misses: "
              << seq_search_stats.misses << ", rescore added "
              << (seq_sims - seq_search_stats.misses) << "\n";
    std::cout << "joint advantage: "
              << common::AsciiTable::times(advantage, 2)
              << " fewer simulate invocations for the same "
              << k << "-front deliverable\n";
    if (seq_sims <= joint_sims) {
        std::cerr << "joint search did not beat the sequential baseline ("
                  << joint_sims << " vs " << seq_sims << " sims)\n";
        ok = false;
    }
    std::cout << "bitwise gates " << (ok ? "passed" : "FAILED") << "\n";

    std::string json_path = flags.getString("json");
    std::ofstream js(json_path);
    if (!js) {
        std::cerr << "cannot open " << json_path << "\n";
        return 1;
    }
    js << "{\n  \"chips\": [";
    for (size_t c = 0; c < k; ++c)
        js << (c ? ", " : "") << "\"" << targets[c].name << "\"";
    js << "],\n"
       << "  \"steps\": " << steps << ",\n"
       << "  \"shards\": " << shards << ",\n"
       << "  \"combine\": \"" << combine_name << "\",\n"
       << "  \"joint\": {\"candidates\": " << joint.history.size()
       << ", \"distinct\": " << joint_distinct.size()
       << ", \"sims\": " << joint_sims
       << ", \"hit_rate\": " << joint_stats.hitRate()
       << ", \"front_sizes\": [";
    for (size_t c = 0; c < joint.targetFronts.size(); ++c)
        js << (c ? ", " : "") << joint.targetFronts[c].indices.size();
    js << "]},\n"
       << "  \"sequential\": {\"candidates\": " << k * steps * shards
       << ", \"distinct\": " << pool.size()
       << ", \"search_sims\": " << seq_search_stats.misses
       << ", \"total_sims\": " << seq_sims
       << ", \"hit_rate\": " << seq_total_stats.hitRate()
       << ", \"front_sizes\": [";
    for (size_t c = 0; c < seq_fronts.size(); ++c)
        js << (c ? ", " : "") << seq_fronts[c].size();
    js << "]},\n"
       << "  \"joint_advantage\": " << advantage << ",\n"
       << "  \"bit_identical\": " << (ok ? "true" : "false") << "\n"
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
    return ok ? 0 : 1;
}
