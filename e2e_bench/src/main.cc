/**
 * @file
 * The end-to-end benchmark binary: runs one workload for a fixed time
 * in whole rounds, checks its outputs and prints one JSON object as the
 * last line of standard output.
 *
 *   h2o_bench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
 *             [--threads=<n>] [--trace_file=<path>] [--tiny]
 *   h2o_bench --selftest
 *
 * --trace=0 reports the end-to-end metrics; --trace=1 alternates
 * untraced and traced rounds and reports the per-layer metrics of the
 * traced ones, plus the tracing overhead between the two kinds.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"
#include "common/flags.h"
#include "common/logging.h"
#include "workloads.h"

namespace h2o::e2e {

int runSelfTest();

namespace {

/** Every per-layer metric, in BENCHMARK.json order. A workload reports
 *  the ones its layers touch; the rest read 0 on it. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics{
    {"search.step_s", "s"},
    {"search.step_self_s", "s"},
    {"eval.perf_fn_s", "s"},
    {"eval.perf_fn_share", "ratio"},
    {"sim_cache.lookups", "count"},
    {"sim_cache.hits", "count"},
    {"sim_cache.misses", "count"},
    {"sim_cache.evictions", "count"},
    {"sim_cache.hit_rate", "ratio"},
    {"sim.us_per_miss", "us"},
    {"arch.lower_us_per_graph", "us"},
    {"sim.run_us_per_graph", "us"},
    {"perfmodel.label_s", "s"},
    {"perfmodel.pretrain_fit_s", "s"},
    {"perfmodel.finetune_s", "s"},
    {"perfmodel.predict_rows_per_s", "1/s"},
    {"perfmodel.nrmse", "ratio"},
    {"nn.tensor_allocs", "count"},
    {"pipeline.batches", "count"},
    {"pipeline.examples", "count"},
    {"pipeline.alpha_only_leases", "count"},
    {"serve.round_s", "s"},
    {"serve.rounds", "count"},
    {"serve.queue_wait_s", "s"},
    {"serve.job_setup_s", "s"},
    {"serve.job_step_s", "s"},
    {"serve.pool_busy_ratio", "ratio"},
    {"trace.run_s_untraced", "s"},
    {"trace.run_s_traced", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"host.steal_share", "ratio"},
};

/** A run's figure for a time taken once per round: the first quartile
 *  across its rounds. Other tenants of a shared host only ever add time;
 *  the first quartile ignores them while they load under three quarters
 *  of a run, where the median moves once they load half of it. */
double
acrossRounds(const std::vector<double> &per_round)
{
    return percentile(per_round, 0.25);
}

/**
 * Share of a round's wall time the program would have taken on
 * uncontended CPUs. On a virtual machine the hypervisor can hand this
 * machine's CPUs to other guests ("steal"); the round's threads then
 * wanted `cpu + steal` CPU seconds and got `cpu`, so the round ran about
 * (cpu + steal) / cpu times longer than it would have. Steal is read for
 * the whole machine, which the benchmark keeps busy alone. Without steal
 * (bare metal) the factor is exactly 1.
 */
double
uncontended(double cpu, double steal)
{
    return cpu > 0.0 ? cpu / (cpu + steal) : 1.0;
}

/** The tail percentile reported for `n` latencies: p90 when at least
 *  ten samples lie beyond it, else the highest percentile that keeps
 *  ten beyond it, and the median alone below forty samples. */
double
tailRank(size_t n)
{
    if (n < 40)
        return 0.5;
    return std::min(0.9, 1.0 - 10.0 / double(n));
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const Metrics &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    os << "}}";
    return os.str();
}

/** Runs one workload. Its set-up is one cold set-up, timed as the CPU
 *  time the process has used from its start (exec, dynamic loading,
 *  static initialisation, flag parsing) to the end of the workload's
 *  construction. Set-up runs on one thread, so this is its wall time
 *  less the time the process waited for a CPU, which on a shared host
 *  varies more than the set-up itself. */
int
runWorkload(const Options &o)
{
    std::unique_ptr<Workload> w = makeWorkload(o);
    if (!w)
        h2o_fatal("unknown workload '", o.workload, "'");
    const double setup_s = processCpuSeconds();

    // Round times with the CPU time the hypervisor stole from this
    // machine during the round taken out (see uncontended()), and the
    // factor that took it out of each untraced round.
    std::vector<double> plain, traced, plain_factor;
    double cpu_total = 0.0, steal_total = 0.0;
    uint64_t attempted = 0, failed = 0;
    const size_t min_rounds = o.trace ? 4 : 3;
    const auto start = Clock::now();
    for (size_t r = 0; r < min_rounds || secondsSince(start) < o.seconds;
         ++r) {
        // Each round runs the inputs of its own seed, so a run's figures
        // span several inputs; a traced round reuses the seed of the
        // untraced round before it.
        const bool tr = o.trace && r % 2 == 1;
        const uint64_t seed = o.seed * 1000 + (o.trace ? r / 2 : r);
        tracer().setEnabled(tr);
        const double cpu0 = processCpuSeconds(), steal0 = stolenCpuSeconds();
        const auto t = Clock::now();
        {
            Span span("round", r + 1);
            w->round(seed, tr);
        }
        const double wall = secondsSince(t);
        const double cpu = processCpuSeconds() - cpu0;
        const double steal = stolenCpuSeconds() - steal0;
        const double factor = uncontended(cpu, steal);
        cpu_total += cpu;
        steal_total += steal;
        (tr ? traced : plain).push_back(wall * factor);
        if (!tr)
            plain_factor.push_back(factor);
        tracer().setEnabled(false);
        attempted += w->jobsPerRound();
        failed += w->failedLastRound();
    }
    const double measured_s = secondsSince(start);
    // Before the checks, which simulate and rerun jobs of their own.
    const double peak_rss_mib = peakRssMiB();

    Failures failures = w->check();
    for (const std::string &f : failures)
        std::cerr << "[check] " << o.workload << ": " << f << "\n";

    Metrics metrics;
    const double run_s = acrossRounds(plain);
    if (!o.trace) {
        // Job latency percentiles are taken per round, then across rounds
        // like run_s. Where a round is one job, a run holds a few dozen
        // rounds at most: too few for a tail, so both read run_s.
        double p50 = run_s, p90 = run_s;
        size_t n_latencies = plain.size();
        if (auto rounds = w->roundLatencies(); !rounds.empty()) {
            std::vector<double> r50, r90;
            n_latencies = 0;
            for (size_t i = 0; i < rounds.size(); ++i) {
                const std::vector<double> &lat = rounds[i];
                r50.push_back(percentile(lat, 0.5) * plain_factor[i]);
                r90.push_back(percentile(lat, tailRank(lat.size())) *
                              plain_factor[i]);
                n_latencies += lat.size();
            }
            p50 = acrossRounds(r50);
            p90 = acrossRounds(r90);
        }
        metrics = {
            {"setup_s", setup_s, "s"},
            {"run_s", run_s, "s"},
            {"candidates_per_s", double(w->candidatesPerRound()) / run_s,
             "1/s"},
            {"jobs_per_s", double(w->jobsPerRound()) / run_s, "1/s"},
            {"job_latency_p50_s", p50, "s"},
            {"job_latency_p90_s", p90, "s"},
            {"peak_rss_mib", peak_rss_mib, "MiB"},
        };
        std::cerr << o.workload << ": " << plain.size() << " rounds in "
                  << measured_s << " s (round min " << percentile(plain, 0)
                  << ", first quartile " << run_s << ", median "
                  << median(plain) << ", max " << percentile(plain, 1)
                  << " s), " << n_latencies << " job latencies, "
                  << steal_total << " s of CPU stolen\n";
    } else {
        Metrics layer = w->layerMetrics();
        const double traced_s = acrossRounds(traced);
        layer.push_back({"trace.run_s_untraced", run_s, "s"});
        layer.push_back({"trace.run_s_traced", traced_s, "s"});
        layer.push_back({"trace.overhead_ratio", traced_s / run_s - 1.0,
                         "ratio"});
        layer.push_back({"host.steal_share",
                         steal_total / std::max(cpu_total + steal_total, 1e-9),
                         "ratio"});
        for (const auto &[name, unit] : kLayerMetrics) {
            double value = 0.0;
            for (const Metric &m : layer)
                if (m.name == name)
                    value = m.value;
            metrics.push_back({name, value, unit});
        }
        if (!o.traceFile.empty())
            tracer().writeChromeJson(o.traceFile);
        std::cerr << o.workload << ": " << plain.size() << " untraced and "
                  << traced.size() << " traced rounds in " << measured_s
                  << " s\n";
    }
    const bool correct = failures.empty();
    std::cout << resultJson(correct, attempted, failed, metrics) << std::endl;
    return correct ? 0 : 1;
}

} // namespace

} // namespace h2o::e2e

int
main(int argc, char **argv)
{
    using namespace h2o::e2e;
    h2o::common::Flags flags;
    flags.defineString("workload", "", "workload to run (required)");
    flags.defineInt("seed", -1, "seed of the run's inputs (required)");
    flags.defineDouble("seconds", -1.0, "length of the measured phase (required)");
    flags.defineInt("trace", -1, "0: end-to-end metrics; 1: per-layer (required)");
    flags.defineInt("threads", int64_t(availableCpus()),
                    "worker threads (default: CPUs this process may use)");
    flags.defineString("trace_file", "", "Chrome trace-event output of --trace=1");
    flags.defineBool("tiny", false, "tiny sizes, for the benchmark's own tests");
    flags.defineBool("selftest", false, "run the checks' self test and exit");
    flags.parse(argc, argv);
    if (flags.getBool("selftest"))
        return runSelfTest();

    Options o;
    o.workload = flags.getString("workload");
    o.seconds = flags.getDouble("seconds");
    o.tiny = flags.getBool("tiny");
    o.traceFile = flags.getString("trace_file");
    const int64_t seed = flags.getInt("seed"), trace = flags.getInt("trace"),
                  threads = flags.getInt("threads");
    if (o.workload.empty() || seed < 0 || o.seconds < 0 || trace < 0)
        h2o_fatal("--workload, --seed, --seconds and --trace are required");
    if (trace > 1)
        h2o_fatal("--trace takes 0 or 1");
    if (threads <= 0)
        h2o_fatal("--threads must be positive");
    o.seed = uint64_t(seed);
    o.trace = trace == 1;
    o.threads = size_t(threads);
    return runWorkload(o);
}
