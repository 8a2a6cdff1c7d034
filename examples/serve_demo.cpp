/**
 * @file
 * NAS-as-a-service demo: one `serve::Server`, six tenants.
 *
 * Submits a mixed batch of search jobs — surrogate searches with
 * different latency/size targets plus one supernet and one TuNAS job —
 * to a multi-tenant server sharing ONE thread pool and ONE simulator
 * cache. Mid-run it pauses a job, lets the others make progress, then
 * resumes it from its checkpoint; the job still produces exactly the
 * result it would have standalone (the demo verifies this for one job).
 * Finishes with a results table and the telemetry tail on stdout, and
 * the scheduling-dependent cache statistics (per-step hit rates, the
 * shared cache's cross-tenant hits) on stderr.
 *
 *   $ ./serve_demo [--threads=N] [--procs=N] [--workers=...] [--steps=N]
 *                [--telemetry_csv=FILE]
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "serve/scheduler.h"

using namespace h2o;

int
main(int argc, char **argv)
{
    common::Flags flags;
    common::defineThreadsFlag(flags);
    common::defineProcsFlag(flags);
    common::defineWorkersFlag(flags);
    flags.defineInt("steps", 12, "search steps per job");
    flags.defineString("checkpoint_dir", "serve_demo_ckpt",
                       "directory for pause/resume checkpoints");
    flags.defineString("telemetry_csv", "",
                       "optional CSV file for the telemetry stream");
    flags.parse(argc, argv);

    const auto steps = static_cast<size_t>(flags.getInt("steps"));
    const auto procs = static_cast<size_t>(flags.getInt("procs"));
    const auto workers = flags.getString("workers");

    serve::ServeConfig config;
    config.threads = static_cast<size_t>(flags.getInt("threads"));
    config.maxConcurrentJobs = 3;
    config.stepsPerSlice = 2;
    config.checkpointDir = flags.getString("checkpoint_dir");
    std::string mkdir = "mkdir -p " + config.checkpointDir;
    if (std::system(mkdir.c_str()) != 0)
        return 1;
    serve::Server server(config);

    // 1. Six tenants: four surrogate searches sweeping the latency
    //    target, one supernet job, one TuNAS job.
    auto surrogate = [&](const char *name, uint64_t seed, double rel) {
        serve::JobSpec spec;
        spec.name = name;
        spec.kind = serve::JobKind::DlrmSurrogate;
        spec.seed = seed;
        spec.numSteps = steps;
        spec.stepTimeTargetRel = rel;
        spec.procs = procs;
        spec.workers = workers;
        return server.submit(spec);
    };
    uint64_t tight = surrogate("latency-0.85x", 11, 0.85);
    surrogate("latency-0.95x", 12, 0.95);
    surrogate("latency-1.00x", 13, 1.00);
    surrogate("latency-1.10x", 14, 1.10);
    serve::JobSpec super;
    super.name = "supernet";
    super.kind = serve::JobKind::DlrmSupernet;
    super.seed = 21;
    super.numSteps = steps;
    super.procs = procs;
    super.workers = workers;
    server.submit(super);
    serve::JobSpec tunas;
    tunas.name = "tunas";
    tunas.kind = serve::JobKind::DlrmTunas;
    tunas.seed = 22;
    tunas.numSteps = steps;
    tunas.procs = procs;
    tunas.workers = workers;
    server.submit(tunas);
    std::cout << "submitted " << server.queue().size()
              << " jobs (3 concurrency slots, slice quantum "
              << config.stepsPerSlice << " steps)\n";

    // 2. Run two rounds, then pause the tightest-target tenant: its
    //    state goes to a checkpoint and its slot frees up for the
    //    queued jobs.
    server.runRound();
    server.pauseJob(tight);
    server.runRound();
    std::cout << "paused job " << tight << " after "
              << server.queue().info(tight).stepsDone
              << " steps; checkpoint at "
              << server.checkpointPathFor(tight) << "\n";

    // 3. Let the rest drain, resume the paused tenant, drain again.
    for (int i = 0; i < 6; ++i)
        server.runRound();
    server.resumeJob(tight);
    server.runUntilIdle();

    // 4. Results table.
    std::cout << "\n  id  name            state      steps  best reward"
              << "  pareto\n";
    for (const auto &info : server.queue().snapshot()) {
        const serve::JobResult *res = server.result(info.spec.id);
        std::cout << "  " << std::setw(2) << info.spec.id << "  "
                  << std::left << std::setw(14) << info.spec.name
                  << "  " << std::setw(9)
                  << serve::jobStateName(info.state) << std::right
                  << "  " << std::setw(5) << info.stepsDone << "  "
                  << std::setw(11) << std::setprecision(5)
                  << info.bestReward << "  "
                  << (res ? res->paretoIndices.size() : 0) << " pts\n";
    }

    // 5. The paused-and-resumed job must match its standalone run
    //    bit for bit — the server's determinism contract.
    serve::JobSpec ref_spec = server.queue().info(tight).spec;
    serve::StandaloneRun ref = serve::runStandalone(ref_spec);
    const serve::JobResult *served = server.result(tight);
    bool match = served != nullptr &&
                 served->bestReward == ref.result.bestReward &&
                 served->outcome.finalMeanReward ==
                     ref.result.outcome.finalMeanReward &&
                 served->paretoIndices == ref.result.paretoIndices;
    std::cout << "\npause/resume determinism vs standalone: "
              << (match ? "MATCH (bit-identical)" : "MISMATCH") << "\n";

    // 6. Telemetry + shared-cache economics. Each job's rows are
    //    deterministic; how rows of different jobs interleave, the
    //    per-row cache hit rate and the cache's hit/miss counts depend
    //    on scheduling (serve/telemetry.h), so those go to stderr and
    //    stdout is byte-stable at any --threads.
    const serve::TelemetryStream &telemetry = server.telemetry();
    std::cout << "\ntelemetry (" << telemetry.size()
              << " rows, last per job):\n"
              << "  job  step  mean_reward  best_reward\n";
    for (const auto &info : server.queue().snapshot()) {
        auto jobRows = telemetry.rowsForJob(info.spec.id);
        if (jobRows.empty())
            continue;
        const auto &r = jobRows.back();
        std::cout << "  " << std::setw(3) << r.jobId << "  "
                  << std::setw(4) << r.step << "  " << std::setw(11)
                  << r.meanReward << "  " << std::setw(11)
                  << r.bestReward << "\n";
    }
    auto rows = telemetry.rows();
    std::cerr << "\ntelemetry tail in record order (observational):\n"
              << "  job  step  hit_rate\n"
              << std::setprecision(3);
    for (size_t i = rows.size() >= 5 ? rows.size() - 5 : 0;
         i < rows.size(); ++i) {
        std::cerr << "  " << std::setw(3) << rows[i].jobId << "  "
                  << std::setw(4) << rows[i].step << "  " << std::setw(8)
                  << rows[i].cacheHitRate << "\n";
    }
    sim::SimCacheStats cs = server.cache().stats();
    std::cerr << "\nshared sim cache: " << cs.entries << " entries, "
              << cs.hits << " hits / " << cs.misses
              << " misses (lifetime hit rate "
              << 100.0 * cs.hitRate()
              << "% — every hit is a simulation some tenant skipped)\n";

    std::string csv = flags.getString("telemetry_csv");
    if (!csv.empty()) {
        server.telemetry().writeCsvFile(csv);
        std::cout << "telemetry written to " << csv << "\n";
    }
    return match ? 0 : 1;
}
