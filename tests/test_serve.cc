/**
 * @file
 * Tests for the h2o::serve NAS job server: queue lifecycle, the
 * multi-tenant determinism contract (a served job is bit-identical to
 * its standalone run at any thread count and tenant mix), pause/resume
 * and kill/resume through exec::Checkpoint, cancellation, failed-job
 * isolation, and telemetry flushing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "exec/checkpoint.h"
#include "serve/scheduler.h"

namespace sv = h2o::serve;
namespace sr = h2o::search;

namespace {

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

sv::JobSpec
surrogateSpec(const char *name, uint64_t seed, size_t steps = 6,
              double rel = 1.0)
{
    sv::JobSpec spec;
    spec.name = name;
    spec.kind = sv::JobKind::DlrmSurrogate;
    spec.seed = seed;
    spec.numSteps = steps;
    spec.samplesPerStep = 3;
    spec.stepTimeTargetRel = rel;
    return spec;
}

/** Served result + telemetry must equal the standalone reference bit
 *  for bit (the deterministic fields; observational fields excluded). */
void
expectMatchesStandalone(sv::Server &server, uint64_t id,
                        const sv::StandaloneRun &ref)
{
    const sv::JobResult *served = server.result(id);
    ASSERT_NE(served, nullptr) << "job " << id << " has no result";
    EXPECT_TRUE(
        sameBits(served->bestReward, ref.result.bestReward));
    EXPECT_TRUE(sameBits(served->outcome.finalMeanReward,
                         ref.result.outcome.finalMeanReward));
    EXPECT_TRUE(sameBits(served->outcome.finalEntropy,
                         ref.result.outcome.finalEntropy));
    EXPECT_EQ(served->outcome.finalSample,
              ref.result.outcome.finalSample);
    EXPECT_EQ(served->paretoIndices, ref.result.paretoIndices);
    EXPECT_EQ(served->stepsRun, ref.result.stepsRun);
    ASSERT_EQ(served->outcome.history.size(),
              ref.result.outcome.history.size());
    for (size_t i = 0; i < ref.result.outcome.history.size(); ++i) {
        EXPECT_TRUE(sameBits(served->outcome.history[i].reward,
                             ref.result.outcome.history[i].reward));
        EXPECT_EQ(served->outcome.history[i].sample,
                  ref.result.outcome.history[i].sample);
    }
    auto rows = server.telemetry().rowsForJob(id);
    ASSERT_EQ(rows.size(), ref.rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].step, ref.rows[i].step);
        EXPECT_TRUE(sameBits(rows[i].meanReward, ref.rows[i].meanReward));
        EXPECT_TRUE(sameBits(rows[i].bestReward, ref.rows[i].bestReward));
    }
}

} // namespace

// ------------------------------------------------------------ JobQueue

TEST(JobQueue, LifecycleAndFifoOrder)
{
    sv::JobQueue queue;
    uint64_t a = queue.submit(surrogateSpec("a", 1), 3);
    uint64_t b = queue.submit(surrogateSpec("b", 2), 3);
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(queue.depth(), 2u);
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.state(a), sv::JobState::Queued);
    EXPECT_EQ(queue.info(a).submittedRound, 3u);

    auto first = queue.popQueued();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->id, a); // FIFO
    EXPECT_EQ(queue.state(a), sv::JobState::Running);
    EXPECT_EQ(queue.depth(), 1u);

    queue.setProgress(a, 4, 1.5);
    EXPECT_EQ(queue.info(a).stepsDone, 4u);
    EXPECT_EQ(queue.info(a).bestReward, 1.5);

    queue.setState(a, sv::JobState::Done, 9);
    EXPECT_EQ(queue.info(a).finishedRound, 9u);

    // Paused jobs requeue at the back.
    uint64_t c = queue.submit(surrogateSpec("c", 3));
    auto second = queue.popQueued();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->id, b);
    queue.setState(b, sv::JobState::Paused);
    queue.requeue(b);
    EXPECT_EQ(queue.popQueued()->id, c);
    EXPECT_EQ(queue.popQueued()->id, b);
    EXPECT_FALSE(queue.popQueued().has_value());
}

TEST(JobQueue, CancelQueuedRemovesFromFifo)
{
    sv::JobQueue queue;
    uint64_t a = queue.submit(surrogateSpec("a", 1));
    uint64_t b = queue.submit(surrogateSpec("b", 2));
    EXPECT_TRUE(queue.cancelQueued(a));
    EXPECT_EQ(queue.state(a), sv::JobState::Cancelled);
    EXPECT_EQ(queue.depth(), 1u);
    EXPECT_EQ(queue.popQueued()->id, b);
    // A running job cannot be queue-cancelled.
    EXPECT_FALSE(queue.cancelQueued(b));
}

// --------------------------------------------- determinism vs standalone

TEST(Serve, ServedJobsMatchStandaloneAtAnyThreadCount)
{
    // Three concurrent tenants with different seeds and targets; the
    // server must reproduce each tenant's standalone run bit for bit
    // at every thread count (the slice quantum of 2 also forces each
    // job through several scheduling rounds).
    std::vector<sv::JobSpec> specs = {
        surrogateSpec("t1", 41, 6, 0.9),
        surrogateSpec("t2", 42, 5, 1.0),
        surrogateSpec("t3", 43, 4, 1.1),
    };
    std::vector<sv::StandaloneRun> refs;
    for (const auto &spec : specs)
        refs.push_back(sv::runStandalone(spec));

    for (size_t threads : {1u, 4u, 8u}) {
        sv::ServeConfig config;
        config.threads = threads;
        config.maxConcurrentJobs = 3;
        config.stepsPerSlice = 2;
        sv::Server server(config);
        std::vector<uint64_t> ids;
        for (const auto &spec : specs)
            ids.push_back(server.submit(spec));
        server.runUntilIdle();
        for (size_t i = 0; i < ids.size(); ++i) {
            EXPECT_EQ(server.queue().state(ids[i]), sv::JobState::Done);
            expectMatchesStandalone(server, ids[i], refs[i]);
        }
    }
}

TEST(Serve, SupernetAndTunasKindsMatchStandalone)
{
    // The weight-sharing kinds carry much more mutable state (supernet
    // weights, pipeline cursor, warmup) through the slice boundaries.
    sv::JobSpec super;
    super.name = "supernet";
    super.kind = sv::JobKind::DlrmSupernet;
    super.seed = 7;
    super.numSteps = 4;
    super.samplesPerStep = 2;
    sv::JobSpec tunas;
    tunas.name = "tunas";
    tunas.kind = sv::JobKind::DlrmTunas;
    tunas.seed = 8;
    tunas.numSteps = 4;
    sv::StandaloneRun super_ref = sv::runStandalone(super);
    sv::StandaloneRun tunas_ref = sv::runStandalone(tunas);

    for (size_t threads : {1u, 4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        sv::ServeConfig config;
        config.threads = threads;
        config.maxConcurrentJobs = 2;
        config.stepsPerSlice = 1; // worst case: a round per step
        sv::Server server(config);
        uint64_t sid = server.submit(super);
        uint64_t tid = server.submit(tunas);
        server.runUntilIdle();
        expectMatchesStandalone(server, sid, super_ref);
        expectMatchesStandalone(server, tid, tunas_ref);
    }
}

// ------------------------------------------------------- pause / resume

TEST(Serve, PauseResumeMatchesUninterruptedRun)
{
    sv::JobSpec spec = surrogateSpec("pausee", 51, 8);
    sv::StandaloneRun ref = sv::runStandalone(spec);

    for (size_t threads : {1u, 4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        std::string dir = testing::TempDir() + "/h2o_serve_pause_t" +
                          std::to_string(threads);
        std::string mkdir = "mkdir -p " + dir;
        ASSERT_EQ(std::system(mkdir.c_str()), 0);

        sv::ServeConfig config;
        config.threads = threads;
        config.maxConcurrentJobs = 2;
        config.stepsPerSlice = 2;
        config.checkpointDir = dir;
        sv::Server server(config);
        uint64_t id = server.submit(spec);
        server.submit(surrogateSpec("other", 52, 8));

        // Pause mid-run; the slot drains while the job sits
        // checkpointed.
        server.runRound();
        ASSERT_TRUE(server.pauseJob(id));
        server.runRound();
        EXPECT_EQ(server.queue().state(id), sv::JobState::Paused);
        EXPECT_TRUE(h2o::exec::CheckpointReader::exists(
            server.checkpointPathFor(id)));
        size_t paused_at = server.queue().info(id).stepsDone;
        EXPECT_LT(paused_at, spec.numSteps);

        server.runRound();
        server.resumeJob(id);
        server.runUntilIdle();
        EXPECT_EQ(server.queue().state(id), sv::JobState::Done);
        expectMatchesStandalone(server, id, ref);
        // Finished jobs clean up their checkpoint.
        EXPECT_FALSE(h2o::exec::CheckpointReader::exists(
            server.checkpointPathFor(id)));
    }
}

TEST(Serve, KillAndResumeMatchesUninterruptedRun)
{
    // Server A checkpoints running jobs every step and is destroyed
    // mid-run (the "kill"). Server B starts with the same checkpoint
    // directory and the same submission order (so ids match), picks up
    // the half-finished steppers from disk, and must land on exactly
    // the standalone bytes.
    std::vector<sv::JobSpec> specs = {
        surrogateSpec("k1", 61, 8, 0.9),
        surrogateSpec("k2", 62, 8, 1.1),
    };
    std::vector<sv::StandaloneRun> refs;
    for (const auto &spec : specs)
        refs.push_back(sv::runStandalone(spec));

    for (size_t threads : {1u, 4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        std::string dir = testing::TempDir() + "/h2o_serve_kill_t" +
                          std::to_string(threads);
        std::string mkdir = "mkdir -p " + dir;
        ASSERT_EQ(std::system(mkdir.c_str()), 0);

        sv::ServeConfig config;
        config.threads = threads;
        config.maxConcurrentJobs = 2;
        config.stepsPerSlice = 2;
        config.checkpointDir = dir;
        config.checkpointEvery = 1;
        {
            sv::Server a(config);
            for (const auto &spec : specs)
                a.submit(spec);
            a.runRound(); // partial progress, then "kill" (destructor)
            EXPECT_TRUE(h2o::exec::CheckpointReader::exists(
                a.checkpointPathFor(1)));
        }

        sv::Server b(config);
        std::vector<uint64_t> ids;
        for (const auto &spec : specs)
            ids.push_back(b.submit(spec));
        b.runUntilIdle();
        for (size_t i = 0; i < ids.size(); ++i) {
            EXPECT_EQ(b.queue().state(ids[i]), sv::JobState::Done);
            const sv::JobResult *served = b.result(ids[i]);
            ASSERT_NE(served, nullptr);
            // The full telemetry was split across two server lifetimes,
            // so compare outcome + history; the resumed tail rows must
            // carry the standalone values for their steps.
            EXPECT_TRUE(
                sameBits(served->bestReward, refs[i].result.bestReward));
            EXPECT_TRUE(sameBits(served->outcome.finalMeanReward,
                                 refs[i].result.outcome.finalMeanReward));
            EXPECT_EQ(served->outcome.finalSample,
                      refs[i].result.outcome.finalSample);
            EXPECT_EQ(served->paretoIndices, refs[i].result.paretoIndices);
            ASSERT_EQ(served->outcome.history.size(),
                      refs[i].result.outcome.history.size());
            for (size_t h = 0; h < served->outcome.history.size(); ++h)
                EXPECT_TRUE(
                    sameBits(served->outcome.history[h].reward,
                             refs[i].result.outcome.history[h].reward));
            auto rows = b.telemetry().rowsForJob(ids[i]);
            ASSERT_FALSE(rows.empty());
            for (const auto &row : rows) {
                const auto &ref_row = refs[i].rows.at(row.step);
                EXPECT_EQ(ref_row.step, row.step);
                EXPECT_TRUE(sameBits(row.meanReward, ref_row.meanReward));
                EXPECT_TRUE(sameBits(row.bestReward, ref_row.bestReward));
            }
        }
    }
}

// --------------------------------------------------- cancel / isolation

TEST(Serve, CancelRunningAndQueuedJobs)
{
    sv::ServeConfig config;
    config.threads = 1;
    config.maxConcurrentJobs = 1;
    config.stepsPerSlice = 1;
    sv::Server server(config);
    uint64_t running = server.submit(surrogateSpec("running", 71, 10));
    uint64_t waiting = server.submit(surrogateSpec("waiting", 72, 10));

    server.runRound();
    EXPECT_TRUE(server.cancelJob(running)); // active: next boundary
    EXPECT_TRUE(server.cancelJob(waiting)); // still queued: immediate
    EXPECT_EQ(server.queue().state(waiting), sv::JobState::Cancelled);
    server.runRound();
    EXPECT_EQ(server.queue().state(running), sv::JobState::Cancelled);
    EXPECT_LT(server.queue().info(running).stepsDone, 10u);
    EXPECT_EQ(server.result(running), nullptr);
    EXPECT_FALSE(server.runRound()); // idle
    EXPECT_FALSE(server.cancelJob(running)); // already terminal
}

TEST(Serve, FailedJobDoesNotDisturbOtherTenants)
{
    sv::JobSpec good = surrogateSpec("good", 81, 5);
    sv::StandaloneRun ref = sv::runStandalone(good);

    for (size_t threads : {1u, 4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        sv::ServeConfig config;
        config.threads = threads;
        config.maxConcurrentJobs = 2;
        config.stepsPerSlice = 2;
        config.factory = [](const sv::JobSpec &spec,
                            h2o::sim::SimCache &cache) {
            if (spec.name == "bad")
                throw std::runtime_error("tenant misconfigured");
            return sv::makeDefaultJob(spec, cache);
        };
        sv::Server server(config);
        uint64_t bad = server.submit(surrogateSpec("bad", 80, 5));
        uint64_t ok = server.submit(good);
        server.runUntilIdle();

        EXPECT_EQ(server.queue().state(bad), sv::JobState::Failed);
        EXPECT_EQ(server.queue().info(bad).error, "tenant misconfigured");
        EXPECT_EQ(server.queue().state(ok), sv::JobState::Done);
        expectMatchesStandalone(server, ok, ref);
    }
}

// ----------------------------------------------------------- telemetry

TEST(Telemetry, CsvAndJsonCarryEveryRow)
{
    sv::TelemetryStream stream;
    sv::TelemetryRow row;
    row.jobId = 3;
    row.step = 1;
    row.meanReward = -0.125;
    row.bestReward = 0.5;
    row.cacheHitRate = 0.25;
    row.cacheEntries = 10;
    row.queueDepth = 2;
    row.runningJobs = 4;
    stream.record(row);
    row.step = 2;
    stream.record(row);
    EXPECT_EQ(stream.size(), 2u);
    EXPECT_EQ(stream.rowsForJob(3).size(), 2u);
    EXPECT_TRUE(stream.rowsForJob(4).empty());

    std::ostringstream csv;
    stream.writeCsv(csv);
    EXPECT_NE(csv.str().find("job_id,step,mean_reward,best_reward"),
              std::string::npos);
    EXPECT_NE(csv.str().find("3,1,-0.125,0.5"), std::string::npos);

    std::ostringstream json;
    stream.writeJson(json);
    EXPECT_NE(json.str().find("\"job_id\": 3"), std::string::npos);
    EXPECT_NE(json.str().find("\"step\": 2"), std::string::npos);
}

TEST(Serve, SharedCacheCrossTenantHits)
{
    // Two identical-seed tenants: the second is a pure cache rider —
    // every simulation it needs was already computed by the first.
    sv::ServeConfig config;
    config.threads = 1;
    config.maxConcurrentJobs = 1; // sequential: clean hit accounting
    config.stepsPerSlice = 100;
    sv::Server server(config);
    uint64_t a = server.submit(surrogateSpec("first", 91, 4));
    uint64_t b = server.submit(surrogateSpec("second", 91, 4));
    server.runUntilIdle();

    h2o::sim::SimCacheStats cs = server.cache().stats();
    EXPECT_GT(cs.hits, 0u);
    const sv::JobResult *ra = server.result(a);
    const sv::JobResult *rb = server.result(b);
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    // Sharing the cache must not couple results: same spec -> same
    // result, computed once, hit the second time.
    EXPECT_TRUE(sameBits(ra->bestReward, rb->bestReward));
    EXPECT_EQ(ra->paretoIndices, rb->paretoIndices);
}
