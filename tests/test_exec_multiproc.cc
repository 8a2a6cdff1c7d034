/**
 * @file
 * Tests for the multi-process shard transport: wire-codec and
 * socket-frame round trips (property-tested over payload sizes from 0
 * bytes to multiple megabytes), ProcPool task dispatch / error
 * propagation / kill -9 death detection and respawn, ShardRunner retry
 * and degradation semantics across process death, and the end-to-end
 * contracts on top: procs x threads bitwise A/B matrices for all three
 * steppers, fault-injection equivalence, a worker killed mid-run with
 * byte-identical recovery, per-worker transport telemetry, the --procs
 * flag's fatal-on-malformed H2O_PROCS contract, and the checkpoint
 * writer's fsync failure path.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/flags.h"
#include "common/rng.h"
#include "exec/checkpoint.h"
#include "exec/fault_injector.h"
#include "exec/proc_transport.h"
#include "exec/shard_runner.h"
#include "pipeline/pipeline.h"
#include "pipeline/traffic_generator.h"
#include "reward/reward.h"
#include "search/h2o_dlrm_search.h"
#include "search/stepwise.h"
#include "search/surrogate_search.h"
#include "search/telemetry.h"
#include "search/tunas_search.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_supernet.h"

namespace ex = h2o::exec;
namespace sr = h2o::search;
namespace ss = h2o::searchspace;
namespace rw = h2o::reward;
namespace pl = h2o::pipeline;
namespace sn = h2o::supernet;
namespace arch = h2o::arch;
using h2o::common::Rng;

namespace {

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
expectIdenticalOutcomes(const sr::SearchOutcome &a,
                        const sr::SearchOutcome &b)
{
    EXPECT_EQ(a.finalSample, b.finalSample);
    EXPECT_TRUE(sameBits(a.finalMeanReward, b.finalMeanReward));
    EXPECT_TRUE(sameBits(a.finalEntropy, b.finalEntropy));
    ASSERT_EQ(a.history.size(), b.history.size());
    for (size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(a.history[i].sample, b.history[i].sample);
        EXPECT_EQ(a.history[i].step, b.history[i].step);
        EXPECT_TRUE(sameBits(a.history[i].quality, b.history[i].quality));
        EXPECT_TRUE(sameBits(a.history[i].reward, b.history[i].reward));
        EXPECT_EQ(a.history[i].performance, b.history[i].performance);
    }
}

} // namespace

// ----------------------------------------------------------- wire codec

TEST(WireCodec, ScalarsRoundTripBitExactly)
{
    ex::WireWriter w;
    w.putU32(0);
    w.putU32(0xffffffffu);
    w.putU64(0x0123456789abcdefull);
    w.putDouble(0.0);
    w.putDouble(-0.0);
    w.putDouble(1.0 / 3.0);
    w.putDouble(std::numeric_limits<double>::quiet_NaN());
    w.putDouble(-std::numeric_limits<double>::infinity());
    w.putBytes("");
    w.putBytes(std::string("a\0b", 3));

    ex::WireReader r(w.bytes());
    EXPECT_EQ(r.getU32(), 0u);
    EXPECT_EQ(r.getU32(), 0xffffffffu);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefull);
    EXPECT_TRUE(sameBits(r.getDouble(), 0.0));
    EXPECT_TRUE(sameBits(r.getDouble(), -0.0)); // sign of zero survives
    EXPECT_TRUE(sameBits(r.getDouble(), 1.0 / 3.0));
    EXPECT_TRUE(sameBits(r.getDouble(),
                         std::numeric_limits<double>::quiet_NaN()));
    EXPECT_TRUE(sameBits(r.getDouble(),
                         -std::numeric_limits<double>::infinity()));
    EXPECT_EQ(r.getBytes(), "");
    EXPECT_EQ(r.getBytes(), std::string("a\0b", 3));
    EXPECT_TRUE(r.atEnd());
}

TEST(WireCodec, TruncatedPayloadThrows)
{
    ex::WireWriter w;
    w.putU64(7);
    std::string cut = w.bytes().substr(0, 3);
    ex::WireReader r(cut);
    EXPECT_THROW(r.getU64(), std::runtime_error);

    ex::WireWriter w2;
    w2.putBytes("hello");
    std::string cut2 = w2.bytes().substr(0, 6); // length says 5, have 2
    ex::WireReader r2(cut2);
    EXPECT_THROW(r2.getBytes(), std::runtime_error);
}

// ------------------------------------------------------------- ProcPool

TEST(ProcPool, EchoRoundTripPropertyOverPayloadSizes)
{
    // Property: any payload the coordinator sends comes back verbatim —
    // over sizes spanning empty, sub-frame, and multi-megabyte (many
    // socket buffers' worth, so partial send/recv loops are exercised).
    ex::ProcTaskRegistration echo(
        "test/echo", [](uint64_t step, uint64_t shard,
                        const std::string &req) {
            ex::WireWriter w;
            w.putU64(step);
            w.putU64(shard);
            w.putBytes(req);
            return w.take();
        });
    ex::ProcPool pool(2);

    Rng rng(7);
    std::vector<size_t> sizes = {0, 1, 2, 3, 4096};
    for (int i = 0; i < 8; ++i)
        sizes.push_back(static_cast<size_t>(rng.next64() % (1u << 16)));
    sizes.push_back((1u << 22) + 17); // ~4 MiB: >> any one buffer

    for (size_t n = 0; n < sizes.size(); ++n) {
        std::string payload(sizes[n], '\0');
        for (auto &c : payload)
            c = static_cast<char>(rng.next64() & 0xff);
        const size_t worker = n % pool.size();
        auto reply = pool.call(worker, "test/echo", 11, n, payload);
        ASSERT_TRUE(reply.has_value()) << "payload size " << sizes[n];
        ex::WireReader r(*reply);
        EXPECT_EQ(r.getU64(), 11u);
        EXPECT_EQ(r.getU64(), n);
        EXPECT_EQ(r.getBytes(), payload);
    }

    auto stats = pool.stats();
    EXPECT_EQ(stats.totalTasksServed(), sizes.size());
    EXPECT_EQ(stats.totalRespawns(), 0u);
    EXPECT_GT(stats.totalBytes(), (1u << 22));
}

TEST(ProcPool, TaskErrorsPropagateWithoutKillingTheWorker)
{
    ex::ProcTaskRegistration task(
        "test/maybe_throw", [](uint64_t, uint64_t shard,
                               const std::string &) -> std::string {
            if (shard == 13)
                throw std::runtime_error("unlucky shard");
            return "ok";
        });
    ex::ProcPool pool(1);

    EXPECT_THROW(pool.call(0, "test/maybe_throw", 0, 13, ""),
                 std::runtime_error);
    // A thrown task is an application error, not a transport death: the
    // same worker keeps serving.
    EXPECT_TRUE(pool.alive(0));
    auto ok = pool.call(0, "test/maybe_throw", 0, 1, "");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(*ok, "ok");

    // Unknown task names are task errors too.
    EXPECT_THROW(pool.call(0, "test/never_registered", 0, 0, ""),
                 std::runtime_error);
}

TEST(ProcPool, KilledWorkerIsDetectedAndRespawned)
{
    ex::ProcTaskRegistration echo(
        "test/echo2",
        [](uint64_t, uint64_t, const std::string &req) { return req; });
    ex::ProcPool pool(2);
    pid_t victim = pool.workerPid(1);
    ASSERT_GT(victim, 0);

    pool.killWorker(1);
    // Death surfaces as a transport failure on the next call, never as
    // a hang or a crash of the coordinator.
    auto reply = pool.call(1, "test/echo2", 0, 0, "x");
    EXPECT_FALSE(reply.has_value());
    EXPECT_FALSE(pool.alive(1));
    // The sibling is unaffected.
    EXPECT_TRUE(pool.alive(0));
    auto sib = pool.call(0, "test/echo2", 0, 0, "y");
    ASSERT_TRUE(sib.has_value());
    EXPECT_EQ(*sib, "y");

    pool.respawnDead();
    EXPECT_TRUE(pool.alive(1));
    EXPECT_NE(pool.workerPid(1), victim);
    auto again = pool.call(1, "test/echo2", 0, 0, "z");
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, "z");
    EXPECT_EQ(pool.stats().workers[1].respawns, 1u);
}

// --------------------------------------------- ShardRunner task steps

namespace {

/** A pure shard task: response = f(step, shard, request). */
double
shardValue(uint64_t step, uint64_t shard, uint64_t payload)
{
    return static_cast<double>(step * 1000 + shard * 10) +
           static_cast<double>(payload) * 0.5;
}

} // namespace

TEST(ShardRunnerTask, KillMidStepRetriesWithSameBytesAndMatchesUnkilledRun)
{
    ex::ProcTaskRegistration task(
        "test/shard_value",
        [](uint64_t step, uint64_t shard, const std::string &req) {
            ex::WireReader r(req);
            uint64_t payload = r.getU64();
            ex::WireWriter w;
            w.putDouble(shardValue(step, shard, payload));
            return w.take();
        });

    // Each shard's encode draws from its own RNG stream — the value the
    // determinism contract protects (a transport retry must NOT re-draw).
    auto runOnce = [&](size_t procs, bool kill) {
        ex::ProcPool pool(procs);
        ex::ThreadPool lanes(pool.size());
        ex::ShardRunner runner(lanes, ex::ShardRunnerConfig{4, 3, 0.0},
                               nullptr, &pool);
        Rng parent(17);
        std::vector<Rng> rngs = ex::ThreadPool::splitRngs(parent, 4);
        std::vector<double> out(4, 0.0);
        std::vector<uint64_t> draws(4, 0); // per-shard slot: lane-safe

        ex::ProcShardTask t;
        t.name = "test/shard_value";
        t.encode = [&](size_t s) {
            uint64_t draw = rngs[s].next64() % 100;
            draws[s] = draw;
            if (kill && s == 1)
                pool.killWorker(1 % pool.size());
            ex::WireWriter w;
            w.putU64(draw);
            return w.take();
        };
        t.decode = [&](size_t s, const std::string &resp) {
            ex::WireReader r(resp);
            out[s] = r.getDouble();
        };
        auto report = runner.runStep(3, t);
        return std::make_tuple(out, draws, report,
                               runner.transportFailures());
    };

    auto [ref, refDraws, refReport, refFailures] = runOnce(2, false);
    EXPECT_EQ(refFailures, 0u);
    for (size_t s = 0; s < 4; ++s) {
        EXPECT_EQ(refReport.shards[s].state, ex::ShardState::Ok);
        EXPECT_TRUE(sameBits(ref[s], shardValue(3, s, refDraws[s])));
    }

    // kill -9 the worker serving shard 1 right as shard 1's request is
    // encoded: the in-flight call dies, the shard consumes an attempt
    // but keeps its encoded bytes, the worker respawns, and the retry
    // succeeds — decoded results byte-identical to the unkilled run,
    // and every shard drew exactly once (no double RNG advance).
    auto [killed, killedDraws, killedReport, killedFailures] =
        runOnce(2, true);
    EXPECT_GE(killedFailures, 1u);
    EXPECT_EQ(killedDraws, refDraws);
    for (size_t s = 0; s < 4; ++s)
        EXPECT_TRUE(sameBits(killed[s], ref[s]));
    EXPECT_EQ(killedReport.shards[1].state, ex::ShardState::Retried);
    EXPECT_EQ(killedReport.survivors().size(), 4u);

    // Single-worker pool, same kill: still completes, still identical.
    auto [one, oneDraws, oneReport, oneFailures] = runOnce(1, true);
    EXPECT_GE(oneFailures, 1u);
    EXPECT_EQ(oneDraws, refDraws);
    for (size_t s = 0; s < 4; ++s)
        EXPECT_TRUE(sameBits(one[s], ref[s]));
    (void)oneReport;
}

TEST(ShardRunnerTask, WorkerSuicideEveryAttemptDegradesShardStepCompletes)
{
    // The worker task itself dies (raise SIGKILL) on every call for
    // shard 0, so every one of its attempts is a transport failure:
    // shard 0 exhausts maxAttempts and degrades exactly like an
    // injected fault, while shard 1 — queued behind the corpse on the
    // same worker — consumes no attempts for the deaths and survives.
    ex::ProcTaskRegistration task(
        "test/suicide", [](uint64_t, uint64_t shard,
                           const std::string &) -> std::string {
            if (shard == 0)
                ::raise(SIGKILL);
            return "v";
        });
    ex::ProcPool pool(1);
    ex::ThreadPool lanes(1);
    ex::ShardRunner runner(lanes, ex::ShardRunnerConfig{2, 2, 0.0},
                           nullptr, &pool);

    size_t encodes = 0;
    std::string decoded;
    ex::ProcShardTask t;
    t.name = "test/suicide";
    t.encode = [&](size_t) {
        ++encodes;
        return std::string();
    };
    t.decode = [&](size_t s, const std::string &r) {
        decoded += std::to_string(s) + "=" + r + ";";
    };
    auto report = runner.runStep(0, t);

    ASSERT_EQ(report.shards.size(), 2u);
    EXPECT_EQ(report.shards[0].state, ex::ShardState::Degraded);
    EXPECT_EQ(report.shards[0].attempts, 2u);
    EXPECT_EQ(report.shards[1].state, ex::ShardState::Ok);
    EXPECT_EQ(decoded, "1=v;"); // degraded shard never decodes
    std::vector<size_t> expectSurvivors = {1};
    EXPECT_EQ(report.survivors(), expectSurvivors);
    EXPECT_EQ(runner.transportFailures(), 2u);
    EXPECT_EQ(runner.degradedShardSteps(), 1u);
    EXPECT_GE(pool.stats().totalRespawns(), 2u);
    // Shard 0 drew once (cached request across both deaths), shard 1
    // once: no RNG stream ever advances twice.
    EXPECT_EQ(encodes, 2u);
}

// ----------------------------------- search-level bitwise A/B matrices

namespace {

arch::DlrmArch
searchDlrm()
{
    arch::DlrmArch a;
    a.numDenseFeatures = 4;
    a.tables = {{512, 8, 1.0}, {256, 8, 1.0}};
    a.bottomMlp = {{16, 0}};
    a.topMlp = {{32, 0}};
    a.globalBatch = 256;
    return a;
}

struct DlrmFixture
{
    ss::DlrmSearchSpace space;
    Rng rng;
    sn::DlrmSupernet net;
    std::unique_ptr<pl::InMemoryPipeline> pipe;

    DlrmFixture()
        : space(searchDlrm()), rng(31),
          net(space, sn::SupernetConfig{128, 64}, rng)
    {
        std::vector<uint64_t> vocabs;
        std::vector<double> ids;
        for (const auto &t : searchDlrm().tables) {
            vocabs.push_back(t.vocab);
            ids.push_back(t.avgIds);
        }
        auto gen = std::make_unique<pl::TrafficGenerator>(
            pl::trafficConfigFor(4, vocabs, ids), 99);
        pipe = std::make_unique<pl::InMemoryPipeline>(std::move(gen), 32);
    }
};

/** Pure per-candidate quality/perf for the surrogate matrix (both ship
 *  into worker processes in proc mode, so they must be pure). */
double
pureQuality(const ss::DlrmSearchSpace &space, const ss::Sample &s)
{
    return -space.decode(s).flopsPerExample() / 1e6;
}

std::vector<double>
purePerf(const ss::DlrmSearchSpace &space, const ss::Sample &s)
{
    return {space.decode(s).flopsPerExample() / 1e5};
}

sr::SearchOutcome
runSurrogate(size_t procs, size_t threads, ex::FaultInjector *faults,
             uint64_t seed = 5)
{
    ss::DlrmSearchSpace space(searchDlrm());
    rw::ReluReward reward({{"flops", 2.0, -0.5}});
    sr::SurrogateSearchConfig cfg;
    cfg.numSteps = 8;
    cfg.samplesPerStep = 4;
    cfg.threads = threads;
    cfg.procs = procs;
    cfg.faults = faults;
    cfg.retryBackoffMs = 0.0;
    sr::SurrogateSearch search(
        space.decisions(),
        [&](const ss::Sample &s) { return pureQuality(space, s); },
        sr::PerfFn([&](const ss::Sample &s) { return purePerf(space, s); }),
        reward, cfg);
    Rng rng(seed);
    return search.run(rng);
}

sr::SearchOutcome
runH2o(size_t procs, size_t threads)
{
    DlrmFixture f;
    rw::ReluReward reward({{"flops", 2.0, -0.5}});
    sr::H2oSearchConfig cfg;
    cfg.numShards = 4;
    cfg.numSteps = 6;
    cfg.warmupSteps = 2;
    cfg.threads = threads;
    cfg.procs = procs;
    sr::H2oDlrmSearch search(
        f.space, f.net, *f.pipe,
        sr::DlrmPerfFn(
            [&](const ss::Sample &s) { return purePerf(f.space, s); }),
        reward, cfg);
    Rng rng(32);
    return search.run(rng);
}

sr::SearchOutcome
runTunas(size_t procs)
{
    DlrmFixture f;
    rw::ReluReward reward({{"flops", 2.0, -0.5}});
    sr::TunasSearchConfig cfg;
    cfg.numIterations = 6;
    cfg.warmupSteps = 2;
    cfg.procs = procs;
    sr::TunasSearch search(
        f.space, f.net, *f.pipe,
        sr::PerfFn(
            [&](const ss::Sample &s) { return purePerf(f.space, s); }),
        reward, cfg);
    Rng rng(33);
    return search.run(rng);
}

} // namespace

TEST(MultiprocSearch, SurrogateBitwiseAcrossProcsAndThreads)
{
    // The full matrix of the determinism contract: thread-only runs at
    // several widths, proc runs at 1/2/4 workers — every cell must be
    // byte-identical to the serial reference. In fleet mode the engine
    // sizes its pool from the transport's slot count, so `threads` does
    // not apply to the proc cells.
    auto ref = runSurrogate(0, 1, nullptr);
    for (size_t threads : {2u, 4u})
        expectIdenticalOutcomes(ref, runSurrogate(0, threads, nullptr));
    for (size_t procs : {1u, 2u, 4u})
        expectIdenticalOutcomes(ref, runSurrogate(procs, 1, nullptr));
}

TEST(MultiprocSearch, H2oSupernetBitwiseAcrossProcs)
{
    auto ref = runH2o(0, 1);
    expectIdenticalOutcomes(ref, runH2o(0, 2));
    for (size_t procs : {1u, 2u})
        expectIdenticalOutcomes(ref, runH2o(procs, 1));
}

TEST(MultiprocSearch, TunasBitwiseAcrossProcs)
{
    auto ref = runTunas(0);
    expectIdenticalOutcomes(ref, runTunas(1));
    // Clamped: TuNAS has one shard, so 4 requested procs fork 1 worker.
    expectIdenticalOutcomes(ref, runTunas(4));
}

TEST(MultiprocSearch, InjectedFaultsIdenticalAcrossTransports)
{
    // The fault oracle keys on (step, shard, attempt) and is consulted
    // coordinator-side on both transports: the same seed must produce
    // the same degradation pattern and the same surviving bytes.
    ex::FaultConfig fcfg;
    fcfg.failProb = 0.1;
    fcfg.preemptProb = 0.1;
    fcfg.seed = 9;

    ex::FaultInjector a(fcfg);
    auto ref = runSurrogate(0, 1, &a);
    EXPECT_GT(a.stats().preemptions.load() + a.stats().failures.load(),
              0u);
    for (size_t procs : {1u, 2u}) {
        ex::FaultInjector b(fcfg);
        expectIdenticalOutcomes(ref, runSurrogate(procs, 1, &b));
    }
}

TEST(MultiprocSearch, WorkerKilledMidRunRecoversByteIdentically)
{
    // Reference: no kill.
    auto ref = runSurrogate(2, 1, nullptr);

    // Killed run: drive the stepper manually, SIGKILL a live worker pid
    // (from the transport telemetry) partway through. The next step's
    // first call on that worker dies mid-step; the runner respawns it
    // and retries with the cached request bytes, so the outcome is
    // byte-identical and the respawn shows up in the telemetry.
    ss::DlrmSearchSpace space(searchDlrm());
    rw::ReluReward reward({{"flops", 2.0, -0.5}});
    sr::SurrogateSearchConfig cfg;
    cfg.numSteps = 8;
    cfg.samplesPerStep = 4;
    cfg.threads = 1;
    cfg.procs = 2;
    cfg.retryBackoffMs = 0.0;
    sr::SurrogateSearch search(
        space.decisions(),
        [&](const ss::Sample &s) { return pureQuality(space, s); },
        sr::PerfFn([&](const ss::Sample &s) { return purePerf(space, s); }),
        reward, cfg);
    Rng rng(5);
    auto stepper = search.makeStepper(rng);
    size_t killsIssued = 0;
    while (!stepper->done()) {
        stepper->step();
        if (stepper->stepIndex() == 4) {
            auto stats = stepper->transportStats();
            ASSERT_EQ(stats.workers.size(), 2u);
            ASSERT_TRUE(stats.workers[1].alive);
            ::kill(static_cast<pid_t>(stats.workers[1].pid), SIGKILL);
            ++killsIssued;
        }
    }
    auto killed = stepper->finish();
    EXPECT_EQ(killsIssued, 1u);
    expectIdenticalOutcomes(ref, killed);

    auto stats = stepper->transportStats();
    EXPECT_EQ(stats.totalRespawns(), 1u);
    EXPECT_GT(stats.totalTasksServed(), 0u);
    EXPECT_GT(stats.totalBytes(), 0u);

    // The per-worker counters surface in the telemetry CSV.
    std::ostringstream csv;
    sr::writeTransportStatsCsv(stats, csv);
    EXPECT_NE(csv.str().find("worker,pid,alive,tasks_served,respawns,"
                             "bytes_sent,bytes_received"),
              std::string::npos);
    EXPECT_NE(csv.str().find("\n1,"), std::string::npos);
}

TEST(MultiprocSearch, TransportStatsEmptyOnThreadPath)
{
    ss::DlrmSearchSpace space(searchDlrm());
    rw::ReluReward reward({{"flops", 2.0, -0.5}});
    sr::SurrogateSearchConfig cfg;
    cfg.numSteps = 1;
    cfg.samplesPerStep = 2;
    cfg.threads = 1;
    sr::SurrogateSearch search(
        space.decisions(),
        [&](const ss::Sample &s) { return pureQuality(space, s); },
        sr::PerfFn([&](const ss::Sample &s) { return purePerf(space, s); }),
        reward, cfg);
    Rng rng(5);
    auto stepper = search.makeStepper(rng);
    stepper->step();
    EXPECT_TRUE(stepper->transportStats().workers.empty());
    std::ostringstream csv;
    sr::writeTransportStatsCsv(stepper->transportStats(), csv);
    EXPECT_EQ(csv.str(),
              "worker,pid,alive,tasks_served,respawns,bytes_sent,"
              "bytes_received,endpoint\n");
}

// ------------------------------------------------- fatal-path contracts

TEST(ProcsFlag, EnvironmentDefaultAndFatalOnMalformed)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    unsetenv("H2O_PROCS");
    EXPECT_EQ(h2o::common::procsFlagDefault(), 0);
    setenv("H2O_PROCS", "3", 1);
    EXPECT_EQ(h2o::common::procsFlagDefault(), 3);

    // Unlike H2O_THREADS (warn + fall back), a malformed H2O_PROCS is
    // fatal: silently dropping the transport the user asked for would
    // mask misconfiguration.
    setenv("H2O_PROCS", "not-a-number", 1);
    EXPECT_EXIT((void)h2o::common::procsFlagDefault(),
                testing::ExitedWithCode(1), "malformed H2O_PROCS");
    setenv("H2O_PROCS", "-2", 1);
    EXPECT_EXIT((void)h2o::common::procsFlagDefault(),
                testing::ExitedWithCode(1), "malformed H2O_PROCS");
    unsetenv("H2O_PROCS");

    h2o::common::Flags flags;
    h2o::common::defineProcsFlag(flags);
    EXPECT_EQ(flags.getInt("procs"), 0);
}

// ------------------------------------------------ checkpoint durability

TEST(CheckpointDurability, CommitSurvivesRoundTrip)
{
    std::string path = testing::TempDir() + "/h2o_multiproc_ckpt";
    std::remove(path.c_str());

    ex::CheckpointWriter writer;
    writer.stream() << "payload line\n";
    writer.commit(path);
    ASSERT_TRUE(ex::CheckpointReader::exists(path));
    ex::CheckpointReader reader(path);
    std::string line;
    std::getline(reader.stream(), line);
    EXPECT_EQ(line, "payload line");
    std::remove(path.c_str());
}

TEST(CheckpointDurability, UnwritableDirectoryIsFatalNotSilent)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The failure path: the temp file cannot even be created (the
    // directory does not exist), which must be a loud fatal — a
    // checkpoint that silently failed to persist is a data-loss bug.
    EXPECT_EXIT(
        {
            ex::CheckpointWriter writer;
            writer.stream() << "x";
            writer.commit("/nonexistent-h2o-dir/ckpt");
        },
        testing::ExitedWithCode(1), "checkpoint temp file");
}

