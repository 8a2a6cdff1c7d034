/**
 * @file
 * Tests for the cross-host shard transport: wire-codec fuzzing
 * (truncated / oversized-length / random-garbage frames must error
 * cleanly without over-reading), bit-exact payload round trips over
 * BOTH a socketpair and loopback TCP (including -0.0/NaN/inf), the
 * handshake's fail-fast contract (mismatched task sets, unreachable
 * daemons), RemotePool session/daemon death detection with
 * reconnect-as-respawn, a byte-at-a-time interposing proxy (partial
 * TCP delivery never changes outcomes), the H2O_WORKERS / H2O_THREADS
 * environment contracts, and the end-to-end gates: all three steppers
 * byte-identical across threads-only / remote / mixed transports, a
 * daemon session SIGKILLed mid-run recovering byte-identically, and
 * checkpoint bytes identical across transports.
 *
 * Network-dependent tests skip cleanly (GTEST_SKIP) when the sandbox
 * forbids loopback TCP; everything codec-level still runs.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/flags.h"
#include "common/rng.h"
#include "exec/proc_transport.h"
#include "exec/remote_transport.h"
#include "exec/shard_runner.h"
#include "exec/shard_transport.h"
#include "exec/wire_io.h"
#include "exec/worker_daemon.h"
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
namespace wire = h2o::exec::wire;
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

/** Whether this sandbox permits loopback TCP (bind + listen + connect
 *  on 127.0.0.1). Probed once; network-label tests skip when false. */
bool
loopbackAvailable()
{
    static const bool available = [] {
        int l = ::socket(AF_INET, SOCK_STREAM, 0);
        if (l < 0)
            return false;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = 0;
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        bool ok = ::bind(l, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)) == 0 &&
                  ::listen(l, 1) == 0;
        if (ok) {
            socklen_t len = sizeof(addr);
            ok = ::getsockname(l, reinterpret_cast<sockaddr *>(&addr),
                               &len) == 0;
        }
        if (ok) {
            int c = ::socket(AF_INET, SOCK_STREAM, 0);
            ok = c >= 0 &&
                 ::connect(c, reinterpret_cast<sockaddr *>(&addr),
                           sizeof(addr)) == 0;
            if (c >= 0)
                ::close(c);
        }
        ::close(l);
        return ok;
    }();
    return available;
}

#define SKIP_WITHOUT_LOOPBACK()                                               \
    do {                                                                      \
        if (!loopbackAvailable())                                             \
            GTEST_SKIP() << "loopback TCP unavailable in this sandbox; "      \
                            "network-label test skipped";                     \
    } while (0)

} // namespace

// ----------------------------------------------------- wire codec fuzz

TEST(WireFuzz, EveryStrictPrefixOfAValidBufferThrows)
{
    // Property: a reader over ANY strict prefix of a valid buffer must
    // throw before the full getter sequence completes — truncation is
    // always a clean error, never a silent short read.
    ex::WireWriter w;
    w.putU32(0xdeadbeefu);
    w.putU64(0x0123456789abcdefull);
    w.putDouble(-0.0);
    w.putBytes("frame payload bytes");
    w.putBytes("");
    w.putU32(7);
    const std::string full = w.bytes();

    auto readAll = [](const std::string &buf) {
        ex::WireReader r(buf);
        (void)r.getU32();
        (void)r.getU64();
        (void)r.getDouble();
        (void)r.getBytes();
        (void)r.getBytes();
        (void)r.getU32();
    };
    readAll(full); // sanity: the untruncated buffer decodes
    for (size_t cut = 0; cut < full.size(); ++cut)
        EXPECT_THROW(readAll(full.substr(0, cut)), std::runtime_error)
            << "prefix length " << cut;
}

TEST(WireFuzz, OversizedBytesLengthThrowsInsteadOfOverreading)
{
    // A length field claiming ~4 GiB with 3 bytes of buffer behind it:
    // getBytes must reject it, not trust the length.
    ex::WireWriter w;
    w.putU32(0xfffffff0u); // bogus byte-string length
    std::string buf = w.bytes() + "abc";
    ex::WireReader r(buf);
    EXPECT_THROW(r.getBytes(), std::runtime_error);
}

TEST(WireFuzz, RandomGarbageBuffersErrorCleanly)
{
    // Random-garbage frames: decode with a random getter sequence until
    // the buffer is exhausted or the reader throws. Either outcome is
    // fine; crashing or reading past the end is not.
    Rng rng(1234);
    for (int trial = 0; trial < 200; ++trial) {
        std::string buf(rng.next64() % 64, '\0');
        for (auto &c : buf)
            c = static_cast<char>(rng.next64() & 0xff);
        ex::WireReader r(buf);
        try {
            for (int op = 0; op < 32 && !r.atEnd(); ++op) {
                switch (rng.next64() % 4) {
                case 0: (void)r.getU32(); break;
                case 1: (void)r.getU64(); break;
                case 2: (void)r.getDouble(); break;
                default: (void)r.getBytes(); break;
                }
            }
        } catch (const std::runtime_error &) {
            // clean rejection: exactly what garbage should produce
        }
    }
}

TEST(WireFrame, CorruptLengthAndTruncatedFramesAreRejected)
{
    // Frame-level corruption over a real socket: a length prefix above
    // kMaxFrameBytes is treated as a dead peer (readFrame false, no
    // giant allocation), and a frame cut off mid-payload by a closed
    // writer is EOF, not a hang or a short read.
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    uint32_t huge = wire::kMaxFrameBytes;
    ASSERT_TRUE(wire::sendAll(sv[0], &huge, sizeof(huge)));
    std::string payload;
    EXPECT_FALSE(wire::readFrame(sv[1], payload));
    ::close(sv[0]);
    ::close(sv[1]);

    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    uint32_t len = 100; // promises 100 bytes, delivers 10
    ASSERT_TRUE(wire::sendAll(sv[0], &len, sizeof(len)));
    ASSERT_TRUE(wire::sendAll(sv[0], "0123456789", 10));
    ::close(sv[0]);
    EXPECT_FALSE(wire::readFrame(sv[1], payload));
    ::close(sv[1]);
}

TEST(WireFrame, TaskSetDigestIsOrderIndependentAndNameSensitive)
{
    uint64_t a = wire::taskSetDigest({"eval/1", "eval/2", "echo"});
    uint64_t b = wire::taskSetDigest({"echo", "eval/2", "eval/1"});
    EXPECT_EQ(a, b); // registration order never matters
    EXPECT_NE(a, wire::taskSetDigest({"eval/1", "eval/2"}));
    EXPECT_NE(a, wire::taskSetDigest({"eval/1", "eval/2", "echo2"}));
    // The '\0' boundary keeps concatenations distinct.
    EXPECT_NE(wire::taskSetDigest({"ab", "c"}),
              wire::taskSetDigest({"a", "bc"}));
}

// ------------------------------------- round trips: socketpair AND TCP

namespace {

/** Payloads that must round-trip bit-exactly: special doubles plus
 *  random binary blobs spanning empty to many socket buffers. */
std::vector<std::string>
roundTripPayloads()
{
    ex::WireWriter specials;
    specials.putDouble(0.0);
    specials.putDouble(-0.0);
    specials.putDouble(std::numeric_limits<double>::quiet_NaN());
    specials.putDouble(std::numeric_limits<double>::infinity());
    specials.putDouble(-std::numeric_limits<double>::infinity());
    specials.putDouble(std::numeric_limits<double>::denorm_min());
    specials.putDouble(1.0 / 3.0);

    std::vector<std::string> payloads = {specials.take(), ""};
    Rng rng(77);
    for (size_t size : {1u, 3u, 4096u, (1u << 18) + 7u}) {
        std::string blob(size, '\0');
        for (auto &c : blob)
            c = static_cast<char>(rng.next64() & 0xff);
        payloads.push_back(std::move(blob));
    }
    return payloads;
}

} // namespace

TEST(RemoteRoundTrip, PayloadsBitExactOverSocketpairAndLoopbackTcp)
{
    SKIP_WITHOUT_LOOPBACK();
    // The same echo task served by a forked worker (socketpair) and a
    // fork-local TCP daemon: every payload — including the NaN/-0.0/inf
    // bit patterns — must come back verbatim on both transports, and
    // the two replies must match each other (one wire format, two
    // carriers).
    ex::ProcTaskRegistration echo(
        "test/remote_echo",
        [](uint64_t, uint64_t, const std::string &req) { return req; });
    ex::ProcPool forks(1);
    ex::RemotePoolConfig rcfg;
    rcfg.endpoints = ex::parseWorkerList("local");
    rcfg.requiredTasks = {"test/remote_echo"};
    ex::RemotePool tcp(rcfg);

    auto payloads = roundTripPayloads();
    for (size_t i = 0; i < payloads.size(); ++i) {
        auto viaFork = forks.call(0, "test/remote_echo", 1, i, payloads[i]);
        auto viaTcp = tcp.call(0, "test/remote_echo", 1, i, payloads[i]);
        ASSERT_TRUE(viaFork.has_value()) << "payload " << i;
        ASSERT_TRUE(viaTcp.has_value()) << "payload " << i;
        EXPECT_EQ(*viaFork, payloads[i]);
        EXPECT_EQ(*viaTcp, payloads[i]);
        EXPECT_EQ(*viaFork, *viaTcp);
    }

    // The specials decode back to the exact bit patterns.
    auto reply = tcp.call(0, "test/remote_echo", 2, 0, payloads[0]);
    ASSERT_TRUE(reply.has_value());
    ex::WireReader r(*reply);
    EXPECT_TRUE(sameBits(r.getDouble(), 0.0));
    EXPECT_TRUE(sameBits(r.getDouble(), -0.0));
    EXPECT_TRUE(sameBits(r.getDouble(),
                         std::numeric_limits<double>::quiet_NaN()));
    EXPECT_TRUE(sameBits(r.getDouble(),
                         std::numeric_limits<double>::infinity()));
    EXPECT_TRUE(sameBits(r.getDouble(),
                         -std::numeric_limits<double>::infinity()));
    EXPECT_TRUE(sameBits(r.getDouble(),
                         std::numeric_limits<double>::denorm_min()));
    EXPECT_TRUE(sameBits(r.getDouble(), 1.0 / 3.0));

    auto stats = tcp.stats();
    ASSERT_EQ(stats.workers.size(), 1u);
    EXPECT_EQ(stats.workers[0].endpoint.rfind("local/127.0.0.1:", 0), 0u);
    EXPECT_GT(stats.totalBytes(), (1u << 18));
}

// ------------------------------------------------- handshake contracts

TEST(Handshake, MismatchedTaskSetIsFatalBeforeAnyTaskTraffic)
{
    SKIP_WITHOUT_LOOPBACK();
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A coordinator requiring a task the daemon never registered must
    // die loudly at connect time — a mismatched binary answering with
    // different bytes would silently corrupt a search.
    EXPECT_EXIT(
        {
            ex::RemotePoolConfig cfg;
            cfg.endpoints = ex::parseWorkerList("local");
            cfg.requiredTasks = {"test/task_nobody_registered"};
            ex::RemotePool pool(cfg);
        },
        testing::ExitedWithCode(1), "rejected the handshake");
}

TEST(Handshake, UnreachableEndpointIsFatalAfterConnectRetries)
{
    SKIP_WITHOUT_LOOPBACK();
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Port 9 (discard) has no listener here: a fleet entry that stays
    // unreachable through the connect retries must be fatal, not a
    // silently smaller pool.
    EXPECT_EXIT(
        {
            ex::RemotePoolConfig cfg;
            cfg.endpoints = ex::parseWorkerList("127.0.0.1:9");
            cfg.requiredTasks = {"test/whatever"};
            cfg.connectAttempts = 2;
            cfg.connectBackoffMs = 1;
            ex::RemotePool pool(cfg);
        },
        testing::ExitedWithCode(1), "cannot reach worker daemon");
}

TEST(Handshake, GarbageClientIsDisconnectedNotServed)
{
    SKIP_WITHOUT_LOOPBACK();
    // A client that opens a raw connection and sends a wrong-magic
    // handshake must be refused: the daemon session either reports a
    // non-OK handshake or hangs up, and never serves task traffic.
    ex::ProcTaskRegistration echo(
        "test/garbage_echo",
        [](uint64_t, uint64_t, const std::string &req) { return req; });
    ex::LocalDaemon daemon = ex::spawnLocalWorkerDaemon();
    ASSERT_GT(daemon.pid, 0);

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(daemon.port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    ex::WireWriter hello;
    hello.putU32(0x12345678u); // wrong magic
    hello.putU32(wire::kProtocolVersion);
    ASSERT_TRUE(wire::writeFrame(fd, hello.bytes()));
    std::string reply;
    if (wire::readFrame(fd, reply)) {
        // If the daemon answers at all, it must answer "rejected".
        ex::WireReader r(reply);
        EXPECT_EQ(r.getU32(), wire::kHandshakeMagic);
        EXPECT_EQ(r.getU32(), wire::kProtocolVersion);
        EXPECT_NE(r.getU32(), wire::kStatusOk);
    }
    // Either way the session is gone: a task frame gets no reply.
    std::string req = wire::encodeRequest("test/garbage_echo", 0, 0, "x");
    std::string taskReply;
    if (wire::writeFrame(fd, req)) {
        EXPECT_FALSE(wire::readFrame(fd, taskReply));
    }
    ::close(fd);
    ::kill(daemon.pid, SIGKILL);
    ::waitpid(daemon.pid, nullptr, 0);
}

// --------------------------------------------- RemotePool fault model

TEST(RemotePool, TaskErrorsPropagateWithoutKillingTheSession)
{
    SKIP_WITHOUT_LOOPBACK();
    ex::ProcTaskRegistration task(
        "test/remote_maybe_throw",
        [](uint64_t, uint64_t shard, const std::string &) -> std::string {
            if (shard == 13)
                throw std::runtime_error("unlucky shard");
            return "ok";
        });
    ex::RemotePoolConfig cfg;
    cfg.endpoints = ex::parseWorkerList("local");
    cfg.requiredTasks = {"test/remote_maybe_throw"};
    ex::RemotePool pool(cfg);

    EXPECT_THROW(pool.call(0, "test/remote_maybe_throw", 0, 13, ""),
                 std::runtime_error);
    // An application error is NOT a transport death: same session, same
    // connection, keeps serving.
    EXPECT_TRUE(pool.alive(0));
    auto ok = pool.call(0, "test/remote_maybe_throw", 0, 1, "");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(*ok, "ok");
    // Unknown task names are task errors too (the handshake only vets
    // the declared required set).
    EXPECT_THROW(pool.call(0, "test/never_registered_remote", 0, 0, ""),
                 std::runtime_error);
    EXPECT_EQ(pool.stats().totalRespawns(), 0u);
}

TEST(RemotePool, KilledSessionIsDetectedAndReconnectIsRespawn)
{
    SKIP_WITHOUT_LOOPBACK();
    ex::ProcTaskRegistration echo(
        "test/remote_echo3",
        [](uint64_t, uint64_t, const std::string &req) { return req; });
    ex::RemotePoolConfig cfg;
    cfg.endpoints = ex::parseWorkerList("local,local");
    cfg.requiredTasks = {"test/remote_echo3"};
    ex::RemotePool pool(cfg);
    ASSERT_EQ(pool.size(), 2u);

    pid_t victim = pool.workerPid(1);
    ASSERT_GT(victim, 0);
    pool.killWorker(1); // SIGKILL the daemon SESSION process

    // Death surfaces as a transport failure on the next call.
    auto reply = pool.call(1, "test/remote_echo3", 0, 0, "x");
    EXPECT_FALSE(reply.has_value());
    EXPECT_FALSE(pool.alive(1));
    // The sibling connection (other daemon) is unaffected.
    EXPECT_TRUE(pool.alive(0));
    auto sib = pool.call(0, "test/remote_echo3", 0, 0, "y");
    ASSERT_TRUE(sib.has_value());
    EXPECT_EQ(*sib, "y");

    // Reconnect-as-respawn: a fresh session, forked from pristine
    // daemon state, under a new pid.
    pool.respawnDead();
    EXPECT_TRUE(pool.alive(1));
    EXPECT_NE(pool.workerPid(1), victim);
    auto again = pool.call(1, "test/remote_echo3", 0, 0, "z");
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, "z");
    EXPECT_EQ(pool.stats().workers[1].respawns, 1u);
}

TEST(RemotePool, KilledDaemonParentIsReforkedOnRespawn)
{
    SKIP_WITHOUT_LOOPBACK();
    // The harsher failure: the daemon PARENT (accept loop) dies, not
    // just a session. For fork-local endpoints respawnDead() re-forks a
    // whole new daemon before reconnecting.
    ex::ProcTaskRegistration echo(
        "test/remote_echo4",
        [](uint64_t, uint64_t, const std::string &req) { return req; });
    ex::RemotePoolConfig cfg;
    cfg.endpoints = ex::parseWorkerList("local");
    cfg.requiredTasks = {"test/remote_echo4"};
    ex::RemotePool pool(cfg);

    pid_t oldDaemon = pool.daemonPid(0);
    ASSERT_GT(oldDaemon, 0);
    pool.killDaemon(0); // accept loop gone...
    pool.killWorker(0); // ...and the live session with it
    EXPECT_FALSE(pool.call(0, "test/remote_echo4", 0, 0, "x").has_value());
    EXPECT_FALSE(pool.alive(0));

    pool.respawnDead();
    EXPECT_TRUE(pool.alive(0));
    EXPECT_NE(pool.daemonPid(0), oldDaemon);
    auto reply = pool.call(0, "test/remote_echo4", 0, 0, "back");
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, "back");
    EXPECT_EQ(pool.stats().workers[0].respawns, 1u);
}

TEST(MixedTransport, RoutesAcrossForkAndTcpSlotsAndRespawnsBoth)
{
    SKIP_WITHOUT_LOOPBACK();
    ex::ProcTaskRegistration echo(
        "test/mixed_echo",
        [](uint64_t, uint64_t, const std::string &req) { return req; });
    std::vector<std::unique_ptr<ex::ShardTransport>> parts;
    parts.push_back(std::make_unique<ex::ProcPool>(1));
    ex::RemotePoolConfig rcfg;
    rcfg.endpoints = ex::parseWorkerList("local");
    rcfg.requiredTasks = {"test/mixed_echo"};
    parts.push_back(std::make_unique<ex::RemotePool>(std::move(rcfg)));
    ex::MixedTransport mixed(std::move(parts));
    ASSERT_EQ(mixed.size(), 2u);

    // Slot order is concatenation order: forked slots first.
    auto stats = mixed.stats();
    ASSERT_EQ(stats.workers.size(), 2u);
    EXPECT_EQ(stats.workers[0].endpoint, "fork");
    EXPECT_EQ(stats.workers[1].endpoint.rfind("local/127.0.0.1:", 0), 0u);

    for (size_t slot : {0u, 1u}) {
        auto reply = mixed.call(slot, "test/mixed_echo", 3, slot, "pay");
        ASSERT_TRUE(reply.has_value()) << "slot " << slot;
        EXPECT_EQ(*reply, "pay");
    }

    // Kill one worker on each side; one respawnDead() restores both.
    mixed.killWorker(0);
    mixed.killWorker(1);
    EXPECT_FALSE(mixed.call(0, "test/mixed_echo", 4, 0, "a").has_value());
    EXPECT_FALSE(mixed.call(1, "test/mixed_echo", 4, 1, "b").has_value());
    mixed.respawnDead();
    EXPECT_TRUE(mixed.alive(0));
    EXPECT_TRUE(mixed.alive(1));
    for (size_t slot : {0u, 1u}) {
        auto reply = mixed.call(slot, "test/mixed_echo", 5, slot, "re");
        ASSERT_TRUE(reply.has_value()) << "slot " << slot;
        EXPECT_EQ(*reply, "re");
    }
    stats = mixed.stats();
    EXPECT_EQ(stats.workers[0].respawns, 1u);
    EXPECT_EQ(stats.workers[1].respawns, 1u);
}

// ------------------------------------ partial-delivery stress (proxy)

namespace {

/** An interposing proxy that relays one coordinator<->daemon connection
 *  with seeded random 1-3 byte writes: maximal TCP fragmentation, so
 *  every recvAll loop on both sides sees partial reads. */
struct ByteSplitProxy
{
    pid_t pid = 0;
    uint16_t port = 0;
};

ByteSplitProxy
spawnByteSplitProxy(uint16_t target_port, uint64_t seed)
{
    uint16_t port = 0;
    int listener = ex::listenTcp("127.0.0.1", 0, 1, &port);
    ::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid != 0) {
        ::close(listener);
        return {pid, port};
    }

    // Proxy child: accept the one coordinator connection, dial the
    // daemon, then shuttle bytes both ways in tiny chunks until either
    // side hangs up.
    int a = ::accept(listener, nullptr, nullptr);
    ::close(listener);
    if (a < 0)
        ::_exit(1);
    int b = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(target_port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (b < 0 || ::connect(b, reinterpret_cast<sockaddr *>(&addr),
                           sizeof(addr)) != 0)
        ::_exit(1);
    int one = 1;
    ::setsockopt(a, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::setsockopt(b, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    Rng rng(seed);
    auto relay = [&rng](int from, int to) {
        char buf[512];
        ssize_t n = ::recv(from, buf, sizeof(buf), 0);
        if (n <= 0)
            return false;
        ssize_t off = 0;
        while (off < n) {
            size_t chunk = 1 + static_cast<size_t>(rng.next64() % 3);
            if (chunk > static_cast<size_t>(n - off))
                chunk = static_cast<size_t>(n - off);
            if (!wire::sendAll(to, buf + off, chunk))
                return false;
            off += static_cast<ssize_t>(chunk);
        }
        return true;
    };
    for (;;) {
        pollfd fds[2] = {{a, POLLIN, 0}, {b, POLLIN, 0}};
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if ((fds[0].revents & (POLLIN | POLLHUP)) && !relay(a, b))
            break;
        if ((fds[1].revents & (POLLIN | POLLHUP)) && !relay(b, a))
            break;
    }
    ::_exit(0);
}

} // namespace

TEST(PartialDelivery, ByteAtATimeProxyYieldsByteIdenticalOutcomes)
{
    SKIP_WITHOUT_LOOPBACK();
    // The same ShardRunner task step driven over (a) a direct fork-local
    // daemon and (b) a daemon behind the byte-splitting proxy: the
    // handshake and every task frame arrive fragmented, and the decoded
    // outcomes must still be byte-identical (frames are reassembled by
    // recvAll, never re-interpreted).
    ex::ProcTaskRegistration task(
        "test/proxy_value",
        [](uint64_t step, uint64_t shard, const std::string &req) {
            ex::WireReader r(req);
            uint64_t payload = r.getU64();
            ex::WireWriter w;
            w.putDouble(static_cast<double>(step * 1000 + shard * 10) +
                        static_cast<double>(payload) * 0.5);
            return w.take();
        });

    auto runOnce = [&](const std::string &workers) {
        ex::RemotePoolConfig cfg;
        cfg.endpoints = ex::parseWorkerList(workers);
        cfg.requiredTasks = {"test/proxy_value"};
        ex::RemotePool pool(cfg);
        ex::ThreadPool lanes(pool.size());
        ex::ShardRunner runner(lanes, ex::ShardRunnerConfig{4, 3, 0.0},
                               nullptr, &pool);
        Rng parent(17);
        std::vector<Rng> rngs = ex::ThreadPool::splitRngs(parent, 4);
        std::vector<double> out(4, 0.0);
        std::vector<uint64_t> draws(4, 0);
        ex::ProcShardTask t;
        t.name = "test/proxy_value";
        t.encode = [&](size_t s) {
            draws[s] = rngs[s].next64() % 100;
            ex::WireWriter w;
            w.putU64(draws[s]);
            return w.take();
        };
        t.decode = [&](size_t s, const std::string &resp) {
            ex::WireReader r(resp);
            out[s] = r.getDouble();
        };
        auto report = runner.runStep(3, t);
        for (const auto &shard : report.shards)
            EXPECT_EQ(shard.state, ex::ShardState::Ok);
        return std::make_pair(out, draws);
    };

    // Direct (unthrottled) reference.
    auto [ref, refDraws] = runOnce("local");

    // Proxied run: spawn the daemon ourselves so the proxy has a fixed
    // target, then point the pool at the proxy's port.
    ex::LocalDaemon daemon = ex::spawnLocalWorkerDaemon();
    ASSERT_GT(daemon.pid, 0);
    ByteSplitProxy proxy = spawnByteSplitProxy(daemon.port, 99);
    ASSERT_GT(proxy.pid, 0);
    auto [throttled, throttledDraws] =
        runOnce("127.0.0.1:" + std::to_string(proxy.port));

    EXPECT_EQ(throttledDraws, refDraws);
    for (size_t s = 0; s < 4; ++s)
        EXPECT_TRUE(sameBits(throttled[s], ref[s])) << "shard " << s;

    ::kill(proxy.pid, SIGKILL);
    ::waitpid(proxy.pid, nullptr, 0);
    ::kill(daemon.pid, SIGKILL);
    ::waitpid(daemon.pid, nullptr, 0);
}

// --------------------------------------------- environment contracts

TEST(WorkersFlag, EnvironmentDefaultAndFatalOnMalformed)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    unsetenv("H2O_WORKERS");
    EXPECT_EQ(h2o::common::workersFlagDefault(), "");
    setenv("H2O_WORKERS", "local", 1);
    EXPECT_EQ(h2o::common::workersFlagDefault(), "local");
    setenv("H2O_WORKERS", "nas-worker-7:9123,local,10.0.0.2:65535", 1);
    EXPECT_EQ(h2o::common::workersFlagDefault(),
              "nas-worker-7:9123,local,10.0.0.2:65535");

    // Like H2O_PROCS (and unlike H2O_THREADS), malformed is FATAL:
    // silently dropping endpoints would silently shrink the fleet.
    for (const char *bad :
         {"hostonly", "host:", ":9123", "host:0", "host:70000",
          "host:91x3", "local,", "a:1,,b:2"}) {
        setenv("H2O_WORKERS", bad, 1);
        EXPECT_EXIT((void)h2o::common::workersFlagDefault(),
                    testing::ExitedWithCode(1), "malformed H2O_WORKERS")
            << "value: " << bad;
    }
    unsetenv("H2O_WORKERS");

    h2o::common::Flags flags;
    h2o::common::defineWorkersFlag(flags);
    EXPECT_EQ(flags.getString("workers"), "");
}

TEST(WorkersFlag, ThreadsEnvWarnsAndFallsBackUnlikeWorkers)
{
    // The contrasting half of the env contract, pinned here so the
    // asymmetry is load-bearing: H2O_THREADS is a sizing hint (warn +
    // fall back to auto), H2O_WORKERS/H2O_PROCS are fleet specs (fatal).
    setenv("H2O_THREADS", "4", 1);
    EXPECT_EQ(h2o::common::threadsFlagDefault(), 4);

    setenv("H2O_THREADS", "not-a-number", 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(h2o::common::threadsFlagDefault(), 0);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("malformed H2O_THREADS"), std::string::npos) << err;

    setenv("H2O_THREADS", "-3", 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(h2o::common::threadsFlagDefault(), 0);
    err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("malformed H2O_THREADS"), std::string::npos) << err;
    unsetenv("H2O_THREADS");
}

TEST(WorkersFlag, ParseWorkerListSyntaxAndFatalPaths)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_TRUE(ex::parseWorkerList("").empty());

    auto list = ex::parseWorkerList("nas-host:9123,local,127.0.0.1:65535");
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[0].host, "nas-host");
    EXPECT_EQ(list[0].port, 9123);
    EXPECT_FALSE(list[0].forkLocal);
    EXPECT_EQ(list[0].str(), "nas-host:9123");
    EXPECT_TRUE(list[1].forkLocal);
    EXPECT_EQ(list[1].str(), "local");
    EXPECT_EQ(list[2].port, 65535);

    for (const char *bad : {"hostonly", "host:", ":9123", "host:0",
                            "host:65536", "host:9x", ",", "local,,local"}) {
        EXPECT_EXIT((void)ex::parseWorkerList(bad),
                    testing::ExitedWithCode(1), "malformed worker entry")
            << "value: " << bad;
    }
}

// ------------------------------- search-level bitwise transport matrix

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

/** Pure per-candidate signals: they ship into forked workers AND
 *  fork-local daemon sessions, so they must be pure. */
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

sr::SurrogateSearchConfig
surrogateConfig(size_t procs, const std::string &workers, size_t threads)
{
    sr::SurrogateSearchConfig cfg;
    cfg.numSteps = 8;
    cfg.samplesPerStep = 4;
    cfg.threads = threads;
    cfg.procs = procs;
    cfg.workers = workers;
    cfg.retryBackoffMs = 0.0;
    return cfg;
}

sr::SearchOutcome
runSurrogate(size_t procs, const std::string &workers, size_t threads)
{
    ss::DlrmSearchSpace space(searchDlrm());
    rw::ReluReward reward({{"flops", 2.0, -0.5}});
    sr::SurrogateSearch search(
        space.decisions(),
        [&](const ss::Sample &s) { return pureQuality(space, s); },
        sr::PerfFn([&](const ss::Sample &s) { return purePerf(space, s); }),
        reward, surrogateConfig(procs, workers, threads));
    Rng rng(5);
    return search.run(rng);
}

sr::SearchOutcome
runH2o(size_t procs, const std::string &workers)
{
    DlrmFixture f;
    rw::ReluReward reward({{"flops", 2.0, -0.5}});
    sr::H2oSearchConfig cfg;
    cfg.numShards = 4;
    cfg.numSteps = 6;
    cfg.warmupSteps = 2;
    cfg.threads = 1;
    cfg.procs = procs;
    cfg.workers = workers;
    sr::H2oDlrmSearch search(
        f.space, f.net, *f.pipe,
        sr::DlrmPerfFn(
            [&](const ss::Sample &s) { return purePerf(f.space, s); }),
        reward, cfg);
    Rng rng(32);
    return search.run(rng);
}

sr::SearchOutcome
runTunas(size_t procs, const std::string &workers)
{
    DlrmFixture f;
    rw::ReluReward reward({{"flops", 2.0, -0.5}});
    sr::TunasSearchConfig cfg;
    cfg.numIterations = 6;
    cfg.warmupSteps = 2;
    cfg.procs = procs;
    cfg.workers = workers;
    sr::TunasSearch search(
        f.space, f.net, *f.pipe,
        sr::PerfFn(
            [&](const ss::Sample &s) { return purePerf(f.space, s); }),
        reward, cfg);
    Rng rng(33);
    return search.run(rng);
}

} // namespace

TEST(RemoteSearch, SurrogateBitwiseAcrossTransportMixes)
{
    SKIP_WITHOUT_LOOPBACK();
    // The tentpole acceptance matrix: threads-only reference vs remote
    // workers vs forked+remote mixed pools — every cell byte-identical.
    auto ref = runSurrogate(0, "", 1);
    expectIdenticalOutcomes(ref, runSurrogate(0, "local", 1));
    expectIdenticalOutcomes(ref, runSurrogate(0, "local,local", 1));
    expectIdenticalOutcomes(ref, runSurrogate(1, "local", 1)); // mixed
    expectIdenticalOutcomes(ref, runSurrogate(2, "local,local", 2));
}

TEST(RemoteSearch, H2oSupernetBitwiseWithRemoteWorkers)
{
    SKIP_WITHOUT_LOOPBACK();
    auto ref = runH2o(0, "");
    expectIdenticalOutcomes(ref, runH2o(0, "local"));
    expectIdenticalOutcomes(ref, runH2o(1, "local")); // mixed pool
}

TEST(RemoteSearch, TunasBitwiseWithRemoteWorkers)
{
    SKIP_WITHOUT_LOOPBACK();
    auto ref = runTunas(0, "");
    expectIdenticalOutcomes(ref, runTunas(0, "local"));
    // Mixed pool around TuNAS's single shard: the extra slot idles.
    expectIdenticalOutcomes(ref, runTunas(1, "local"));
}

TEST(RemoteSearch, SessionKilledMidRunRecoversByteIdentically)
{
    SKIP_WITHOUT_LOOPBACK();
    // Threads-only reference, then the same search over two fork-local
    // daemons with a daemon SESSION SIGKILLed mid-run: the lost
    // connection must be re-established (reconnect-as-respawn) and the
    // cached request bytes resent, leaving the outcome byte-identical.
    auto ref = runSurrogate(0, "", 1);

    ss::DlrmSearchSpace space(searchDlrm());
    rw::ReluReward reward({{"flops", 2.0, -0.5}});
    sr::SurrogateSearch search(
        space.decisions(),
        [&](const ss::Sample &s) { return pureQuality(space, s); },
        sr::PerfFn([&](const ss::Sample &s) { return purePerf(space, s); }),
        reward, surrogateConfig(0, "local,local", 1));
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
    EXPECT_EQ(stats.totalRespawns(), 1u); // >= 1 reconnect recorded
    EXPECT_GT(stats.totalTasksServed(), 0u);
    EXPECT_GT(stats.totalBytes(), 0u);

    // The reconnect and the TCP endpoints surface in the telemetry CSV.
    std::ostringstream csv;
    sr::writeTransportStatsCsv(stats, csv);
    EXPECT_NE(csv.str().find(",local/127.0.0.1:"), std::string::npos)
        << csv.str();
}

TEST(RemoteSearch, CheckpointBytesIdenticalAcrossTransports)
{
    SKIP_WITHOUT_LOOPBACK();
    // Checkpoints capture algorithm state only — never the fleet shape —
    // so a threads-only stepper and a remote-worker stepper paused at
    // the same step must save the SAME bytes, and a checkpoint taken
    // over TCP must resume on threads to the reference outcome.
    auto ref = runSurrogate(0, "", 1);

    ss::DlrmSearchSpace space(searchDlrm());
    rw::ReluReward reward({{"flops", 2.0, -0.5}});
    auto makeSearch = [&](size_t procs, const std::string &workers) {
        return std::make_unique<sr::SurrogateSearch>(
            space.decisions(),
            [&space](const ss::Sample &s) {
                return pureQuality(space, s);
            },
            sr::PerfFn([&space](const ss::Sample &s) {
                return purePerf(space, s);
            }),
            reward, surrogateConfig(procs, workers, 1));
    };

    auto threadsSearch = makeSearch(0, "");
    auto remoteSearch = makeSearch(0, "local");
    Rng rngA(5), rngB(5);
    auto a = threadsSearch->makeStepper(rngA);
    auto b = remoteSearch->makeStepper(rngB);
    for (int i = 0; i < 4; ++i) {
        a->step();
        b->step();
    }
    std::ostringstream savedA, savedB;
    a->save(savedA);
    b->save(savedB);
    EXPECT_EQ(savedA.str(), savedB.str());

    // Resume the TCP-side checkpoint on the thread path.
    auto resumedSearch = makeSearch(0, "");
    Rng rngC(999); // overwritten by load()
    auto c = resumedSearch->makeStepper(rngC);
    std::istringstream in(savedB.str());
    c->load(in);
    EXPECT_EQ(c->stepIndex(), 4u);
    while (!c->done())
        c->step();
    expectIdenticalOutcomes(ref, c->finish());
}
