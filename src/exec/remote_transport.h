/**
 * @file
 * RemotePool: the TCP shard transport — one slot per remote worker
 * daemon connection, driving the SAME wire protocol as ProcPool
 * (wire_io.h), so the coordinator's frames are byte-identical whether a
 * shard runs in a forked child or on another host.
 *
 * Determinism across the host boundary rests on three pieces:
 *
 *  1. The handshake (magic, protocol version, task-registry digest)
 *     rejects mismatched binaries before any task traffic — a daemon
 *     built from different code fails FAST instead of answering with
 *     subtly different bytes.
 *  2. Reconnect-as-respawn: a lost connection (EOF, ECONNRESET, recv
 *     timeout) marks the slot dead exactly like a dead forked worker;
 *     respawnDead() reconnects, and the daemon forks a fresh
 *     single-threaded session for the new connection. Pure tasks make
 *     the fresh session byte-equivalent to a fresh fork.
 *  3. Cached-request retries (owned by ShardRunner): a shard whose
 *     transport died is retried with the SAME request bytes, so
 *     per-shard RNG streams never advance twice.
 *
 * Endpoint syntax ("--workers"): a comma-separated list of
 *   host:port — an external h2o_workerd-style daemon (same binary!)
 *   local     — fork a loopback daemon from THIS process at pool
 *               construction (same binary by construction); how the
 *               TCP path runs on a single host and in tests.
 */

#ifndef H2O_EXEC_REMOTE_TRANSPORT_H
#define H2O_EXEC_REMOTE_TRANSPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "exec/shard_transport.h"

namespace h2o::exec {

/** One remote worker endpoint. */
struct RemoteEndpoint
{
    std::string host;     ///< empty when forkLocal
    uint16_t port = 0;    ///< 0 when forkLocal (resolved at spawn)
    bool forkLocal = false;

    /** "host:port", or "local" for a fork-on-construction daemon. */
    std::string str() const;
};

/**
 * Parse a --workers / H2O_WORKERS list: comma-separated "host:port" or
 * "local" entries. Malformed input is FATAL (like H2O_PROCS — a wrong
 * fleet spec must never silently degrade to fewer workers). An empty
 * string parses to an empty list.
 */
std::vector<RemoteEndpoint> parseWorkerList(const std::string &csv);

struct RemotePoolConfig
{
    std::vector<RemoteEndpoint> endpoints; ///< one slot each; nonempty

    /** Task names this coordinator will call; verified (and digested)
     *  in the handshake so mismatched daemons fail fast. */
    std::vector<std::string> requiredTasks;

    /** Per-call receive timeout; 0 = wait forever. A timeout is a
     *  transport death (slot dead, shard retried elsewhere/later). */
    long callTimeoutMs = 0;

    /** Connection attempts per (re)connect, with linear backoff. */
    size_t connectAttempts = 10;
    long connectBackoffMs = 50;
};

/**
 * A fixed-size pool of TCP connections to worker daemons (see file
 * comment). Construction connects and handshakes every slot; an
 * endpoint that stays unreachable through the connect retries is fatal
 * (a mis-specified fleet should not quietly shrink), and a handshake
 * MISMATCH (version/digest/missing task) is always fatal. AFTER
 * construction, a lost slot only degrades: respawnDead() tries to
 * reconnect and a still-dead slot just keeps its shards retrying.
 *
 * Thread-safety: same contract as ProcPool — call() concurrently only
 * for different slots; respawnDead()/dtor on the coordinator thread.
 */
class RemotePool final : public ShardTransport
{
  public:
    explicit RemotePool(RemotePoolConfig config);

    /** Closes connections; SIGKILLs fork-local daemons and reaps them. */
    ~RemotePool() override;

    RemotePool(const RemotePool &) = delete;
    RemotePool &operator=(const RemotePool &) = delete;

    size_t size() const override { return _slots.size(); }
    std::optional<std::string> call(size_t worker, const std::string &task,
                                    uint64_t step, uint64_t shard,
                                    const std::string &request) override;
    bool alive(size_t worker) const override;
    void respawnDead() override;

    /** SIGKILL the slot's daemon SESSION process (pid from the
     *  handshake) — only meaningful when the daemon runs on this host
     *  (the "local" endpoints); the kill-tolerance test hook. */
    void killWorker(size_t worker) override;

    pid_t workerPid(size_t worker) const override;
    ProcPoolStats stats() const override;

    /** SIGKILL the slot's daemon PARENT process (fork-local slots
     *  only): the harsher failure where reconnecting needs a whole new
     *  daemon, which respawnDead() re-forks. */
    void killDaemon(size_t worker);

    /** Daemon parent pid of a fork-local slot (0 otherwise). */
    pid_t daemonPid(size_t worker) const;

  private:
    struct Slot
    {
        RemoteEndpoint endpoint;
        int fd = -1;
        pid_t sessionPid = 0; ///< daemon session serving this connection
        pid_t daemonPid = 0;  ///< fork-local daemon parent (else 0)
        uint16_t port = 0;    ///< resolved port (fork-local endpoints)
        ProcWorkerStats stats;
    };

    /** True if the fork-local daemon parent of `slot` still runs
     *  (reaps it when it exited). */
    bool localDaemonAlive(Slot &slot);

    /** Kill and reap the fork-local daemon of `slot` (if any), then
     *  fork a fresh one on a fresh port. */
    void reforkLocalDaemon(Slot &slot);

    /** Connect + handshake one slot. `initial` failures are fatal;
     *  later ones return false (slot stays dead). */
    bool connectSlot(size_t slot, bool initial);

    void markDead(size_t slot);

    RemotePoolConfig _config;
    std::vector<Slot> _slots;
};

} // namespace h2o::exec

#endif // H2O_EXEC_REMOTE_TRANSPORT_H
