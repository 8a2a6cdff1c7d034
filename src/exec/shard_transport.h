/**
 * @file
 * ShardTransport: the unified coordinator-side interface over worker
 * transports — forked local processes (ProcPool), remote TCP worker
 * daemons (RemotePool), or a mix of both (MixedTransport).
 *
 * ShardRunner drives one search step across whatever implements this
 * interface; because worker tasks are PURE functions of their request
 * bytes (see proc_transport.h), any transport — and any mix of
 * transports — produces byte-identical results to evaluating the same
 * tasks in the coordinator. The interface therefore only has to expose
 * the fault contract the runner builds retries on:
 *
 *  - call() returns std::nullopt on a TRANSPORT failure (the worker
 *    died: EOF, EPIPE, ECONNRESET, recv timeout). The slot is dead
 *    until respawnDead().
 *  - call() throws std::runtime_error when the task itself threw in
 *    the worker — an application error; the worker keeps serving.
 *  - respawnDead() restores every dead slot from CURRENT coordinator
 *    state: a fresh fork for process slots, a fresh connection (to a
 *    fresh daemon session) for remote slots. Reconnect IS respawn.
 */

#ifndef H2O_EXEC_SHARD_TRANSPORT_H
#define H2O_EXEC_SHARD_TRANSPORT_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

namespace h2o::exec {

/** Coordinator-side per-worker transport counters. */
struct ProcWorkerStats
{
    uint64_t pid = 0;          ///< current (or last) worker pid; for a
                               ///< remote slot, the daemon SESSION pid
                               ///< reported in the handshake
    bool alive = false;
    uint64_t tasksServed = 0;  ///< completed request/response round trips
    uint64_t respawns = 0;     ///< re-forks / reconnects after a death
    uint64_t bytesSent = 0;    ///< request bytes over the transport
    uint64_t bytesReceived = 0;///< response bytes over the transport
    /** Where the slot's worker runs: "fork" for a forked local process,
     *  "host:port" for a remote daemon ("local/host:port" when the
     *  daemon was forked by the coordinator for loopback testing). */
    std::string endpoint = "fork";
};

/** Pool-wide snapshot (one entry per worker slot). */
struct ProcPoolStats
{
    std::vector<ProcWorkerStats> workers;

    uint64_t totalTasksServed() const;
    uint64_t totalRespawns() const;
    uint64_t totalBytes() const; ///< sent + received, all workers
};

/** The unified worker-transport interface (see file comment). */
class ShardTransport
{
  public:
    virtual ~ShardTransport() = default;

    /** Worker slot count. */
    virtual size_t size() const = 0;

    /**
     * Execute one task round trip on a worker slot. Returns the
     * response on success; std::nullopt on a transport failure (the
     * slot is dead until respawnDead()). A task that THREW in the
     * worker raises std::runtime_error here, mirroring a thrown shard
     * body in the thread runtime.
     *
     * Thread-safety: call() may run concurrently for DIFFERENT slots
     * (one I/O lane per slot is the intended shape); calls for the
     * same slot must be serialized by the caller.
     */
    virtual std::optional<std::string> call(size_t worker,
                                            const std::string &task,
                                            uint64_t step, uint64_t shard,
                                            const std::string &request) = 0;

    /** Whether the slot's worker is (believed) alive. */
    virtual bool alive(size_t worker) const = 0;

    /** Restore every dead slot from CURRENT coordinator state (re-fork
     *  or reconnect). Coordinator thread only; a slot that cannot be
     *  restored (unreachable daemon) simply stays dead. */
    virtual void respawnDead() = 0;

    /** SIGKILL a slot's worker (test/bench hook for the
     *  death-tolerance contract); the death is observed as a transport
     *  failure on the slot's next call. Remote slots kill the daemon
     *  SESSION process by pid, so the hook only reaches workers on
     *  this host. */
    virtual void killWorker(size_t worker) = 0;

    /** Current worker pid of a slot (0 when dead); for remote slots
     *  the daemon session pid from the handshake. */
    virtual pid_t workerPid(size_t worker) const = 0;

    /** Counter snapshot. */
    virtual ProcPoolStats stats() const = 0;
};

/**
 * Concatenation of several transports into one slot space — the mixed
 * pool (some shards on forked workers, some on remote daemons). Slot
 * order is the concatenation order; purity of worker tasks makes the
 * composition byte-identical to any other arrangement of the same
 * shard count.
 */
class MixedTransport final : public ShardTransport
{
  public:
    /** At least one part; parts are owned. */
    explicit MixedTransport(
        std::vector<std::unique_ptr<ShardTransport>> parts);

    size_t size() const override { return _size; }
    std::optional<std::string> call(size_t worker, const std::string &task,
                                    uint64_t step, uint64_t shard,
                                    const std::string &request) override;
    bool alive(size_t worker) const override;
    void respawnDead() override;
    void killWorker(size_t worker) override;
    pid_t workerPid(size_t worker) const override;
    ProcPoolStats stats() const override;

  private:
    /** Map a global slot to (part, local slot). */
    std::pair<ShardTransport *, size_t> route(size_t slot) const;

    std::vector<std::unique_ptr<ShardTransport>> _parts;
    size_t _size = 0;
};

} // namespace h2o::exec

#endif // H2O_EXEC_SHARD_TRANSPORT_H
