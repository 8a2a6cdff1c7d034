/**
 * @file
 * Process-level shard transport: a pool of forked worker processes
 * executing registered PURE tasks over UNIX-domain socket pairs.
 *
 * The thread runtime (thread_pool.h / shard_runner.h) tops out at one
 * process's threads; the paper runs 128 accelerator shards. ProcPool is
 * the scale-out step: fork-per-worker with a length-framed
 * request/response protocol over socketpair(AF_UNIX, SOCK_STREAM).
 * Each worker inherits the coordinator's address space at fork time and
 * then only ever executes tasks from the process-global task registry —
 * pure functions of their request bytes (plus state that existed before
 * the fork and never mutates), so a worker's answer is bit-identical to
 * evaluating the same task in the coordinator. That purity is what lets
 * the search keep its determinism contract across process boundaries:
 * k workers, 1 worker and no workers all produce the same bytes.
 *
 * Fault model: a worker can die at any moment (kill -9, OOM, crash in a
 * task). The coordinator detects death as a transport error on the
 * worker's socket (EPIPE on send, EOF on recv), never blocks on a
 * corpse, and can respawn the worker with respawnDead() — a fresh fork
 * of the CURRENT coordinator state. In-flight requests on a dead worker
 * are simply lost; the caller (ShardRunner) owns retry/degradation
 * policy, mirroring the FaultInjector semantics of the thread runtime.
 *
 * Registration order matters: workers only know the tasks registered
 * BEFORE they were forked. Owners therefore register their task, then
 * construct their ProcPool (EvalEngine does exactly this).
 */

#ifndef H2O_EXEC_PROC_TRANSPORT_H
#define H2O_EXEC_PROC_TRANSPORT_H

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <sys/types.h>
#include <vector>

#include "exec/shard_transport.h"

namespace h2o::exec {

/**
 * A worker-side task: pure function of (step, shard, request bytes).
 * Runs inside the forked worker; may read any state that existed at
 * fork time but must not rely on coordinator-side mutations after it.
 * Throwing reports a task error to the coordinator (which treats it
 * like a thrown shard body: warn + retry).
 */
using ProcTaskFn = std::function<std::string(
    uint64_t step, uint64_t shard, const std::string &request)>;

/**
 * RAII registration of a named task in the process-global registry.
 * The name must be unique among live registrations; the registration
 * must outlive every ProcPool forked while it was registered (workers
 * resolve the name in their inherited copy of the registry).
 */
class ProcTaskRegistration
{
  public:
    ProcTaskRegistration(std::string name, ProcTaskFn fn);
    ~ProcTaskRegistration();
    ProcTaskRegistration(const ProcTaskRegistration &) = delete;
    ProcTaskRegistration &operator=(const ProcTaskRegistration &) = delete;

    const std::string &name() const { return _name; }

  private:
    std::string _name;
};

/** Locked copy of the process-global task registry (the tasks a worker
 *  forked or a daemon spawned RIGHT NOW would serve). */
std::map<std::string, ProcTaskFn> taskRegistrySnapshot();

/** Sorted names of the currently registered tasks. */
std::vector<std::string> registeredTaskNames();

/**
 * Fill the fork-time registry snapshot under the registry lock. Call
 * immediately before fork()ing a worker or daemon: the child resolves
 * tasks from forkTaskSnapshot() and never touches the registry mutex —
 * another coordinator thread could hold it at fork time, and a
 * copied-held mutex deadlocks the single-threaded child.
 */
void snapshotTaskRegistryForFork();

/** The fork-time snapshot (child side, lock-free). */
const std::map<std::string, ProcTaskFn> &forkTaskSnapshot();

/** Little-endian wire encoding for task payloads (bit-exact doubles). */
class WireWriter
{
  public:
    void putU32(uint32_t v);
    void putU64(uint64_t v);
    /** IEEE-754 bits, so doubles round-trip exactly (incl. -0.0/NaN). */
    void putDouble(double v);
    void putBytes(const std::string &bytes); ///< u32 length + raw bytes

    const std::string &bytes() const { return _buf; }
    std::string take() { return std::move(_buf); }

  private:
    std::string _buf;
};

/** Strict reader over WireWriter output; throws std::runtime_error on
 *  truncated/malformed input (a worker turns that into a task error). */
class WireReader
{
  public:
    explicit WireReader(const std::string &bytes) : _buf(bytes) {}

    uint32_t getU32();
    uint64_t getU64();
    double getDouble();
    std::string getBytes();

    /** All bytes consumed? */
    bool atEnd() const { return _pos == _buf.size(); }

  private:
    void need(size_t n) const;

    const std::string &_buf;
    size_t _pos = 0;
};

/**
 * A fixed-size pool of forked worker processes (see file comment).
 * ProcWorkerStats / ProcPoolStats live in shard_transport.h, shared
 * with the remote transport.
 *
 * Thread-safety: call() may run concurrently for DIFFERENT worker
 * slots (one I/O thread per worker is the intended shape); calls for
 * the same slot must be serialized by the caller. spawn/respawn/dtor
 * are coordinator-thread only.
 */
class ProcPool final : public ShardTransport
{
  public:
    /** Fork `workers` processes (>= 1). */
    explicit ProcPool(size_t workers);

    /** Closes every socket (workers exit on EOF) and reaps them. */
    ~ProcPool() override;

    ProcPool(const ProcPool &) = delete;
    ProcPool &operator=(const ProcPool &) = delete;

    /** Worker slot count. */
    size_t size() const override { return _workers.size(); }

    /**
     * Execute one task round trip on a worker. Returns the response on
     * success; std::nullopt on a transport failure (worker died — the
     * slot is marked dead until respawnDead()). A task that THREW in
     * the worker raises std::runtime_error here, mirroring a thrown
     * shard body in the thread runtime.
     */
    std::optional<std::string> call(size_t worker,
                                    const std::string &task,
                                    uint64_t step, uint64_t shard,
                                    const std::string &request) override;

    /** Whether the slot's worker is (believed) alive. */
    bool alive(size_t worker) const override;

    /** Re-fork every dead worker slot from the CURRENT coordinator
     *  state. Coordinator thread only (never from an I/O thread). */
    void respawnDead() override;

    /** SIGKILL a worker (test/bench hook for the death-tolerance
     *  contract); the death is observed as a transport failure. */
    void killWorker(size_t worker) override;

    /** Current pid of a worker slot (0 when dead). */
    pid_t workerPid(size_t worker) const override;

    /** Counter snapshot. */
    ProcPoolStats stats() const override;

    /** Resolve a --procs style request against a shard count: procs
     *  are clamped to [1, work_items] like ThreadPool::resolve (a step
     *  never needs more workers than it has shards). */
    static size_t resolve(size_t requested, size_t work_items);

  private:
    struct Worker
    {
        pid_t pid = -1;
        int fd = -1; ///< coordinator end of the socketpair
        ProcWorkerStats stats;
    };

    void spawn(size_t slot);
    void markDead(size_t slot);
    [[noreturn]] static void workerMain(int fd);

    std::vector<Worker> _workers;
};

} // namespace h2o::exec

#endif // H2O_EXEC_PROC_TRANSPORT_H
