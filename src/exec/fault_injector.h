/**
 * @file
 * Seeded fault injection for the search runtime.
 *
 * The paper runs on a preemptible fleet of accelerators: shards fail,
 * straggle, and get preempted mid-search. The in-process reproduction has
 * none of those hazards naturally, so the runtime injects them — which is
 * strictly better for testing, because the faults are SEEDED: every
 * decision is a pure hash of (seed, step, shard, attempt), independent of
 * thread count and wall-clock timing, so a faulty run is exactly
 * reproducible.
 *
 * Fault taxonomy (matching a preemptible accelerator fleet):
 *  - Fail:     transient shard failure; the attempt's work is lost and
 *              the runner retries with exponential backoff.
 *  - Straggle: the shard completes, but late (injected delay).
 *  - Preempt:  the shard is lost for the whole step (the VM was taken
 *              back); no retry, the step aggregates over survivors.
 */

#ifndef H2O_EXEC_FAULT_INJECTOR_H
#define H2O_EXEC_FAULT_INJECTOR_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace h2o::exec {

/** What the injector decided for one (step, shard, attempt). */
enum class FaultKind { None, Fail, Straggle, Preempt };

/** Injection rates and seed. All probabilities are per decision. */
struct FaultConfig
{
    /** Transient failure probability per attempt. */
    double failProb = 0.0;
    /** Straggler probability per executed attempt. */
    double stragglerProb = 0.0;
    /** Injected straggler delay, in milliseconds. */
    double stragglerDelayMs = 1.0;
    /** Whole-step preemption probability per shard per step. */
    double preemptProb = 0.0;
    /** Seed of the injection stream. */
    uint64_t seed = 0;
};

/** Cumulative injection/observation counters (thread-safe). */
struct FaultStats
{
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> straggles{0};
    std::atomic<uint64_t> preemptions{0};
};

/**
 * Deterministic fault oracle consulted by the shard runners before every
 * shard attempt (through strikeAttempt). decide() is const and
 * thread-safe; the counters record what was actually injected.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultConfig config);

    /**
     * The fault, if any, striking this (step, shard, attempt). A pure
     * function of the config seed and the arguments. Preemption is only
     * decided on attempt 0 — a preempted shard never retries.
     */
    FaultKind decide(size_t step, size_t shard, size_t attempt) const;

    /** Record an injected fault (called by the runner). */
    void record(FaultKind kind);

    /** Injection counters so far. */
    const FaultStats &stats() const { return _stats; }

    /** Configuration in use. */
    const FaultConfig &config() const { return _config; }

  private:
    FaultConfig _config;
    FaultStats _stats;
};

/** What a runner does with a shard attempt once its fault has struck. */
enum class AttemptAction {
    Run,     ///< execute the shard body (after any straggle delay)
    Retry,   ///< the attempt failed: it is spent, try the next one
    Degrade, ///< preempted: the shard is lost for this step
};

/**
 * The fault-attempt policy of every shard runner (ShardRunner threads,
 * ProcRunner processes and daemons): decide the fault for (step, shard,
 * attempt) and record it; a Preempt degrades the shard; a Fail backs off
 * exponentially (backoffBaseMs * 2^attempt, skipped after the last
 * attempt) and retries; a Straggle sleeps stragglerDelayMs and runs.
 * Faults strike BEFORE the body, so a struck attempt has no side
 * effects. A null injector always runs.
 */
AttemptAction strikeAttempt(FaultInjector *injector, size_t step,
                            size_t shard, size_t attempt,
                            size_t maxAttempts, double backoffBaseMs);

} // namespace h2o::exec

#endif // H2O_EXEC_FAULT_INJECTOR_H
