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
 * Deterministic fault oracle consulted by ShardRunner before every shard
 * attempt. decide() is const and thread-safe; the counters record what
 * was actually injected.
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

} // namespace h2o::exec

#endif // H2O_EXEC_FAULT_INJECTOR_H
