/**
 * @file
 * exec::RunOptions — the fleet and fault-tolerance options every search
 * configuration shares with eval::EvalEngineConfig.
 *
 * Declared once here; SurrogateSearchConfig, H2oSearchConfig,
 * TunasSearchConfig and EvalEngineConfig derive from it, so each
 * searcher hands its options to the engine in one assignment. None of
 * these options changes a result: every fleet shape and retry policy
 * produces byte-identical outcomes at the same seed (faults change
 * which shards survive, never the value of a surviving one).
 */

#ifndef H2O_EXEC_RUN_OPTIONS_H
#define H2O_EXEC_RUN_OPTIONS_H

#include <cstddef>
#include <string>

namespace h2o::exec {

class FaultInjector;

/** Shard-stage fleet and retry policy (see the file comment). */
struct RunOptions
{
    /**
     * Worker PROCESSES for the shard stage (ProcPool behind
     * ShardRunner). 0 keeps the shard stage in-process on threads; >= 1
     * forks that many workers (clamped to the shard count) that run
     * each shard's pure per-candidate work, while draws, fault
     * decisions, batched stages and aggregation stay coordinator-side.
     */
    size_t procs = 0;
    /**
     * Remote worker daemons for the shard stage, as a comma-separated
     * endpoint list ("host:port" for an external daemon running the
     * same binary, "local" to fork a loopback daemon) — see
     * parseWorkerList. Empty = none. Combines with `procs` into one
     * MIXED pool, forked slots first, remote slots after; each slot's
     * lane claims the step's shards from a shared cursor.
     */
    std::string workers;
    /** Optional fault oracle (preemptible-fleet emulation); not owned. */
    FaultInjector *faults = nullptr;
    /** Max attempts per shard per step before it is dropped (>= 1). */
    size_t maxShardAttempts = 3;
    /** Exponential retry backoff base, in milliseconds. */
    double retryBackoffMs = 0.5;
};

} // namespace h2o::exec

#endif // H2O_EXEC_RUN_OPTIONS_H
