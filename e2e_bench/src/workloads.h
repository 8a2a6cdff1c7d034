/**
 * @file
 * The benchmark's four workloads. Each puts a different layer of the
 * program in charge of the run:
 *
 *  - perfmodel_two_phase: the Table 1 path (label, pretrain, fine-tune,
 *    evaluate the MLP performance model) — nn/perfmodel fitting.
 *  - h2o_supernet: the unified single-step search on the flagship DLRM
 *    super-network — supernet forward/backward and the pipeline.
 *  - multitarget_cold: a joint three-chip surrogate search from an empty
 *    SimCache — lowering, simulator passes and the cache's cold fill.
 *  - serve_mix: a closed loop of tenants on serve::Server — scheduler
 *    rounds, per-job set-up and the shared cache's hit path.
 *
 * Constructing a workload is its set-up. round() runs one round: one
 * whole job (a training, a search) or, for serve_mix, one closed-loop
 * batch of jobs on a fresh server. Every round does the same amount of
 * work on inputs from its own seed, so its time is one sample of the
 * same measurement.
 */

#ifndef H2O_E2E_WORKLOADS_H
#define H2O_E2E_WORKLOADS_H

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"

namespace h2o::e2e {

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Run one round on the inputs `seed` makes. A traced round records
     *  spans and layer counters. */
    virtual void round(uint64_t seed, bool traced) = 0;

    /** Correctness checks over the last round's outputs. */
    virtual Failures check() = 0;

    /** Jobs one round runs (the operations the run attempts). */
    virtual uint64_t jobsPerRound() const = 0;

    /** Jobs of the last round that did not finish. */
    virtual uint64_t failedLastRound() const { return 0; }

    /** Candidate architectures one round scores. */
    virtual uint64_t candidatesPerRound() const = 0;

    /** Per-job latencies of each untraced round, in seconds; empty when
     *  a round is a single job (its latency is the round time). */
    virtual std::vector<std::vector<double>> roundLatencies() const
    {
        return {};
    }

    /** Per-layer metrics over the traced rounds (only the ones this
     *  workload exercises; the rest are reported as 0). */
    virtual Metrics layerMetrics() = 0;
};

/** Set up a workload by name; null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const Options &opts);

/** Set up a workload, run one untraced round and return the evidence
 *  its check reads (the benchmark's own tests corrupt copies of it). */
PerfmodelEvidence perfmodelEvidence(const Options &opts);
SupernetEvidence supernetEvidence(const Options &opts);
MultitargetEvidence multitargetEvidence(const Options &opts);
ServeEvidence serveEvidence(const Options &opts);

} // namespace h2o::e2e

#endif // H2O_E2E_WORKLOADS_H
