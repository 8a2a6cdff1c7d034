/**
 * @file
 * Correctness checks of the benchmark's workloads. Each workload hands
 * its outputs to a check as an evidence struct; the check recomputes
 * what it can apart from the program (rewards from the paper's formula,
 * Pareto fronts by brute force, counts from the history) or tests a
 * property the method must have. The checks are pure functions of the
 * evidence, so the benchmark's own tests feed them corrupted copies and
 * expect a failure.
 */

#ifndef H2O_E2E_CHECKS_H
#define H2O_E2E_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "search/surrogate_search.h"
#include "serve/job.h"
#include "sim/simulator.h"

namespace h2o::e2e {

/** One ReLU objective: target T0 and (negative) penalty weight beta. */
struct ReluObjective
{
    double target = 1.0;
    double beta = -1.0;
};

/** Equation 1 of the paper: Q + sum_i beta_i * max(0, T_i / T0_i - 1). */
double reluReward(double quality, const std::vector<double> &performance,
                  const std::vector<ReluObjective> &objectives);

/** Joint multi-target reward: min over targets c of
 *  Q + beta_c * max(0, T_c / T0_c - 1). */
double minReluReward(double quality, const std::vector<double> &performance,
                     const std::vector<ReluObjective> &objectives);

/** A simulated value the program produced next to the value an uncached
 *  Simulator::run gives for the same candidate. */
struct SimComparison
{
    double program = 0.0;
    double reference = 0.0;
};

/** An uncached simulation of one graph on one chip. */
struct BoundSample
{
    std::string chip;
    double peakTensorFlops = 0.0;
    sim::SimResult result;
};

/** Outputs of one perfmodel_two_phase round; the NRMSEs are averaged
 *  over the run's first rounds. */
struct PerfmodelEvidence
{
    double pretrainedNrmse = 0.0; ///< vs the hardware oracle
    double finetunedNrmse = 0.0;  ///< same oracle sets
    double nrmseCeiling = 0.0;
    std::vector<SimComparison> labels;
    std::vector<BoundSample> bounds;
};

/** Outputs of one h2o_supernet round (a whole search). */
struct SupernetEvidence
{
    std::vector<search::CandidateRecord> history;
    std::vector<ReluObjective> objectives;
    std::vector<SimComparison> stepTimes;
    uint64_t batchesIssued = 0;
    uint64_t examplesIssued = 0;
    uint64_t completeLeases = 0;
    uint64_t alphaOnlyLeases = 0;
    size_t shards = 0;
    size_t steps = 0;
    size_t warmupSteps = 0;
    size_t batchSize = 0;
    /** Training loss of each step, averaged over the run's first rounds. */
    std::vector<double> stepLosses;
};

/** Outputs of one multitarget_cold round (a whole cold search). */
struct MultitargetEvidence
{
    std::vector<search::CandidateRecord> history;
    std::vector<search::TargetFront> fronts;
    std::vector<ReluObjective> objectives; ///< one per chip
    uint64_t hits = 0;
    uint64_t misses = 0;
    /** Distinct (candidate, chip) pairs the benchmark counted itself. */
    uint64_t distinctPairs = 0;
};

/** One served job's outputs, plus a standalone rerun for probes. */
struct ServedJob
{
    serve::JobSpec spec;
    bool done = false;
    serve::JobResult result;
    bool probed = false;
    serve::JobResult standalone;
};

/** Outputs of one serve_mix round. */
struct ServeEvidence
{
    std::vector<ServedJob> jobs;
};

Failures checkPerfmodel(const PerfmodelEvidence &ev);
Failures checkSupernet(const SupernetEvidence &ev);
Failures checkMultitarget(const MultitargetEvidence &ev);
Failures checkServe(const ServeEvidence &ev);

} // namespace h2o::e2e

#endif // H2O_E2E_CHECKS_H
