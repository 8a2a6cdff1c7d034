/**
 * @file
 * The ML performance simulator.
 *
 * Reimplements the role of the paper's in-house simulator (Section 6.2.3):
 * given a cost-annotated op graph and a target chip, it runs the compiler
 * passes (fusion, on-chip memory placement), times every op against the
 * chip's subsystems, and walks the DAG to produce the execution time plus
 * the per-subsystem counters (FLOPS, HBM/CMEM traffic, network time,
 * power, energy) that the benchmarks and the reward function consume.
 *
 * Step time combines two constraints:
 *  - resource serialization: each hardware resource can only do so much
 *    work per step (sum of busy time per resource), and
 *  - dependency chains: the DAG longest path over op latencies.
 * Parallel branches (e.g. DLRM's embedding column vs its bottom MLP)
 * overlap, giving the paper's MAX(embedding time, MLP time) behavior.
 */

#ifndef H2O_SIM_SIMULATOR_H
#define H2O_SIM_SIMULATOR_H

#include <span>
#include <vector>

#include "hw/chip.h"
#include "hw/power.h"
#include "sim/cost_model.h"
#include "sim/fusion.h"
#include "sim/graph.h"
#include "sim/memory.h"

namespace h2o::sim {

class PassWorkspace;

/** Simulator configuration. */
struct SimConfig
{
    hw::ChipSpec chip;
    bool enableFusion = true;
    bool enableMemoryPlacement = true;
    MemoryConfig memory{};
};

/** Aggregate result of simulating one step of one graph on one chip. */
struct SimResult
{
    double stepTimeSec = 0.0;    ///< simulated execution time per step
    double totalFlops = 0.0;     ///< useful FLOPs per step
    double achievedFlops = 0.0;  ///< totalFlops / stepTimeSec
    double operationalIntensity = 0.0; ///< FLOPs per memory byte (HBM+CMEM)

    double hbmBytes = 0.0;
    double onChipBytes = 0.0;
    double networkBytes = 0.0;
    double hbmBandwidthUsed = 0.0;    ///< bytes/s averaged over the step
    double onChipBandwidthUsed = 0.0; ///< bytes/s averaged over the step

    double tensorBusySec = 0.0;  ///< total tensor-unit work
    double vpuBusySec = 0.0;     ///< total vector-unit work
    double hbmSec = 0.0;         ///< HBM-serialized time
    double onChipSec = 0.0;      ///< CMEM-serialized time
    double networkSec = 0.0;     ///< ICI-serialized time
    double criticalPathSec = 0.0; ///< DAG longest path

    hw::BoundBy boundBy = hw::BoundBy::Memory; ///< step-level bottleneck
    double tensorUtilization = 0.0; ///< tensor busy / step time

    double avgPowerW = 0.0;      ///< power model output
    double energyPerStepJ = 0.0; ///< stepTime x power

    size_t liveOps = 0;
    size_t fusedOps = 0;
    bool paramsResident = false;

    /** Per-live-op timings, parallel to graph op order (fused ops have
     *  zeroed entries), filled by run/runBatch/runBatchMulti for the
     *  hardware-analysis benches and `dump`. SimCache stores scalar
     *  summaries only, so a cached result's perOp is empty. */
    std::vector<OpTiming> perOp;
};

/** One (graph, configuration) pair of a heterogeneous simulation
 *  batch; both pointers must outlive the runBatchMulti call. */
struct SimRequest
{
    const Graph *graph = nullptr;
    const SimConfig *config = nullptr;
};

/**
 * The simulator. Stateless apart from configuration. run() keeps the
 * input graph const: pass annotations go into a reusable per-thread
 * PassWorkspace, so repeated runs neither copy the graph nor leak
 * annotations back to the caller.
 */
class Simulator
{
  public:
    /** @param config Chip and pass configuration. */
    explicit Simulator(SimConfig config);

    /** Simulate one execution step of the graph. Implemented as a
     *  one-element runBatch. */
    SimResult run(const Graph &graph) const;

    /**
     * Simulate one step of each graph, in order. The calling thread's
     * PassWorkspace is fetched once for the whole batch and graph
     * validation is amortized: a graph pointer that recurs in the batch
     * is validated only on first sight. Results are element-for-element
     * identical to N separate run() calls (the simulator is pure).
     */
    std::vector<SimResult>
    runBatch(std::span<const Graph *const> graphs) const;

    /**
     * Simulate heterogeneous (graph, config) pairs in order — the joint
     * multi-target path batches all (candidate x chip) pairs of one
     * evaluation through a single call. As in runBatch, the calling
     * thread's PassWorkspace is fetched once and each distinct graph
     * pointer is validated once; one Simulator core is built per
     * distinct config pointer. Results are element-for-element
     * identical to per-pair run() calls.
     */
    static std::vector<SimResult>
    runBatchMulti(std::span<const SimRequest> requests);

    /** The configured chip. */
    const hw::ChipSpec &chip() const { return _config.chip; }

  private:
    /** The per-graph core: passes + timing on an already-validated
     *  graph, annotations in the caller's workspace. */
    SimResult runValidated(const Graph &graph, PassWorkspace &ws) const;

    SimConfig _config;
};

} // namespace h2o::sim

#endif // H2O_SIM_SIMULATOR_H
