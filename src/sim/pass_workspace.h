/**
 * @file
 * Reusable pass-annotation workspace for the simulator.
 *
 * Historically the compiler passes (fusion, memory placement) annotated
 * the graph in place, which forced `Simulator::run` to deep-copy every
 * input graph so annotations never leaked back to the caller. At
 * perf-model pretraining scale (thousands of `run` calls per bench) that
 * copy — a vector of Ops each carrying a name string and an input-id
 * vector — dominated the uncached simulation cost.
 *
 * PassWorkspace moves every pass-mutable quantity into a parallel
 * `OpAnnotations` array owned by the caller (in practice a thread_local
 * inside `Simulator::run`). The graph stays const; the workspace's
 * vectors are reused across runs, so steady-state simulation performs no
 * per-run heap allocation beyond `SimResult::perOp` (which SimCache
 * frees before it stores a result).
 */

#ifndef H2O_SIM_PASS_WORKSPACE_H
#define H2O_SIM_PASS_WORKSPACE_H

#include <vector>

#include "sim/graph.h"

namespace h2o::sim {

/**
 * The pass-mutable view of one op: the byte quantities fusion folds into
 * a head, plus the placement annotations. Initialized from the op's
 * static fields by PassWorkspace::reset(); mutated by the annotation
 * overloads of fuseGraph / placeMemory; read by timeOp.
 */
struct OpAnnotations
{
    double outputBytes = 0.0;   ///< head writes the fused tail's output
    double paramBytes = 0.0;    ///< absorbs fused ops' streamed params
    double networkBytes = 0.0;  ///< absorbs fused ops' collective bytes
    double fusedVpuFlops = 0.0; ///< vector-unit FLOPs folded into this op
    bool fusedAway = false;     ///< folded into its producer
    double onChipFraction = 0.0; ///< activation traffic served on-chip
    bool paramsOnChip = false;   ///< weights resident in on-chip memory
};

/**
 * Scratch state for one simulation: per-op annotations plus the pass-
 * internal vectors (fusion's consumer counts and group roots, the DAG
 * walk's finish times). reset() re-initializes for a graph while reusing
 * the previous run's capacity.
 */
struct PassWorkspace
{
    std::vector<OpAnnotations> ann;

    // Pass-internal scratch (sized on demand by the passes).
    std::vector<uint32_t> consumers;
    std::vector<OpId> root;
    std::vector<double> finish;

    /** Size `ann` to the graph and seed each entry from its op's static
     *  (or previously annotated, for pre-fused inputs) fields. */
    void reset(const Graph &graph);

    /** Write the annotations back onto a mutable graph — the in-place
     *  pass APIs are thin wrappers over the annotation overloads. */
    void apply(Graph &graph) const;

    /** A reusable per-thread workspace for callers that simulate in a
     *  loop (Simulator::run uses this). */
    static PassWorkspace &forThread();
};

} // namespace h2o::sim

#endif // H2O_SIM_PASS_WORKSPACE_H
