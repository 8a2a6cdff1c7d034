/**
 * @file
 * The DLRM weight-sharing super-network — the paper's first such design
 * for RL-based one-shot NAS (Section 5.1.2, Figure 3). Hybrid sharing:
 *
 *  (1) fine-grained embedding width: one vector of the largest possible
 *      width per row; smaller widths mask all but the first D entries;
 *  (2) coarse-grained vocabulary size: a SEPARATE physical table per
 *      vocabulary-size choice, so candidates that hash ids differently
 *      never interfere;
 *  (3) fine-grained MLP width/depth: one weight matrix of the largest
 *      input/output size per layer slot; smaller layers keep the
 *      upper-left sub-matrix;
 *  (4) fine-grained low-rank: shared U/V factor matrices whose active
 *      rank is masked, trained directly without ever materializing the
 *      full-rank matrix.
 *
 * The super-network is genuinely trainable (manual backprop on the
 * synthetic traffic stream). Vocabularies are capped at a configurable
 * physical size — the hashing-trick scale-down substituting for the
 * paper's O(1000)M-parameter production model; the sharing structure and
 * interference dynamics are unchanged.
 */

#ifndef H2O_SUPERNET_DLRM_SUPERNET_H
#define H2O_SUPERNET_DLRM_SUPERNET_H

#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <vector>

#include "common/rng.h"
#include "nn/embedding.h"
#include "nn/low_rank_dense.h"
#include "nn/masked_dense.h"
#include "nn/optimizer.h"
#include "nn/workspace.h"
#include "pipeline/example.h"
#include "searchspace/dlrm_space.h"
#include "supernet/dlrm_model.h"

namespace h2o::supernet {

/** Supernet scale-down knobs. */
struct SupernetConfig
{
    /** Cap on the physical vocabulary of any shared table (hash trick). */
    uint64_t vocabCap = 1024;
    /** Cap on MLP layer widths inside the trainable supernet. */
    uint32_t mlpWidthCap = 256;
    /**
     * Ablation switch: share ONE physical table per feature across all
     * vocabulary-size candidates (pure fine-grained sharing) instead of
     * the paper's coarse-grained per-choice tables. Candidates that
     * hash ids with different moduli then interfere — the harmful
     * interaction the hybrid design avoids (Section 5.1.2).
     */
    bool fineGrainedVocabSharing = false;
};

/** Quality metrics from one evaluation forward pass. */
struct EvalResult
{
    double logLoss = 0.0;
    double auc = 0.5;
    /** The quality signal Q(a) fed to the reward: higher is better. */
    double quality() const { return -logLoss; }
};

/** Instrumentation from the last evaluateBatch() call. */
struct EvalBatchStats
{
    size_t candidates = 0;      ///< samples passed in
    size_t distinct = 0;        ///< after full-sample dedup
    size_t distinctBottoms = 0; ///< distinct bottom-MLP configurations run
    size_t embLookups = 0;      ///< (table, vocab-choice) pooled gathers run
    size_t packedPasses = 0;    ///< grouped kernel launches (top + logit)
};

/** The trainable hybrid-sharing DLRM super-network. */
class DlrmSupernet
{
  public:
    /**
     * @param space  The search space defining shared-storage maxima.
     * @param config Scale-down configuration.
     * @param rng    Stream for weight initialization.
     */
    DlrmSupernet(const searchspace::DlrmSearchSpace &space,
                 SupernetConfig config, common::Rng &rng);

    /**
     * Select the active sub-network for a sampled candidate. Must be
     * called before forward/evaluate/trainStep.
     */
    void configure(const searchspace::Sample &sample);

    /**
     * Forward pass on a batch; returns [batch, 1] logits — a reference
     * to an internal buffer, valid until the next forward.
     * @pre configure() was called.
     */
    const nn::Tensor &forward(const pipeline::Batch &batch);

    /** Forward + loss only (no gradients): the alpha-step evaluation.
     *  Runs the layers in eval mode — no backward bookkeeping or output
     *  buffers are retained; forward values are unchanged bit-for-bit. */
    EvalResult evaluate(const pipeline::Batch &batch);

    /**
     * Evaluate MANY sampled candidates against ONE shared batch in a
     * single packed pass: the step's samples are deduplicated, embedding
     * lookups are shared across candidates per (table, vocab-choice),
     * distinct bottom-MLP configurations run once, and the top MLP +
     * logit run as grouped-mask kernels over a packed
     * [n_distinct * batch, width] tensor (nn::matmulMaskedGrouped).
     *
     * Result row i is BITWISE identical to `configure(samples[i]);
     * evaluate(batch)` — the grouped kernels preserve each candidate's
     * per-element floating-point operation sequence, and the shared
     * caches exploit only prefix-sharing that is exact by construction.
     * No gradients are accumulated and no backward state is retained.
     *
     * Leaves the supernet configured to the last *distinct* sample;
     * callers must configure() before any later forward/backward.
     *
     * @param max_chunk Cap on distinct candidates packed per pass.
     *        0 (default) picks a cache-aware cap that keeps the packed
     *        ping-pong buffers inside the fast cache levels. Results
     *        are identical for every chunk size.
     */
    std::vector<EvalResult>
    evaluateBatch(std::span<const searchspace::Sample> samples,
                  const pipeline::Batch &batch, size_t max_chunk = 0);

    /** Instrumentation from the last evaluateBatch() call. */
    const EvalBatchStats &batchStats() const { return _batchStats; }

    /**
     * One SGD training step of the active sub-network's shared weights
     * on the batch. Returns the training loss.
     */
    double trainStep(const pipeline::Batch &batch, double lr);

    /** Apply externally-accumulated gradients (cross-shard training):
     *  run forward+backward WITHOUT stepping, so the caller can merge
     *  gradients across shards before calling applyGradients(). */
    double accumulateGradients(const pipeline::Batch &batch);

    /** SGD step from whatever gradients are accumulated, then zero. */
    void applyGradients(double lr);

    /** Parameters of the active candidate (analytic count at the
     *  *scaled-down* supernet dimensions). */
    size_t activeParamCount() const;

    /** Total shared parameters across all tables/choices/layers. */
    size_t totalParamCount() const;

    /** Whether configure() has been called. */
    bool configured() const { return _configured; }

    /**
     * Checkpoint every shared parameter tensor (preemptible-fleet
     * resume). Gradient accumulators are not persisted: checkpoints are
     * taken between steps, where they are zero. Exact: float values
     * round-trip bit-for-bit through the tagged text format.
     */
    void save(std::ostream &os) const;

    /**
     * Restore checkpointed weights into the shared storage; fatal when
     * the checkpoint's tensor structure does not match this supernet.
     * Zeroes all gradient accumulators.
     */
    void load(std::istream &is);

    /**
     * Extract the currently-configured sub-network as a standalone
     * model: the selected candidate's weights are COPIED out of the
     * shared storage, so the search's own training is reused directly
     * for deployment (no retraining) and later search steps cannot
     * perturb the extracted model.
     */
    DlrmModel extractModel() const;

  private:
    /** Per-table shared storage: one physical table per vocab choice. */
    struct TableBank
    {
        /** Physical tables indexed by vocabulary choice (coarse (2)). */
        std::vector<std::unique_ptr<nn::EmbeddingTable>> byVocabChoice;
        uint32_t maxWidth = 0;
        // Active selection:
        size_t vocabChoice = 0;
        uint32_t activeWidth = 0; ///< 0 = table removed
    };

    /** Per-MLP-layer shared storage: full-rank + low-rank paths. */
    struct LayerBank
    {
        std::unique_ptr<nn::MaskedDenseLayer> full;
        std::unique_ptr<nn::LowRankDenseLayer> lowRank;
        // Active selection:
        bool useLowRank = false;
        uint32_t activeIn = 0;
        uint32_t activeOut = 0;
        uint32_t activeRank = 0;
    };

    // Both chain layer-owned buffers by reference: no per-layer copies.
    const nn::Tensor &forwardMlp(std::vector<LayerBank> &stack,
                                 size_t depth, const nn::Tensor &input);
    const nn::Tensor &backwardMlp(std::vector<LayerBank> &stack,
                                  size_t depth, const nn::Tensor &grad);
    void backward(const nn::Tensor &grad_logits);

    /** Flip every MLP layer (and the logit head) between training and
     *  eval mode; embedding tables have no mode. */
    void setTrainingMode(bool training);

    const searchspace::DlrmSearchSpace &_space;
    SupernetConfig _config;

    std::vector<TableBank> _tables;
    std::vector<LayerBank> _bottom;
    std::vector<LayerBank> _top;
    std::unique_ptr<nn::MaskedDenseLayer> _logit;

    size_t _bottomDepth = 0;
    size_t _topDepth = 0;
    bool _configured = false;

    // Cached forward state for backward.
    nn::Tensor _denseInput;
    nn::Tensor _concat;
    std::vector<size_t> _concatOffsets; ///< column offset per live table
    std::vector<size_t> _liveTables;
    size_t _bottomOutWidth = 0;

    /** Reused scratch for gradient splits and label staging. */
    nn::Workspace _ws;

    EvalBatchStats _batchStats;
    /** Reused id-list pointer staging for batched embedding lookups. */
    std::vector<const nn::IdList *> _idPtrScratch;

    /** SGD over the MLP parameters (tables step themselves). */
    std::unique_ptr<nn::SgdOptimizer> _optimizer;
    /** Every shared weight tensor, tables first, in construction order
     *  (checkpointing). */
    std::vector<nn::Tensor *> _allWeights;
};

} // namespace h2o::supernet

#endif // H2O_SUPERNET_DLRM_SUPERNET_H
