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

#include <atomic>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <vector>

#include "common/rng.h"
#include "nn/activation.h"
#include "nn/embedding.h"
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

/**
 * The active sub-network of one sampled candidate: which slice of the
 * shared banks each part reads. Plain data computed by
 * DlrmSupernet::plan(); the banks themselves never hold a selection.
 */
struct SupernetPlan
{
    /** One sparse feature: its vocabulary choice's physical table and
     *  the active width (0 = the search removed the table). */
    struct Table
    {
        size_t choice = 0;
        uint32_t width = 0;
    };
    /** One active MLP slot: upper-left in x out of the full-rank bank,
     *  or the rank-masked factors when lowRank. */
    struct Slot
    {
        bool lowRank = false;
        uint32_t in = 0, out = 0, rank = 0;
    };
    std::vector<Table> tables;
    std::vector<Slot> bottom; ///< active bottom slots (depth = size)
    std::vector<Slot> top;    ///< active top slots (at least one)
    /** Bottom output width: the dense width when the bottom is empty. */
    uint32_t bottomOut = 0;
    uint32_t logitIn = 0;
};

class DlrmSupernet;

/**
 * One lane's working memory for forward/backward passes: the slots'
 * activation caches and the staging and backward scratch they share.
 * Give every thread that calls DlrmSupernet::accumulateGradients
 * concurrently its own context; DlrmSupernet::reserve() sizes one for
 * any candidate up front, so the lane itself never allocates.
 */
class SupernetContext
{
  private:
    friend class DlrmSupernet;

    /** One slot's forward state, kept for its backward. */
    struct SlotCache
    {
        const nn::Tensor *input = nullptr; ///< forward input (not owned)
        nn::Tensor out;                    ///< activated output
    };

    std::vector<SlotCache> _bottom, _top;
    SlotCache _logit;
    nn::Tensor _dense, _concat, _emb, _hidden;
    std::vector<nn::EmbeddingIds> _ids; ///< per table: staged batch ids
    std::vector<const nn::IdList *> _idPtrs;
    nn::Tensor _labels, _lossGrad;
    // Backward scratch shared by the slots: input gradients ping-pong
    // between _dx[0] and _dx[1] (the top stack's first slot writes its
    // input gradient over _concat, which it has finished reading).
    nn::Tensor _dpre, _dh, _dx[2], _split;
    std::vector<uint32_t> _slotOf;   ///< table row -> slot, or none
    std::vector<uint32_t> _slotRows; ///< staged rows remapped to slots
};

class StepGradients;

/**
 * One shard's gradient of one step, in a StepGradients arena: a
 * compact block per bank tensor the candidate reads (its active
 * in x out, in x rank, rank x out or bias prefix, upper-left aligned),
 * and per embedding table it reads row-sparse slots — one per touched
 * row, first-touch order, each the scatter-add of that row's pooled
 * gradients (examples in order, ids in list order, from zero).
 */
class ShardGradients
{
  public:
    /**
     * This shard's gradient of element (row, col) of the supernet's
     * weight tensor `tensor` (checkpoint order, DlrmSupernet::weights());
     * 0 where the candidate does not reach. Exactly the value the
     * reduce sums. For tests and tools.
     */
    float at(size_t tensor, size_t row, size_t col) const;

    /** Whether the shard holds no gradient (none computed yet, or
     *  consumed by applyGradients()). */
    bool empty() const { return !_filled; }

  private:
    friend class DlrmSupernet;
    friend class StepGradients;

    /** Rows x cols block of one bank tensor at an arena offset. */
    struct Block
    {
        size_t tensor, rows, cols, offset;
    };
    /** Slots of one embedding table: rows _rows[first, first + count),
     *  a count x width block at an arena offset. */
    struct Slots
    {
        size_t tensor, width, first, count, offset;
    };

    /** The next rows x cols of this shard's dense-block storage, zeroed
     *  and recorded as `tensor`'s block. */
    float *addBlock(size_t tensor, size_t rows, size_t cols);
    /** Zeroed slots for the rows _rows[first, end) of embedding tensor
     *  `tensor`, from the step's shared slot space. */
    float *addSlots(size_t tensor, size_t width, size_t first);

    StepGradients *_step = nullptr;
    size_t _begin = 0, _end = 0; ///< dense-block storage in the arena
    size_t _used = 0;
    bool _filled = false;
    std::vector<Block> _blocks;
    std::vector<Slots> _tables;
    std::vector<uint32_t> _rows;
};

/**
 * Gradient storage of one step's shards: one arena, reused across
 * steps, that packs this step's candidates back to back. The
 * coordinator lays out the dense blocks from the step's plans before
 * the lanes run; the embedding slots (whose count depends on the batch)
 * follow them, claimed by the lanes as they finish. No lane allocates.
 */
class StepGradients
{
  public:
    StepGradients() = default;
    StepGradients(const StepGradients &) = delete;
    StepGradients &operator=(const StepGradients &) = delete;

    /** Lay out one shard per plan; earlier contents are dropped. */
    void layout(const DlrmSupernet &net,
                std::span<const SupernetPlan> plans);

    /** The laid-out shards, in plan order. */
    std::span<ShardGradients> shards() { return {_shards.data(), _count}; }

    ShardGradients &operator[](size_t i) { return _shards[i]; }

  private:
    friend class ShardGradients;
    friend class DlrmSupernet;

    /** Unmaps the arena (see layout()). */
    struct Unmap
    {
        size_t bytes;
        void operator()(float *p) const;
    };
    std::unique_ptr<float[], Unmap> _arena{nullptr, Unmap{0}};
    size_t _capacity = 0; ///< floats mapped
    std::vector<ShardGradients> _shards;
    size_t _count = 0;
    std::atomic<size_t> _slotTail{0}; ///< next free float for slots
    size_t _slotEnd = 0;              ///< end of this step's slot space
};

/**
 * The trainable hybrid-sharing DLRM super-network.
 *
 * Training is data-parallel: the shared banks are read-only during a
 * step, so any number of lanes may run accumulateGradients() at once,
 * each with its own SupernetContext, into one ShardGradients per shard
 * (a StepGradients laid out from the step's plans); applyGradients()
 * then sums every touched weight element over the shards in the order
 * given and takes the SGD step in the same pass.
 */
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

    /** The active sub-network of a sampled candidate. Pure. */
    SupernetPlan plan(const searchspace::Sample &sample) const;

    /** Floats of dense-block storage one shard of `plan` needs. */
    size_t blockSize(const SupernetPlan &plan) const;

    /** A bound on the embedding slot storage of one shard of `plan`:
     *  every row of every table it reads. */
    size_t slotBound(const SupernetPlan &plan) const;

    /** Size every buffer of `ctx` for any candidate on batches of up to
     *  `batch` examples, on the calling thread. */
    void reserve(SupernetContext &ctx, size_t batch) const;

    /**
     * One candidate's forward + backward on a batch: reads the banks
     * only (safe from concurrent lanes with distinct contexts) and
     * writes the shard's gradient into `grads`, which must be empty and
     * laid out for this plan. Returns the training loss.
     */
    double accumulateGradients(const SupernetPlan &plan,
                               const pipeline::Batch &batch,
                               SupernetContext &ctx,
                               ShardGradients &grads) const;

    /**
     * The merged SGD step: every weight element any shard touched moves
     * by -lr * (0 + g_0 + g_1 + ...), its shards' gradients summed in
     * the order of `grads`; untouched elements stay bitwise as they
     * were. The dense banks are reduced row-parallel
     * (common::parallelFor); each embedding table takes every shard's
     * row slots in order. Consumes the gradients: every entry is empty
     * afterwards.
     */
    void applyGradients(std::span<ShardGradients> grads, double lr);

    /**
     * Select the candidate that the single-candidate conveniences below
     * (forward, evaluate, trainStep, activeParamCount, extractModel)
     * run. They use one context owned by the supernet.
     */
    void configure(const searchspace::Sample &sample);

    /**
     * Forward pass on a batch; returns [batch, 1] logits — a reference
     * to an internal buffer, valid until the next forward.
     * @pre configure() was called.
     */
    const nn::Tensor &forward(const pipeline::Batch &batch);

    /** Forward + loss only (no gradients): the alpha-step evaluation.
     *  Runs in eval mode — no backward state or output buffers are
     *  kept; forward values are unchanged bit-for-bit. */
    EvalResult evaluate(const pipeline::Batch &batch);

    /** One SGD step of the configured candidate on the batch
     *  (accumulateGradients + applyGradients over one shard). Returns
     *  the training loss. */
    double trainStep(const pipeline::Batch &batch, double lr);

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
     * No gradients are computed; the configured candidate is unchanged.
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

    /** Parameters of the configured candidate (analytic count at the
     *  *scaled-down* supernet dimensions). */
    size_t activeParamCount() const;

    /** Total shared parameters across all tables/choices/layers. */
    size_t totalParamCount() const;

    /** Whether configure() has been called. */
    bool configured() const { return _configured; }

    /** Every shared weight tensor in checkpoint order: the embedding
     *  tables (table-major, then vocab choice), then per MLP slot
     *  (bottom, then top) W, b, U, V, low-rank b, then the logit W, b. */
    std::span<const nn::Tensor *const> weights() const
    {
        return _allWeights;
    }

    /**
     * Checkpoint every shared parameter tensor (preemptible-fleet
     * resume). Exact: float values round-trip bit-for-bit through the
     * tagged text format.
     */
    void save(std::ostream &os) const;

    /** Restore checkpointed weights into the shared storage; fatal when
     *  the checkpoint's tensor structure does not match this supernet. */
    void load(std::istream &is);

    /**
     * Extract the configured sub-network as a standalone model: the
     * selected candidate's weights are COPIED out of the shared storage,
     * so the search's own training is reused directly for deployment
     * (no retraining) and later search steps cannot perturb the
     * extracted model.
     */
    DlrmModel extractModel() const;

  private:
    /** Per-table shared storage: one physical table per vocab choice. */
    struct TableBank
    {
        /** Physical tables indexed by vocabulary choice (coarse (2)). */
        std::vector<std::unique_ptr<nn::EmbeddingTable>> byVocabChoice;
        uint32_t maxWidth = 0;
        size_t firstTensor = 0; ///< weights() index of choice 0
    };

    /** Per-MLP-slot shared storage: the masked full-rank path (3) and
     *  the shared low-rank factors (4), each with its own bias. The
     *  logit head uses w and b only. */
    struct LayerBank
    {
        nn::Tensor w;  ///< [maxIn, maxOut]
        nn::Tensor b;  ///< [maxOut]
        nn::Tensor u;  ///< [maxIn, maxRank]
        nn::Tensor v;  ///< [maxRank, maxOut]
        nn::Tensor ub; ///< [maxOut]
        size_t firstTensor = 0; ///< weights() index of w

        size_t maxIn() const { return w.rows(); }
        size_t maxOut() const { return w.cols(); }
    };

    friend class StepGradients;
    using Slot = SupernetPlan::Slot;

    /** A bound on blockSize() + slotBound() over every plan. */
    size_t maxGradientSize() const;

    using SlotCache = SupernetContext::SlotCache;

    const nn::Tensor &forwardPass(const SupernetPlan &plan,
                                  const pipeline::Batch &batch,
                                  SupernetContext &ctx,
                                  bool training) const;
    void backwardPass(const SupernetPlan &plan,
                      const nn::Tensor &grad_logits, SupernetContext &ctx,
                      ShardGradients &grads) const;
    /** Chain a stack's active slots; caches in `caches`. */
    const nn::Tensor &forwardStack(const std::vector<LayerBank> &stack,
                                   const std::vector<Slot> &slots,
                                   const nn::Tensor &input,
                                   std::vector<SlotCache> &caches,
                                   SupernetContext &ctx,
                                   bool training) const;
    const nn::Tensor &forwardSlot(const LayerBank &bank, const Slot &slot,
                                  nn::Activation act, const nn::Tensor &x,
                                  SlotCache &cache, SupernetContext &ctx,
                                  bool training) const;
    /** One slot's backward: its gradient blocks into `grads`, the input
     *  gradient into `dx` (skipped when null; may be the slot's input,
     *  which is last read before dx is written). */
    void backwardSlot(const LayerBank &bank, const Slot &slot,
                      nn::Activation act, const nn::Tensor &grad,
                      const SlotCache &cache, SupernetContext &ctx,
                      ShardGradients &grads, nn::Tensor *dx) const;
    /** Backprop a stack from its last active slot; the first slot's
     *  input gradient goes to `first_dx` (skipped when null). */
    void backwardStack(const std::vector<LayerBank> &stack,
                       const std::vector<Slot> &slots,
                       const std::vector<SlotCache> &caches,
                       const nn::Tensor &grad, SupernetContext &ctx,
                       ShardGradients &grads, size_t &buf,
                       nn::Tensor *first_dx) const;

    const searchspace::DlrmSearchSpace &_space;
    SupernetConfig _config;

    std::vector<TableBank> _tables;
    std::vector<LayerBank> _bottom;
    std::vector<LayerBank> _top;
    LayerBank _logit;

    /** Every shared weight tensor, checkpoint order (weights()). */
    std::vector<nn::Tensor *> _allWeights;
    /** Per weights() index: the embedding table, or null for a dense
     *  bank tensor. */
    std::vector<nn::EmbeddingTable *> _tableOf;

    // The single-candidate conveniences' state.
    SupernetPlan _plan;
    bool _configured = false;
    SupernetContext _ctx;
    StepGradients _grads;

    /** Reused scratch for the packed evaluation pass. */
    nn::Workspace _ws;
    EvalBatchStats _batchStats;
};

} // namespace h2o::supernet

#endif // H2O_SUPERNET_DLRM_SUPERNET_H
