/**
 * @file
 * Embedding table with fine-grained width sharing.
 *
 * One embedding vector of the largest possible width is created per row;
 * smaller embedding widths reuse the first D components and mask the rest
 * (Figure 3, mask ① in the paper). Vocabulary-size search is NOT handled
 * here — that uses coarse-grained sharing with one separate EmbeddingTable
 * per vocabulary-size choice (mask ②), implemented in
 * supernet/dlrm_supernet.*, to avoid harmful interaction between
 * candidates that hash ids differently.
 *
 * Lookups are multivalent with mean pooling: each example supplies a small
 * list of ids for the feature and receives the average of their rows. The
 * pooled gather and the gradient scatter-add run through the embedding
 * kernels in nn/ops.h (bitwise identical to their reference oracles);
 * ids are staged into flat CSR-style buffers (rows/offsets/inv) that
 * are reused across calls.
 *
 * Gradients are row-sparse: a batch touches a few hundred of the
 * table's rows, so instead of a dense vocab x width accumulator each
 * touched row gets a compact gradient slot, numbered in first-touch
 * order. backward() runs the same scatter-add kernel over slot indices
 * (per element the adds keep their order, so slot sums equal dense
 * sums bit for bit), and sgdStep() updates the touched rows alone —
 * for plain SGD an untouched row's update is `w -= lr * 0`, which
 * leaves it bitwise as it was.
 */

#ifndef H2O_NN_EMBEDDING_H
#define H2O_NN_EMBEDDING_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace h2o::common { class Rng; }

namespace h2o::nn {

/** One sparse feature's id list for one example. */
using IdList = std::vector<uint32_t>;

/**
 * One batch's ids for one table, hashed into table rows and staged
 * CSR-style: the ids of example i are rows[offsets[i], offsets[i+1]),
 * pooled with weight inv[i] (1/|ids|, 0 if empty). Caller-owned and
 * reused across calls, so several threads can look up one table at
 * once, each with its own staging.
 */
struct EmbeddingIds
{
    std::vector<uint32_t> rows;
    std::vector<size_t> offsets;
    std::vector<float> inv;
};

/** Embedding table with maskable width and mean-pooled multivalent lookup. */
class EmbeddingTable
{
  public:
    /**
     * @param vocab     Number of rows (ids hash into [0, vocab)).
     * @param max_width Largest embedding width any candidate may use.
     */
    EmbeddingTable(size_t vocab, size_t max_width, common::Rng &rng);

    /** Allocate zeroed storage only, for a caller that writes every
     *  weight itself (a model extracted from a supernet). */
    EmbeddingTable(size_t vocab, size_t max_width);

    /** Select the active embedding width. @pre 0 < width <= maxWidth. */
    void setActiveWidth(size_t width);

    /** Currently active width. */
    size_t activeWidth() const { return _activeWidth; }

    /** Maximum width of the shared storage. */
    size_t maxWidth() const { return _maxWidth; }

    /** Vocabulary (row) count. */
    size_t vocab() const { return _vocab; }

    /**
     * Mean-pooled lookup for a batch. Ids are reduced modulo vocab (the
     * hashing trick), matching how production DLRMs remap ids when the
     * vocabulary budget changes.
     *
     * @return [batch, activeWidth] pooled embeddings — a reference to a
     *         reused internal buffer, valid until the next forward.
     */
    const Tensor &forward(const std::vector<IdList> &batch_ids);

    /**
     * Same lookup over a span of id-list pointers — lets callers that
     * already hold per-example lists elsewhere (the packed multi-candidate
     * eval pass) avoid copying them into a contiguous vector.
     */
    const Tensor &forward(std::span<const IdList *const> batch_ids);

    /** Hash a batch's id lists into `ids` (reusing its storage). Reads
     *  no table state: safe from any number of threads. */
    void stage(std::span<const IdList *const> batch_ids,
               EmbeddingIds &ids) const;

    /**
     * No-grad pooled lookup of staged ids at an explicit width into a
     * caller-owned tensor: `out` is resized to [batch, width] and filled
     * from columns [0, width) of the shared storage, independent of
     * activeWidth. Reads the weights only: safe from any number of
     * threads while no step updates them.
     *
     * @pre 0 < width <= maxWidth.
     */
    void lookup(const EmbeddingIds &ids, size_t width, Tensor &out) const;

    /**
     * Scatter gradients back into the rows touched by the last forward,
     * adding to what earlier backward() calls since the last sgdStep()
     * or zeroGrad() accumulated.
     * @param grad_out [batch, activeWidth] upstream gradient.
     */
    void backward(const Tensor &grad_out);

    /**
     * Add externally computed row gradients into the slots:
     * grad(rows[i], d) += g[i * width + d] for d < width, rows in order
     * (a supernet step's per-shard slot blocks, reduced in shard order).
     */
    void addRowGradients(std::span<const uint32_t> rows, const float *g,
                         size_t width);

    /**
     * Plain SGD (no momentum, no decay) on the touched rows:
     * w -= lr * g over every column of each, then zeroGrad(). Bitwise
     * equal to a dense SGD step over the whole table.
     */
    void sgdStep(float lr);

    /** Drop the accumulated gradient: touched rows become untouched. */
    void zeroGrad();

    /** Accumulated gradient of one element (0 for an untouched row). */
    float grad(size_t row, size_t col) const;

    /** Rows touched since the last sgdStep() or zeroGrad(). */
    size_t touchedRows() const { return _touched.size(); }

    /** Table storage [vocab, maxWidth]. */
    Tensor &weights() { return _table; }
    const Tensor &weights() const { return _table; }

    /** Parameters used at the active width. */
    size_t activeParamCount() const { return _vocab * _activeWidth; }

    /** Human-readable description. */
    std::string describe() const;

  private:
    /** The gradient slot of `row`, assigned (first-touch order, storage
     *  grown as needed) when the row has none yet. */
    uint32_t touch(uint32_t row);

    size_t _vocab;
    size_t _maxWidth;
    size_t _activeWidth;
    Tensor _table;  ///< vocab x maxWidth
    /** Gradient slots [capacity, maxWidth]: slot s accumulates the
     *  gradient of row _touched[s]; slots past _touched.size() are
     *  zero. */
    Tensor _slotGrad;
    std::vector<uint32_t> _slotOf;   ///< per row: its slot, or kNoSlot
    std::vector<uint32_t> _touched;  ///< touched rows, first-touch order
    std::vector<uint32_t> _slotRows; ///< _ids.rows remapped to slots
    Tensor _out; ///< pooled lookup output (reused across calls)
    EmbeddingIds _ids; ///< the last forward's staged ids (for backward)
    std::vector<const IdList *> _ptrScratch; ///< vector-overload adapter
};

} // namespace h2o::nn

#endif // H2O_NN_EMBEDDING_H
