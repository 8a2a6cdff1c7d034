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
 * pooled gather and the gradient scatter-add run through the tiled kernel
 * family in nn/ops.h (selectable via H2O_KERNELS, bitwise identical across
 * implementations); ids are staged into flat CSR-style buffers
 * (rows/offsets/inv) that are reused across calls.
 */

#ifndef H2O_NN_EMBEDDING_H
#define H2O_NN_EMBEDDING_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/tensor.h"

namespace h2o::common { class Rng; }

namespace h2o::nn {

/** One sparse feature's id list for one example. */
using IdList = std::vector<uint32_t>;

/** Embedding table with maskable width and mean-pooled multivalent lookup. */
class EmbeddingTable
{
  public:
    /**
     * @param vocab     Number of rows (ids hash into [0, vocab)).
     * @param max_width Largest embedding width any candidate may use.
     */
    EmbeddingTable(size_t vocab, size_t max_width, common::Rng &rng);

    /** Allocate zeroed storage only; initWeights() fills it. Lets one
     *  thread size many tables and others fill them. */
    EmbeddingTable(size_t vocab, size_t max_width);

    /** The rng constructor's fill: small-gaussian table values. */
    void initWeights(common::Rng &rng);

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

    /**
     * No-grad lookup at an explicit width into a caller-owned tensor,
     * for the batched eval path: `out` is resized to [batch, width] and
     * filled with the pooled rows (columns [0, width) of the shared
     * storage, independent of activeWidth). Overwrites the staging
     * buffers backward() reads, so a training forward/backward pair must
     * not straddle a lookup() call.
     *
     * @pre 0 < width <= maxWidth.
     */
    void lookup(std::span<const IdList *const> batch_ids, size_t width,
                Tensor &out);

    /**
     * Scatter gradients back into the rows touched by the last forward.
     * @param grad_out [batch, activeWidth] upstream gradient.
     */
    void backward(const Tensor &grad_out);

    /** Parameter/gradient storage for the optimizer. */
    std::vector<ParamRef> params();

    /** Zero the gradient accumulator. */
    void zeroGrad() { _grad.zero(); }

    /** Parameters used at the active width. */
    size_t activeParamCount() const { return _vocab * _activeWidth; }

    /** Human-readable description. */
    std::string describe() const;

  private:
    /** Hash ids into the flat CSR staging buffers (_rows/_offsets/_inv). */
    void stage(std::span<const IdList *const> batch_ids);

    size_t _vocab;
    size_t _maxWidth;
    size_t _activeWidth;
    Tensor _table;  ///< vocab x maxWidth
    Tensor _grad;
    Tensor _out; ///< pooled lookup output (reused across calls)
    std::vector<uint32_t> _rows;   ///< hashed table rows, all examples
    std::vector<size_t> _offsets;  ///< per-example [start, end) into _rows
    std::vector<float> _inv;       ///< per-example 1/|ids| (0 if empty)
    std::vector<const IdList *> _ptrScratch; ///< vector-overload adapter
};

} // namespace h2o::nn

#endif // H2O_NN_EMBEDDING_H
