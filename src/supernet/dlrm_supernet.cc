#include "supernet/dlrm_supernet.h"

#include <algorithm>
#include <cmath>
#include <string>

#include <sys/mman.h>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "nn/loss.h"
#include "nn/ops.h"

namespace h2o::supernet {

namespace {

/** Cap a width at the supernet scale-down limit, keeping it positive. */
uint32_t
capWidth(uint32_t width, uint32_t cap)
{
    return std::max(1u, std::min(width, cap));
}

/** Hidden MLP slots use ReLU; the logit head is affine. */
constexpr nn::Activation kHidden = nn::Activation::ReLU;
constexpr nn::Activation kLogit = nn::Activation::Identity;

/** SupernetContext::_slotOf entry of a row with no slot. */
constexpr uint32_t kNoSlot = UINT32_MAX;

/** Copy the stage-ready dense features of a batch into `dense`. */
void
stageDense(const pipeline::Batch &batch, uint32_t dense_in, nn::Tensor &dense)
{
    size_t b = batch.size();
    h2o_assert(b > 0, "empty batch");
    dense.resizeUninitialized(b, dense_in);
    for (size_t i = 0; i < b; ++i) {
        h2o_assert(batch.examples[i].dense.size() == dense_in,
                   "example dense width mismatch");
        std::copy_n(batch.examples[i].dense.begin(), dense_in,
                    dense.data().begin() + i * dense_in);
    }
}

/** Copy columns [src_col, src_col + width) of every row of `src` into
 *  columns [dst_col, dst_col + width) of dst's rows from dst_row on. */
void
copyColumns(const nn::Tensor &src, size_t src_col, nn::Tensor &dst,
            size_t dst_row, size_t dst_col, size_t width)
{
    const size_t rows = src.rows();
    h2o_assert(src_col + width <= src.cols() &&
                   dst_col + width <= dst.cols() &&
                   dst_row + rows <= dst.rows(),
               "copyColumns out of range");
    const float *from = src.data().data() + src_col;
    float *to = dst.data().data() + dst_row * dst.cols() + dst_col;
    for (size_t r = 0; r < rows; ++r)
        std::copy_n(from + r * src.cols(), width, to + r * dst.cols());
}

/** Point `ptrs` at every example's id list of sparse feature t. */
void
stageIdPtrs(const pipeline::Batch &batch, size_t t,
            std::vector<const nn::IdList *> &ptrs)
{
    ptrs.resize(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        h2o_assert(t < batch.examples[i].sparse.size(),
                   "example missing sparse feature ", t);
        ptrs[i] = &batch.examples[i].sparse[t];
    }
}

/** Copy the upper-left rows x cols of `src` (a 1-D tensor when rows is
 *  0: its first cols entries). */
nn::Tensor
upperLeft(const nn::Tensor &src, size_t rows, size_t cols)
{
    if (rows == 0) {
        nn::Tensor out(std::vector<size_t>{cols});
        std::copy_n(src.data().begin(), cols, out.data().begin());
        return out;
    }
    nn::Tensor out(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        std::copy_n(src.data().begin() + r * src.cols(), cols,
                    out.data().begin() + r * cols);
    return out;
}

} // namespace

// ------------------------------------------------------- ShardGradients

float *
ShardGradients::addBlock(size_t tensor, size_t rows, size_t cols)
{
    const size_t n = rows * cols, offset = _begin + _used;
    h2o_assert(offset + n <= _end, "shard gradient overflows its layout "
                                   "(laid out for another plan?)");
    _used += n;
    float *block = _step->_arena.get() + offset;
    std::fill_n(block, n, 0.0f);
    _blocks.push_back({tensor, rows, cols, offset});
    return block;
}

float *
ShardGradients::addSlots(size_t tensor, size_t width, size_t first)
{
    const size_t count = _rows.size() - first, n = count * width;
    const size_t offset = _step->_slotTail.fetch_add(n);
    h2o_assert(offset + n <= _step->_slotEnd,
               "embedding slots overflow the step's slot space");
    float *slots = _step->_arena.get() + offset;
    std::fill_n(slots, n, 0.0f);
    _tables.push_back({tensor, width, first, count, offset});
    return slots;
}

float
ShardGradients::at(size_t tensor, size_t row, size_t col) const
{
    if (!_filled)
        return 0.0f;
    const float *arena = _step->_arena.get();
    for (const Block &blk : _blocks) {
        if (blk.tensor == tensor)
            return row < blk.rows && col < blk.cols
                       ? arena[blk.offset + row * blk.cols + col]
                       : 0.0f;
    }
    for (const Slots &sl : _tables) {
        if (sl.tensor != tensor)
            continue;
        for (size_t i = 0; i < sl.count; ++i)
            if (_rows[sl.first + i] == row)
                return col < sl.width
                           ? arena[sl.offset + i * sl.width + col]
                           : 0.0f;
        return 0.0f;
    }
    return 0.0f;
}

// -------------------------------------------------------- StepGradients

void
StepGradients::Unmap::operator()(float *p) const
{
    munmap(p, bytes);
}

void
StepGradients::layout(const DlrmSupernet &net,
                      std::span<const SupernetPlan> plans)
{
    if (_shards.size() < plans.size())
        _shards.resize(plans.size());
    // Address space for the largest step possible, mapped once: pages
    // become resident only as a step writes them, and every step packs
    // its own candidates from the start, so resident memory is the
    // largest step's gradients, never the bound. Mapped directly rather
    // than malloc'd: freeing a block this large would raise malloc's
    // mmap threshold and move later large allocations (the next
    // supernet's weights) onto a heap that fragments.
    const size_t bound = plans.size() * net.maxGradientSize();
    if (bound > _capacity) {
        const size_t bytes = bound * sizeof(float);
        void *map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (map == MAP_FAILED)
            h2o_fatal("cannot map a ", bytes, "-byte gradient arena");
        _arena = std::unique_ptr<float[], Unmap>(static_cast<float *>(map),
                                                 Unmap{bytes});
        _capacity = bound;
    }
    // Dense blocks first, each shard's at a fixed place; the slots
    // after them, claimed in completion order.
    size_t offset = 0, slots = 0;
    for (size_t i = 0; i < plans.size(); ++i) {
        ShardGradients &g = _shards[i];
        g._step = this;
        g._begin = offset;
        offset += net.blockSize(plans[i]);
        g._end = offset;
        g._used = 0;
        g._filled = false;
        g._blocks.clear();
        g._tables.clear();
        g._rows.clear();
        slots += net.slotBound(plans[i]);
    }
    _slotTail.store(offset);
    _slotEnd = offset + slots;
    _count = plans.size();
}

// --------------------------------------------------------- DlrmSupernet

DlrmSupernet::DlrmSupernet(const searchspace::DlrmSearchSpace &space,
                           SupernetConfig config, common::Rng &rng)
    : _space(space), _config(config)
{
    const auto &baseline = space.baseline();

    // Each random tensor draws one key from rng, in construction order,
    // and fills itself across CPUs by element index
    // (nn::Tensor::gaussianInit), so the weights do not depend on the
    // thread count.

    // --- Embedding banks: coarse-grained per vocab choice (2), each
    // table fine-grained over width (1).
    _tables.resize(baseline.tables.size());
    for (size_t t = 0; t < baseline.tables.size(); ++t) {
        TableBank &bank = _tables[t];
        bank.maxWidth = space.maxEmbeddingWidth(t);
        bank.firstTensor = _allWeights.size();
        uint64_t capped_base =
            std::min<uint64_t>(baseline.tables[t].vocab, _config.vocabCap);
        size_t physical_choices =
            _config.fineGrainedVocabSharing ? 1 : space.numVocabChoices();
        for (size_t c = 0; c < physical_choices; ++c) {
            double scale = _config.fineGrainedVocabSharing
                               ? 1.0
                               : space.vocabScale(c);
            uint64_t vocab = static_cast<uint64_t>(std::max(
                16.0,
                std::round(static_cast<double>(capped_base) * scale)));
            bank.byVocabChoice.push_back(
                std::make_unique<nn::EmbeddingTable>(vocab, bank.maxWidth,
                                                     rng));
            _allWeights.push_back(&bank.byVocabChoice.back()->weights());
            _tableOf.push_back(bank.byVocabChoice.back().get());
        }
    }

    // --- MLP banks: masked full-rank (3) + shared low-rank factors (4),
    // He-normal weights and factors, zero biases.
    auto add_bank = [&](LayerBank &bank, size_t in, size_t out,
                        bool low_rank) {
        bank.firstTensor = _allWeights.size();
        bank.w = nn::Tensor(in, out);
        bank.b = nn::Tensor(std::vector<size_t>{out});
        bank.w.heInit(rng, in);
        std::vector<nn::Tensor *> tensors{&bank.w, &bank.b};
        if (low_rank) {
            // Max rank = max out: the rank masks U's columns, V's rows.
            bank.u = nn::Tensor(in, out);
            bank.v = nn::Tensor(out, out);
            bank.ub = nn::Tensor(std::vector<size_t>{out});
            bank.u.heInit(rng, in);
            bank.v.heInit(rng, out);
            tensors.insert(tensors.end(), {&bank.u, &bank.v, &bank.ub});
        }
        for (nn::Tensor *t : tensors) {
            _allWeights.push_back(t);
            _tableOf.push_back(nullptr);
        }
    };
    auto build_stack = [&](bool is_bottom, std::vector<LayerBank> &stack) {
        size_t depth = space.maxMlpDepth(is_bottom);
        uint32_t prev =
            is_bottom ? baseline.numDenseFeatures : 0 /* set below */;
        if (!is_bottom) {
            // Top slot 0 consumes the concatenated features. The bottom
            // stack's depth is searchable, so ANY bottom slot can be the
            // last active layer — size for the widest of them (plus the
            // dense passthrough when the bottom MLP is empty).
            uint64_t width = 0;
            for (size_t t = 0; t < baseline.tables.size(); ++t)
                width += space.maxEmbeddingWidth(t);
            uint32_t bottom_out = baseline.numDenseFeatures;
            for (size_t l = 0; l < space.maxMlpDepth(true); ++l) {
                bottom_out = std::max<uint32_t>(
                    bottom_out, capWidth(space.maxMlpWidth(true, l),
                                         _config.mlpWidthCap));
            }
            prev = static_cast<uint32_t>(width) + bottom_out;
        }
        stack.resize(depth);
        for (size_t l = 0; l < depth; ++l) {
            uint32_t out =
                capWidth(space.maxMlpWidth(is_bottom, l), _config.mlpWidthCap);
            add_bank(stack[l], prev, out, /*low_rank=*/true);
            prev = out;
        }
    };
    build_stack(true, _bottom);
    build_stack(false, _top);

    // Any top slot can be the final active layer (depth is searchable),
    // so the logit layer must accept the widest of their outputs.
    uint32_t logit_in = baseline.numDenseFeatures;
    for (const auto &bank : _top)
        logit_in = std::max<uint32_t>(logit_in, bank.maxOut());
    add_bank(_logit, logit_in, 1, /*low_rank=*/false);
}

SupernetPlan
DlrmSupernet::plan(const searchspace::Sample &sample) const
{
    h2o_assert(_space.decisions().validSample(sample),
               "malformed sample for supernet");
    arch::DlrmArch arch = _space.decode(sample);
    SupernetPlan p;

    p.tables.resize(_tables.size());
    for (size_t t = 0; t < _tables.size(); ++t) {
        p.tables[t].choice = _config.fineGrainedVocabSharing
                                 ? 0
                                 : sample[_space.vocabDecisionIndex(t)];
        p.tables[t].width =
            std::min<uint32_t>(arch.tables[t].width, _tables[t].maxWidth);
    }

    auto plan_stack = [&](const std::vector<arch::MlpLayerConfig> &layers,
                          const std::vector<LayerBank> &stack,
                          uint32_t in_width, std::vector<Slot> &slots) {
        h2o_assert(layers.size() <= stack.size(),
                   "decoded depth exceeds supernet slots");
        uint32_t prev = in_width;
        for (size_t l = 0; l < layers.size(); ++l) {
            const LayerBank &bank = stack[l];
            Slot slot;
            slot.out = std::min<uint32_t>(
                capWidth(layers[l].width, _config.mlpWidthCap),
                static_cast<uint32_t>(bank.maxOut()));
            slot.in =
                std::min<uint32_t>(prev, static_cast<uint32_t>(bank.maxIn()));
            uint32_t rank = layers[l].rank;
            if (rank > 0 && rank < std::min(slot.in, slot.out)) {
                slot.lowRank = true;
                slot.rank = rank;
            }
            slots.push_back(slot);
            prev = slot.out;
        }
        return prev;
    };

    uint32_t dense_in = _space.baseline().numDenseFeatures;
    p.bottomOut = plan_stack(arch.bottomMlp, _bottom, dense_in, p.bottom);
    if (p.bottom.empty())
        p.bottomOut = dense_in; // dense passthrough

    uint64_t concat = p.bottomOut;
    for (const SupernetPlan::Table &tab : p.tables)
        concat += tab.width;

    h2o_assert(!arch.topMlp.empty(), "decoded DLRM without top MLP");
    p.logitIn = plan_stack(arch.topMlp, _top, static_cast<uint32_t>(concat),
                           p.top);
    h2o_assert(p.logitIn <= _logit.maxIn(), "top MLP output ", p.logitIn,
               " exceeds logit capacity ", _logit.maxIn());
    return p;
}

void
DlrmSupernet::configure(const searchspace::Sample &sample)
{
    _plan = plan(sample);
    _configured = true;
}

size_t
DlrmSupernet::blockSize(const SupernetPlan &p) const
{
    size_t n = p.logitIn + 1;
    for (const auto *slots : {&p.bottom, &p.top}) {
        for (const Slot &s : *slots)
            n += s.lowRank ? s.in * s.rank + s.rank * s.out + s.out
                           : s.in * s.out + s.out;
    }
    return n;
}

size_t
DlrmSupernet::slotBound(const SupernetPlan &p) const
{
    size_t n = 0;
    for (size_t t = 0; t < _tables.size(); ++t)
        n += _tables[t].byVocabChoice[p.tables[t].choice]->vocab() *
             p.tables[t].width;
    return n;
}

size_t
DlrmSupernet::maxGradientSize() const
{
    // Every slot at its bank's full size on both paths (a bound on
    // either one), every table at its largest vocabulary and width.
    size_t n = _logit.w.size() + _logit.b.size();
    for (const auto *stack : {&_bottom, &_top})
        for (const LayerBank &bank : *stack)
            n += bank.w.size() + bank.v.size() + bank.b.size();
    for (const TableBank &bank : _tables) {
        size_t vocab = 0;
        for (const auto &table : bank.byVocabChoice)
            vocab = std::max(vocab, table->vocab());
        n += vocab * bank.maxWidth;
    }
    return n;
}

void
DlrmSupernet::reserve(SupernetContext &ctx, size_t batch) const
{
    // Slot outputs at their banks' widths; the shared scratch at the
    // widest slot input/output any candidate may need (the top stack's
    // first input gradient lands in _concat, the bottom stack's first
    // is never computed).
    size_t wide = _logit.maxIn(), widest_table = 1;
    auto reserve_stack = [&](const std::vector<LayerBank> &stack,
                             std::vector<SlotCache> &caches) {
        caches.resize(stack.size());
        for (size_t l = 0; l < stack.size(); ++l) {
            caches[l].out.resizeUninitialized(batch, stack[l].maxOut());
            wide = std::max(wide, stack[l].maxOut());
            if (l > 0)
                wide = std::max(wide, stack[l].maxIn());
        }
    };
    reserve_stack(_bottom, ctx._bottom);
    reserve_stack(_top, ctx._top);
    ctx._logit.out.resizeUninitialized(batch, 1);
    for (const TableBank &bank : _tables)
        widest_table = std::max<size_t>(widest_table, bank.maxWidth);
    ctx._dense.resizeUninitialized(batch,
                                   _space.baseline().numDenseFeatures);
    ctx._concat.resizeUninitialized(batch, _top[0].maxIn());
    ctx._emb.resizeUninitialized(batch, widest_table);
    for (nn::Tensor *t : {&ctx._hidden, &ctx._dpre, &ctx._dh, &ctx._dx[0],
                          &ctx._dx[1]})
        t->resizeUninitialized(batch, wide);
    ctx._split.resizeUninitialized(batch, widest_table);
    ctx._labels.resizeUninitialized(batch, 1);
    ctx._lossGrad.resizeUninitialized(batch, 1);
    ctx._idPtrs.reserve(batch);
    size_t vocab = 0;
    for (const nn::EmbeddingTable *table : _tableOf)
        if (table)
            vocab = std::max(vocab, table->vocab());
    ctx._slotOf.assign(vocab, kNoSlot);
}

const nn::Tensor &
DlrmSupernet::forwardSlot(const LayerBank &bank, const Slot &slot,
                          nn::Activation act, const nn::Tensor &x,
                          SlotCache &c, SupernetContext &ctx,
                          bool training) const
{
    // The kernels of the masked full-rank and low-rank layers, in their
    // order, over the active upper-left block of the shared bank. The
    // activation runs in place: ReLU's and the identity's derivatives
    // depend only on whether the output is positive (relu(x) > 0 iff
    // x > 0), so backward reads the output where a layer would keep
    // the pre-activations — bitwise the same gradients in half the
    // memory.
    c.input = training ? &x : nullptr;
    const size_t m = x.rows();
    c.out.resizeUninitialized(m, slot.out);
    if (slot.lowRank) {
        ctx._hidden.resizeUninitialized(m, slot.rank);
        nn::matmulMasked(x, bank.u, ctx._hidden, slot.in, slot.rank);
        nn::matmulMasked(ctx._hidden, bank.v, c.out, slot.rank, slot.out);
        nn::addBias(c.out, bank.ub, slot.out);
    } else {
        nn::matmulMasked(x, bank.w, c.out, slot.in, slot.out);
        nn::addBias(c.out, bank.b, slot.out);
    }
    nn::activateTensor(act, c.out, c.out);
    return c.out;
}

const nn::Tensor &
DlrmSupernet::forwardStack(const std::vector<LayerBank> &stack,
                           const std::vector<Slot> &slots,
                           const nn::Tensor &input,
                           std::vector<SlotCache> &caches,
                           SupernetContext &ctx, bool training) const
{
    // Chain by pointer: each slot's output stays alive in its cache
    // (and the next slot caches it as input) through backward.
    caches.resize(stack.size());
    const nn::Tensor *x = &input;
    for (size_t l = 0; l < slots.size(); ++l)
        x = &forwardSlot(stack[l], slots[l], kHidden, *x, caches[l], ctx,
                         training);
    return *x;
}

const nn::Tensor &
DlrmSupernet::forwardPass(const SupernetPlan &p, const pipeline::Batch &batch,
                          SupernetContext &ctx, bool training) const
{
    const size_t b = batch.size();
    stageDense(batch, _space.baseline().numDenseFeatures, ctx._dense);
    const nn::Tensor &bottom_out =
        p.bottom.empty()
            ? ctx._dense
            : forwardStack(_bottom, p.bottom, ctx._dense, ctx._bottom, ctx,
                           training);

    // Concatenate [embeddings..., bottom].
    size_t concat_width = p.bottomOut;
    for (const SupernetPlan::Table &tab : p.tables)
        concat_width += tab.width;
    ctx._concat.resizeUninitialized(b, concat_width);
    ctx._ids.resize(_tables.size());
    size_t offset = 0;
    for (size_t t = 0; t < _tables.size(); ++t) {
        const SupernetPlan::Table &tab = p.tables[t];
        if (tab.width == 0)
            continue;
        const nn::EmbeddingTable &table =
            *_tables[t].byVocabChoice[tab.choice];
        stageIdPtrs(batch, t, ctx._idPtrs);
        table.stage(ctx._idPtrs, ctx._ids[t]);
        table.lookup(ctx._ids[t], tab.width, ctx._emb);
        copyColumns(ctx._emb, 0, ctx._concat, 0, offset, tab.width);
        offset += tab.width;
    }
    copyColumns(bottom_out, 0, ctx._concat, 0, offset, p.bottomOut);

    const nn::Tensor &top_out =
        forwardStack(_top, p.top, ctx._concat, ctx._top, ctx, training);
    return forwardSlot(_logit, {false, p.logitIn, 1, 0}, kLogit, top_out,
                       ctx._logit, ctx, training);
}

void
DlrmSupernet::backwardSlot(const LayerBank &bank, const Slot &slot,
                           nn::Activation act, const nn::Tensor &grad,
                           const SlotCache &c, SupernetContext &ctx,
                           ShardGradients &grads, nn::Tensor *dx) const
{
    h2o_assert(c.input, "supernet backward before a training forward");
    h2o_assert(grad.rows() == c.out.rows() && grad.cols() == slot.out,
               "supernet backward width mismatch");
    const nn::Tensor &x = *c.input;
    const size_t m = grad.rows();
    const size_t t0 = bank.firstTensor; // w, b, u, v, ub
    nn::Tensor &dpre = ctx._dpre;
    dpre.resizeUninitialized(m, slot.out);
    // The output stands in for the pre-activations (see forwardSlot).
    nn::activateGradTensor(act, c.out, grad, dpre);

    auto bias_grad = [&](size_t tensor) {
        float *gb = grads.addBlock(tensor, 1, slot.out);
        for (size_t r = 0; r < m; ++r) {
            const float *row = dpre.data().data() + r * slot.out;
            for (size_t j = 0; j < slot.out; ++j)
                gb[j] += row[j];
        }
    };
    auto weight_grad = [&](size_t tensor, const nn::Tensor &a,
                           const nn::Tensor &b, size_t rows, size_t cols) {
        nn::matmulTransAMasked(a, b, grads.addBlock(tensor, rows, cols),
                               cols, rows, cols);
    };
    if (slot.lowRank) {
        // H = X U again (bitwise the forward's, not kept); then
        // dV = H^T dpre ; db = col-sums ; dH = dpre V^T ; dU = X^T dH ;
        // dX = dH U^T
        ctx._hidden.resizeUninitialized(m, slot.rank);
        nn::matmulMasked(x, bank.u, ctx._hidden, slot.in, slot.rank);
        weight_grad(t0 + 3, ctx._hidden, dpre, slot.rank, slot.out);
        bias_grad(t0 + 4);
        ctx._dh.resizeUninitialized(m, slot.rank);
        nn::matmulTransBMasked(dpre, bank.v, ctx._dh, slot.out, slot.rank);
        weight_grad(t0 + 2, x, ctx._dh, slot.in, slot.rank);
        if (dx) {
            dx->resizeUninitialized(m, slot.in);
            nn::matmulTransBMasked(ctx._dh, bank.u, *dx, slot.rank,
                                   slot.in);
        }
    } else {
        // dW = X^T dpre ; db = col-sums ; dX = dpre W^T
        weight_grad(t0, x, dpre, slot.in, slot.out);
        bias_grad(t0 + 1);
        if (dx) {
            dx->resizeUninitialized(m, slot.in);
            nn::matmulTransBMasked(dpre, bank.w, *dx, slot.out, slot.in);
        }
    }
}

void
DlrmSupernet::backwardStack(const std::vector<LayerBank> &stack,
                            const std::vector<Slot> &slots,
                            const std::vector<SlotCache> &caches,
                            const nn::Tensor &grad, SupernetContext &ctx,
                            ShardGradients &grads, size_t &buf,
                            nn::Tensor *first_dx) const
{
    // Input gradients ping-pong between the two dx buffers.
    const nn::Tensor *g = &grad;
    for (size_t l = slots.size(); l-- > 0;) {
        nn::Tensor *dx = l > 0 ? &ctx._dx[buf ^= 1] : first_dx;
        backwardSlot(stack[l], slots[l], kHidden, *g, caches[l], ctx, grads,
                     dx);
        g = dx;
    }
}

void
DlrmSupernet::backwardPass(const SupernetPlan &p,
                           const nn::Tensor &grad_logits,
                           SupernetContext &ctx, ShardGradients &grads) const
{
    size_t buf = 0;
    backwardSlot(_logit, {false, p.logitIn, 1, 0}, kLogit, grad_logits,
                 ctx._logit, ctx, grads, &ctx._dx[buf]);
    // The concat gradient overwrites the concat, which the top stack's
    // first slot reads for the last time just before.
    backwardStack(_top, p.top, ctx._top, ctx._dx[buf], ctx, grads, buf,
                  &ctx._concat);
    const nn::Tensor &grad = ctx._concat;

    // Split the concat gradient back into embedding and bottom slices.
    // Each live table's slice scatters into row-sparse slots: one per
    // touched row in first-touch order, added in id-list order.
    const size_t b = grad.rows();
    size_t offset = 0;
    for (size_t t = 0; t < _tables.size(); ++t) {
        const SupernetPlan::Table &tab = p.tables[t];
        if (tab.width == 0)
            continue;
        nn::Tensor &emb_grad = ctx._split;
        emb_grad.resizeUninitialized(b, tab.width);
        copyColumns(grad, offset, emb_grad, 0, 0, tab.width);
        offset += tab.width;

        const nn::EmbeddingIds &ids = ctx._ids[t];
        const size_t first = grads._rows.size();
        ctx._slotRows.resize(ids.rows.size());
        for (size_t q = 0; q < ids.rows.size(); ++q) {
            uint32_t &slot = ctx._slotOf[ids.rows[q]];
            if (slot == kNoSlot) {
                slot = static_cast<uint32_t>(grads._rows.size() - first);
                grads._rows.push_back(ids.rows[q]);
            }
            ctx._slotRows[q] = slot;
        }
        float *slots = grads.addSlots(_tables[t].firstTensor + tab.choice,
                                      tab.width, first);
        nn::embeddingScatterAdd(emb_grad.data().data(), tab.width,
                                ctx._slotRows, ids.offsets, ids.inv, slots,
                                tab.width, tab.width);
        for (size_t q = first; q < grads._rows.size(); ++q)
            ctx._slotOf[grads._rows[q]] = kNoSlot;
    }
    if (!p.bottom.empty()) {
        nn::Tensor &bottom_grad = ctx._dx[buf ^= 1];
        bottom_grad.resizeUninitialized(b, p.bottomOut);
        copyColumns(grad, offset, bottom_grad, 0, 0, p.bottomOut);
        backwardStack(_bottom, p.bottom, ctx._bottom, bottom_grad, ctx,
                      grads, buf, nullptr);
    }
}

double
DlrmSupernet::accumulateGradients(const SupernetPlan &plan,
                                  const pipeline::Batch &batch,
                                  SupernetContext &ctx,
                                  ShardGradients &grads) const
{
    h2o_assert(grads._step && !grads._filled,
               "accumulateGradients into a shard that is not laid out or "
               "already holds gradients");
    if (ctx._slotOf.empty())
        reserve(ctx, batch.size());
    const nn::Tensor &logits = forwardPass(plan, batch, ctx, true);
    ctx._labels.resizeUninitialized(batch.size(), 1);
    for (size_t i = 0; i < batch.size(); ++i)
        ctx._labels[i] = batch.examples[i].label;
    double loss = nn::bceWithLogits(logits, ctx._labels, ctx._lossGrad);
    backwardPass(plan, ctx._lossGrad, ctx, grads);
    grads._filled = true;
    return loss;
}

void
DlrmSupernet::applyGradients(std::span<ShardGradients> grads, double lr)
{
    // The SGD optimizer's float learning rate and per-element update.
    const float flr = static_cast<float>(lr);
    for (const ShardGradients &g : grads)
        h2o_assert(g._filled, "applyGradients over an empty shard");

    // --- Embedding tables, split across CPUs by table: every shard's
    // slots in shard order into the table's row slots, then SGD on the
    // touched rows.
    using SlotRef =
        std::pair<const ShardGradients *, const ShardGradients::Slots *>;
    std::vector<std::vector<SlotRef>> by_table(_allWeights.size());
    std::vector<size_t> live_tables;
    size_t slot_work = 0;
    for (const ShardGradients &g : grads) {
        for (const ShardGradients::Slots &sl : g._tables) {
            if (by_table[sl.tensor].empty())
                live_tables.push_back(sl.tensor);
            by_table[sl.tensor].push_back({&g, &sl});
            // Add, update and clear each slot element.
            slot_work += 3 * sl.count * sl.width;
        }
    }
    common::parallelFor(live_tables.size(), 1, slot_work,
                        [&](size_t lo, size_t hi) {
        for (size_t k = lo; k < hi; ++k) {
            const size_t t = live_tables[k];
            for (const auto &[g, sl] : by_table[t])
                _tableOf[t]->addRowGradients(
                    std::span<const uint32_t>(g->_rows)
                        .subspan(sl->first, sl->count),
                    g->_step->_arena.get() + sl->offset, sl->width);
            _tableOf[t]->sgdStep(flr);
        }
    });

    // --- Dense banks: per weight tensor, the shards' upper-left blocks
    // in shard order. Rows split across CPUs; each element's sum runs
    // over its shards in order from a zero accumulator, then w -= lr*g.
    struct Ref
    {
        const float *data;
        size_t rows, cols;
    };
    std::vector<std::vector<Ref>> refs(_allWeights.size());
    for (const ShardGradients &g : grads)
        for (const ShardGradients::Block &blk : g._blocks)
            refs[blk.tensor].push_back(
                {g._step->_arena.get() + blk.offset, blk.rows, blk.cols});
    struct Span
    {
        size_t tensor, rows, rowBegin; ///< rows touched; global row start
    };
    std::vector<Span> spans;
    size_t total_rows = 0, work = 0, max_cols = 0;
    for (size_t i = 0; i < refs.size(); ++i) {
        size_t rows = 0;
        for (const Ref &r : refs[i]) {
            rows = std::max(rows, r.rows);
            max_cols = std::max(max_cols, r.cols);
            work += r.rows * r.cols;
        }
        if (rows == 0)
            continue;
        spans.push_back({i, rows, total_rows});
        total_rows += rows;
    }
    common::parallelFor(total_rows, 1, work, [&](size_t lo, size_t hi) {
        std::vector<float> acc(max_cols);
        size_t k = 0;
        for (size_t gr = lo; gr < hi; ++gr) {
            while (gr >= spans[k].rowBegin + spans[k].rows)
                ++k;
            const size_t r = gr - spans[k].rowBegin;
            const std::vector<Ref> &blocks = refs[spans[k].tensor];
            size_t width = 0;
            for (const Ref &blk : blocks)
                if (r < blk.rows)
                    width = std::max(width, blk.cols);
            std::fill_n(acc.begin(), width, 0.0f);
            for (const Ref &blk : blocks) {
                if (r >= blk.rows)
                    continue;
                const float *src = blk.data + r * blk.cols;
                for (size_t c = 0; c < blk.cols; ++c)
                    acc[c] += src[c];
            }
            nn::Tensor &w = *_allWeights[spans[k].tensor];
            float *dst = w.data().data() + r * w.cols();
            for (size_t c = 0; c < width; ++c)
                dst[c] -= flr * acc[c];
        }
    });

    // Consumed.
    for (ShardGradients &g : grads) {
        g._filled = false;
        g._used = 0;
        g._blocks.clear();
        g._tables.clear();
        g._rows.clear();
    }
}

const nn::Tensor &
DlrmSupernet::forward(const pipeline::Batch &batch)
{
    h2o_assert(_configured, "forward before configure");
    return forwardPass(_plan, batch, _ctx, true);
}

EvalResult
DlrmSupernet::evaluate(const pipeline::Batch &batch)
{
    h2o_assert(_configured, "evaluate before configure");
    const nn::Tensor &logits =
        forwardPass(_plan, batch, _ctx, false);
    EvalResult res;
    std::vector<double> probs(batch.size()), labels(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        probs[i] = nn::sigmoid(logits.at(i, 0));
        labels[i] = batch.examples[i].label;
    }
    res.logLoss = nn::logLoss(probs, labels);
    res.auc = nn::auc(probs, labels);
    return res;
}

double
DlrmSupernet::trainStep(const pipeline::Batch &batch, double lr)
{
    h2o_assert(_configured, "trainStep before configure");
    _grads.layout(*this, std::span<const SupernetPlan>(&_plan, 1));
    double loss = accumulateGradients(_plan, batch, _ctx, _grads[0]);
    applyGradients(_grads.shards(), lr);
    return loss;
}

std::vector<EvalResult>
DlrmSupernet::evaluateBatch(std::span<const searchspace::Sample> samples,
                            const pipeline::Batch &batch, size_t max_chunk)
{
    size_t n = samples.size();
    h2o_assert(n > 0, "evaluateBatch with no samples");
    size_t b = batch.size();
    h2o_assert(b > 0, "empty batch");

    // --- Full-sample dedup: a converged policy resamples the same
    // candidate many times per step; identical samples share one
    // evaluation. `ord` maps each sample index to its distinct ordinal.
    std::vector<size_t> ord(n);
    std::vector<size_t> rep; // distinct ordinal -> first sample index
    for (size_t i = 0; i < n; ++i) {
        size_t found = rep.size();
        for (size_t j = 0; j < rep.size(); ++j) {
            if (samples[rep[j]] == samples[i]) {
                found = j;
                break;
            }
        }
        if (found == rep.size())
            rep.push_back(i);
        ord[i] = found;
    }
    size_t nd = rep.size();

    _batchStats = EvalBatchStats{};
    _batchStats.candidates = n;
    _batchStats.distinct = nd;

    // --- Stage the dense features once: identical for every candidate.
    nn::Tensor &dense = _ws.scratch("eb_dense", b, 0);
    stageDense(batch, _space.baseline().numDenseFeatures, dense);

    std::vector<EvalResult> distinct_res(nd);
    std::vector<double> probs(b), labels(b);
    for (size_t i = 0; i < b; ++i)
        labels[i] = batch.examples[i].label;

    // Bottom-MLP dedup spans chunks: cache buffers persist in _ws.
    std::vector<std::vector<uint32_t>> bottom_sigs;
    std::vector<const nn::Tensor *> bottom_cache;

    // Per-candidate configuration, from its plan.
    struct LiveTable
    {
        size_t table, choice, cacheIdx;
        uint32_t width;
    };
    struct TopSlot
    {
        bool lowRank;
        uint32_t in, out, rank;
    };
    struct Cfg
    {
        std::vector<LiveTable> live;
        std::vector<TopSlot> top;
        size_t bottomSig = 0;
        size_t concatW = 0;
        uint32_t bottomW = 0;
        uint32_t logitIn = 0;
    };

    size_t chunk_cap = max_chunk;
    if (chunk_cap == 0) {
        // Cache-aware auto-chunk. The packed top-MLP pass ping-pongs two
        // [chunk * b, w] buffers through every layer; once they outgrow
        // the fast cache levels each grouped matmul streams from memory
        // and the packed pass loses to a per-candidate loop whose one
        // small activation tensor stays hot. Cap the pair's footprint
        // (bounded by the top bank's physical input width) to keep the
        // working set cache-resident. Chunking never changes results —
        // only how many candidates share one packed pass.
        constexpr size_t kWorkingSetBytes = 512 * 1024;
        size_t per_cand = 2 * b * _top[0].maxIn() * sizeof(float);
        chunk_cap = std::max<size_t>(1, kWorkingSetBytes / per_cand);
    }
    for (size_t chunk0 = 0; chunk0 < nd; chunk0 += chunk_cap) {
        size_t cn = std::min(chunk_cap, nd - chunk0);

        // --- Pass 1: plan each distinct candidate, snapshot its active
        // dimensions, and run each NEW bottom-MLP configuration once.
        std::vector<Cfg> cfgs(cn);
        for (size_t g = 0; g < cn; ++g) {
            const SupernetPlan p = plan(samples[rep[chunk0 + g]]);
            Cfg &c = cfgs[g];
            for (size_t t = 0; t < p.tables.size(); ++t) {
                if (p.tables[t].width == 0)
                    continue;
                c.live.push_back(
                    {t, p.tables[t].choice, 0, p.tables[t].width});
            }
            c.bottomW = p.bottomOut;
            c.concatW = p.bottomOut;
            for (const LiveTable &lt : c.live)
                c.concatW += lt.width;
            for (const Slot &slot : p.top)
                c.top.push_back(
                    {slot.lowRank, slot.in, slot.out, slot.rank});
            c.logitIn = p.logitIn;

            std::vector<uint32_t> sig;
            sig.push_back(static_cast<uint32_t>(p.bottom.size()));
            for (const Slot &slot : p.bottom) {
                sig.push_back(slot.lowRank ? 1 : 0);
                sig.push_back(slot.in);
                sig.push_back(slot.out);
                sig.push_back(slot.rank);
            }
            size_t s = bottom_sigs.size();
            for (size_t j = 0; j < bottom_sigs.size(); ++j) {
                if (bottom_sigs[j] == sig) {
                    s = j;
                    break;
                }
            }
            if (s == bottom_sigs.size()) {
                bottom_sigs.push_back(sig);
                if (p.bottom.empty()) {
                    bottom_cache.push_back(&dense); // passthrough
                } else {
                    const nn::Tensor &bo = forwardStack(
                        _bottom, p.bottom, dense, _ctx._bottom, _ctx, false);
                    nn::Tensor &cache = _ws.scratch(
                        "eb_bot" + std::to_string(s), b, bo.cols());
                    copyColumns(bo, 0, cache, 0, 0, bo.cols());
                    bottom_cache.push_back(&cache);
                }
            }
            c.bottomSig = s;
        }
        _batchStats.distinctBottoms = bottom_sigs.size();

        // --- Pass 2: one pooled gather per (table, vocab-choice) used
        // in this chunk, at the widest width any candidate needs. Each
        // pooled element is independent of the lookup width, so prefix
        // columns are bitwise identical to a narrower lookup.
        struct EmbNeed
        {
            size_t table, choice;
            uint32_t width;
            nn::Tensor *cache = nullptr;
        };
        std::vector<EmbNeed> needs;
        for (Cfg &c : cfgs) {
            for (LiveTable &lt : c.live) {
                size_t found = needs.size();
                for (size_t j = 0; j < needs.size(); ++j) {
                    if (needs[j].table == lt.table &&
                        needs[j].choice == lt.choice) {
                        found = j;
                        break;
                    }
                }
                if (found == needs.size())
                    needs.push_back({lt.table, lt.choice, lt.width});
                else
                    needs[found].width =
                        std::max(needs[found].width, lt.width);
                lt.cacheIdx = found;
            }
        }
        _ctx._ids.resize(_tables.size());
        for (EmbNeed &need : needs) {
            const nn::EmbeddingTable &table =
                *_tables[need.table].byVocabChoice[need.choice];
            nn::EmbeddingIds &ids = _ctx._ids[need.table];
            stageIdPtrs(batch, need.table, _ctx._idPtrs);
            table.stage(_ctx._idPtrs, ids);
            need.cache = &_ws.scratch("eb_emb_" +
                                          std::to_string(need.table) + "_" +
                                          std::to_string(need.choice),
                                      b, need.width);
            table.lookup(ids, need.width, *need.cache);
            ++_batchStats.embLookups;
        }

        // --- Pass 3: assemble the packed concat tensor P0: candidate g
        // occupies rows [g*b, (g+1)*b), laid out [embeddings..., bottom]
        // exactly as forward() builds _concat.
        size_t max_w = 0, max_rank = 0, max_depth = 0;
        for (const Cfg &c : cfgs) {
            max_w = std::max(max_w, c.concatW);
            for (const TopSlot &ts : c.top) {
                max_w = std::max<size_t>(max_w, ts.out);
                if (ts.lowRank)
                    max_rank = std::max<size_t>(max_rank, ts.rank);
            }
            max_depth = std::max(max_depth, c.top.size());
        }
        nn::Tensor &p0 = _ws.scratch("eb_p0", cn * b, max_w);
        nn::Tensor &p1 = _ws.scratch("eb_p1", cn * b, max_w);
        for (size_t g = 0; g < cn; ++g) {
            const Cfg &c = cfgs[g];
            size_t row0 = g * b;
            size_t off = 0;
            for (const LiveTable &lt : c.live) {
                copyColumns(*needs[lt.cacheIdx].cache, 0, p0, row0, off,
                            lt.width);
                off += lt.width;
            }
            copyColumns(*bottom_cache[c.bottomSig], 0, p0, row0, off,
                        c.bottomW);
        }

        // --- Pass 4: packed top MLP. Slot by slot, candidates still
        // active at slot l run as mask groups over the shared slot
        // weights; ping-pong between P0 and P1 (slot l reads parity l,
        // writes parity l+1). A candidate whose depth is exhausted keeps
        // its final rows in buffer (depth % 2), which later slots never
        // write (groups only touch their own rows).
        nn::Tensor *bufs[2] = {&p0, &p1};
        nn::Tensor *hid =
            max_rank > 0 ? &_ws.scratch("eb_hid", cn * b, max_rank)
                         : nullptr;
        std::vector<nn::MaskGroup> full_g, lr_u, lr_v;
        for (size_t l = 0; l < max_depth; ++l) {
            nn::Tensor &src = *bufs[l % 2];
            nn::Tensor &dst = *bufs[(l + 1) % 2];
            full_g.clear();
            lr_u.clear();
            lr_v.clear();
            for (size_t g = 0; g < cn; ++g) {
                if (l >= cfgs[g].top.size())
                    continue;
                const TopSlot &ts = cfgs[g].top[l];
                if (ts.lowRank) {
                    lr_u.push_back({g * b, b, ts.in, ts.rank});
                    lr_v.push_back({g * b, b, ts.rank, ts.out});
                } else {
                    full_g.push_back({g * b, b, ts.in, ts.out});
                }
            }
            const LayerBank &bank = _top[l];
            if (!full_g.empty()) {
                nn::matmulMaskedGrouped(src, bank.w, dst, full_g);
                nn::addBiasGrouped(dst, bank.b, full_g);
                for (const nn::MaskGroup &grp : full_g)
                    nn::activateTensorRows(kHidden, dst, dst, grp.rowBegin,
                                           grp.rows, grp.nAct);
                ++_batchStats.packedPasses;
            }
            if (!lr_u.empty()) {
                nn::matmulMaskedGrouped(src, bank.u, *hid, lr_u);
                nn::matmulMaskedGrouped(*hid, bank.v, dst, lr_v);
                nn::addBiasGrouped(dst, bank.ub, lr_v);
                for (const nn::MaskGroup &grp : lr_v)
                    nn::activateTensorRows(kHidden, dst, dst, grp.rowBegin,
                                           grp.rows, grp.nAct);
                ++_batchStats.packedPasses;
            }
        }

        // --- Pass 5: packed logit head. Candidates read from the buffer
        // their final top output landed in (depth parity); Identity
        // activation, like the logit head's forward.
        nn::Tensor &logits = _ws.scratch("eb_logit", cn * b, 1);
        std::vector<nn::MaskGroup> logit_g[2];
        for (size_t g = 0; g < cn; ++g)
            logit_g[cfgs[g].top.size() % 2].push_back(
                {g * b, b, cfgs[g].logitIn, 1});
        for (size_t parity = 0; parity < 2; ++parity) {
            if (logit_g[parity].empty())
                continue;
            nn::matmulMaskedGrouped(*bufs[parity], _logit.w, logits,
                                    logit_g[parity]);
            nn::addBiasGrouped(logits, _logit.b, logit_g[parity]);
            ++_batchStats.packedPasses;
        }

        // --- Pass 6: per-candidate metrics, exactly as evaluate().
        for (size_t g = 0; g < cn; ++g) {
            for (size_t i = 0; i < b; ++i)
                probs[i] = nn::sigmoid(logits.at(g * b + i, 0));
            EvalResult res;
            res.logLoss = nn::logLoss(probs, labels);
            res.auc = nn::auc(probs, labels);
            distinct_res[chunk0 + g] = res;
        }
    }

    std::vector<EvalResult> results(n);
    for (size_t i = 0; i < n; ++i)
        results[i] = distinct_res[ord[i]];
    return results;
}

size_t
DlrmSupernet::activeParamCount() const
{
    h2o_assert(_configured, "activeParamCount before configure");
    size_t total = 0;
    for (size_t t = 0; t < _tables.size(); ++t) {
        const SupernetPlan::Table &tab = _plan.tables[t];
        if (tab.width > 0)
            total += _tables[t].byVocabChoice[tab.choice]->vocab() *
                     tab.width;
    }
    for (const auto *slots : {&_plan.bottom, &_plan.top}) {
        for (const Slot &slot : *slots)
            total += slot.lowRank
                         ? slot.in * slot.rank + slot.rank * slot.out +
                               slot.out
                         : slot.in * slot.out + slot.out;
    }
    total += _plan.logitIn + 1;
    return total;
}

DlrmModel
DlrmSupernet::extractModel() const
{
    h2o_assert(_configured, "extractModel before configure");
    DlrmModel model;
    model.numDenseFeatures = _space.baseline().numDenseFeatures;

    // --- Embedding tables: copy the active width of the selected
    // vocabulary choice's physical table.
    model.tables.resize(_tables.size());
    for (size_t t = 0; t < _tables.size(); ++t) {
        const SupernetPlan::Table &tab = _plan.tables[t];
        if (tab.width == 0)
            continue;
        const nn::EmbeddingTable &src = *_tables[t].byVocabChoice[tab.choice];
        auto dst =
            std::make_unique<nn::EmbeddingTable>(src.vocab(), tab.width);
        dst->weights() = upperLeft(src.weights(), src.vocab(), tab.width);
        model.tables[t] = std::move(dst);
    }

    // --- MLP stacks: layers built over copies of the active blocks.
    auto extract_stack = [&](const std::vector<LayerBank> &stack,
                             const std::vector<Slot> &slots) {
        std::vector<ExtractedLayer> out(slots.size());
        for (size_t l = 0; l < slots.size(); ++l) {
            const LayerBank &bank = stack[l];
            const Slot &s = slots[l];
            if (s.lowRank)
                out[l].lowRank = std::make_unique<nn::LowRankDenseLayer>(
                    upperLeft(bank.u, s.in, s.rank),
                    upperLeft(bank.v, s.rank, s.out),
                    upperLeft(bank.ub, 0, s.out), kHidden);
            else
                out[l].dense = std::make_unique<nn::DenseLayer>(
                    upperLeft(bank.w, s.in, s.out),
                    upperLeft(bank.b, 0, s.out), kHidden);
        }
        return out;
    };
    model.bottomMlp = extract_stack(_bottom, _plan.bottom);
    model.topMlp = extract_stack(_top, _plan.top);
    model.logitLayer = std::make_unique<nn::DenseLayer>(
        upperLeft(_logit.w, _plan.logitIn, 1), upperLeft(_logit.b, 0, 1),
        kLogit);
    return model;
}

size_t
DlrmSupernet::totalParamCount() const
{
    size_t total = 0;
    for (const auto &bank : _tables)
        for (const auto &table : bank.byVocabChoice)
            total += table->vocab() * table->maxWidth();
    for (const auto *stack : {&_bottom, &_top}) {
        for (const auto &bank : *stack) {
            total += bank.w.size() + bank.b.size();
            total += bank.u.size() + bank.v.size();
        }
    }
    total += _logit.w.size() + _logit.b.size();
    return total;
}

void
DlrmSupernet::save(std::ostream &os) const
{
    common::writeTaggedScalar(os, "supernet_tensors",
                              static_cast<double>(_allWeights.size()));
    for (size_t i = 0; i < _allWeights.size(); ++i) {
        const auto &data = _allWeights[i]->data();
        // float -> double is exact, and the tagged writer emits enough
        // digits for an exact double round-trip.
        std::vector<double> values(data.begin(), data.end());
        common::writeTagged(os, "w" + std::to_string(i), values);
    }
}

void
DlrmSupernet::load(std::istream &is)
{
    size_t tensors = static_cast<size_t>(
        common::readTaggedScalar(is, "supernet_tensors"));
    if (tensors != _allWeights.size())
        h2o_fatal("supernet checkpoint has ", tensors,
                  " tensors, this supernet has ", _allWeights.size());
    for (size_t i = 0; i < _allWeights.size(); ++i) {
        auto values = common::readTagged(is, "w" + std::to_string(i));
        auto &data = _allWeights[i]->data();
        if (values.size() != data.size())
            h2o_fatal("supernet checkpoint tensor ", i, " has ",
                      values.size(), " values, expected ", data.size());
        for (size_t j = 0; j < data.size(); ++j)
            data[j] = static_cast<float>(values[j]);
    }
}

} // namespace h2o::supernet
