#include "nn/embedding.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "nn/ops.h"

namespace h2o::nn {

namespace {

/** _slotOf entry of a row with no gradient slot. */
constexpr uint32_t kNoSlot = UINT32_MAX;

} // namespace

EmbeddingTable::EmbeddingTable(size_t vocab, size_t max_width,
                               common::Rng &rng)
    : EmbeddingTable(vocab, max_width)
{
    // Embedding init: small gaussian, as in typical DLRM training.
    _table.gaussianInit(rng, 0.05f);
}

EmbeddingTable::EmbeddingTable(size_t vocab, size_t max_width)
    : _vocab(vocab), _maxWidth(max_width), _activeWidth(max_width),
      _table(vocab, max_width), _slotGrad(0, max_width)
{
    h2o_assert(vocab > 0 && max_width > 0, "EmbeddingTable with zero dims");
    h2o_assert(vocab < kNoSlot, "EmbeddingTable vocab ", vocab,
               " exceeds the slot index range");
}

void
EmbeddingTable::setActiveWidth(size_t width)
{
    h2o_assert(width > 0 && width <= _maxWidth, "active width ", width,
               " out of range (max ", _maxWidth, ")");
    _activeWidth = width;
}

void
EmbeddingTable::stage(std::span<const IdList *const> batch_ids,
                      EmbeddingIds &ids) const
{
    size_t batch = batch_ids.size();
    h2o_assert(batch > 0, "embedding lookup with empty batch");
    size_t total = 0;
    for (const IdList *list : batch_ids)
        total += list->size();
    ids.rows.clear();
    ids.rows.reserve(total);
    ids.offsets.clear();
    ids.offsets.reserve(batch + 1);
    ids.inv.clear();
    ids.inv.reserve(batch);
    ids.offsets.push_back(0);
    uint32_t vocab = static_cast<uint32_t>(_vocab);
    for (const IdList *list : batch_ids) {
        for (uint32_t id : *list)
            ids.rows.push_back(id % vocab);
        ids.offsets.push_back(ids.rows.size());
        ids.inv.push_back(list->empty()
                              ? 0.0f
                              : 1.0f / static_cast<float>(list->size()));
    }
}

const Tensor &
EmbeddingTable::forward(const std::vector<IdList> &batch_ids)
{
    _ptrScratch.clear();
    _ptrScratch.reserve(batch_ids.size());
    for (const IdList &ids : batch_ids)
        _ptrScratch.push_back(&ids);
    return forward(std::span<const IdList *const>(_ptrScratch));
}

const Tensor &
EmbeddingTable::forward(std::span<const IdList *const> batch_ids)
{
    stage(batch_ids, _ids);
    lookup(_ids, _activeWidth, _out);
    return _out;
}

void
EmbeddingTable::lookup(const EmbeddingIds &ids, size_t width,
                       Tensor &out) const
{
    h2o_assert(width > 0 && width <= _maxWidth, "lookup width ", width,
               " out of range (max ", _maxWidth, ")");
    out.resizeUninitialized(ids.inv.size(), width);
    embeddingGatherPooled(_table, ids.rows, ids.offsets, ids.inv, out, width);
}

void
EmbeddingTable::backward(const Tensor &grad_out)
{
    h2o_assert(grad_out.rows() + 1 == _ids.offsets.size(),
               "embedding backward batch mismatch");
    h2o_assert(grad_out.cols() == _activeWidth,
               "embedding backward width mismatch");
    _slotRows.resize(_ids.rows.size());
    for (size_t p = 0; p < _ids.rows.size(); ++p)
        _slotRows[p] = touch(_ids.rows[p]);
    embeddingScatterAdd(grad_out, _slotRows, _ids.offsets, _ids.inv,
                        _slotGrad, _activeWidth);
}

uint32_t
EmbeddingTable::touch(uint32_t row)
{
    // Sized on the first gradient: inference-only tables never pay.
    if (_slotOf.empty())
        _slotOf.assign(_vocab, kNoSlot);
    uint32_t &slot = _slotOf[row];
    if (slot != kNoSlot)
        return slot;
    slot = static_cast<uint32_t>(_touched.size());
    _touched.push_back(row);
    if (_touched.size() > _slotGrad.rows()) {
        // Grow geometrically (capped at vocab), keeping the live slots;
        // the new slots start zeroed.
        size_t cap = std::min(
            _vocab, std::max(_touched.size(), 2 * _slotGrad.rows()));
        Tensor grown(cap, _maxWidth);
        std::copy(_slotGrad.data().begin(), _slotGrad.data().end(),
                  grown.data().begin());
        _slotGrad = std::move(grown);
    }
    return slot;
}

void
EmbeddingTable::addRowGradients(std::span<const uint32_t> rows,
                                const float *g, size_t width)
{
    h2o_assert(width <= _maxWidth, "row gradient width ", width,
               " exceeds table width ", _maxWidth);
    for (size_t i = 0; i < rows.size(); ++i) {
        h2o_assert(rows[i] < _vocab, "row gradient for row ", rows[i],
                   " of a ", _vocab, "-row table");
        const size_t slot = touch(rows[i]); // may grow _slotGrad
        float *dst = _slotGrad.data().data() + slot * _maxWidth;
        const float *src = g + i * width;
        for (size_t d = 0; d < width; ++d)
            dst[d] += src[d];
    }
}

void
EmbeddingTable::sgdStep(float lr)
{
    // The dense optimizer's per-element expression, row by row.
    float *table = _table.data().data();
    const float *slots = _slotGrad.data().data();
    for (size_t s = 0; s < _touched.size(); ++s) {
        float *w = table + size_t(_touched[s]) * _maxWidth;
        const float *g = slots + s * _maxWidth;
        for (size_t d = 0; d < _maxWidth; ++d)
            w[d] -= lr * g[d];
    }
    zeroGrad();
}

void
EmbeddingTable::zeroGrad()
{
    for (uint32_t row : _touched)
        _slotOf[row] = kNoSlot;
    std::fill_n(_slotGrad.data().data(), _touched.size() * _maxWidth, 0.0f);
    _touched.clear();
}

float
EmbeddingTable::grad(size_t row, size_t col) const
{
    h2o_assert(row < _vocab && col < _maxWidth, "embedding grad index (",
               row, ",", col, ") out of range");
    if (_slotOf.empty() || _slotOf[row] == kNoSlot)
        return 0.0f;
    return _slotGrad.at(_slotOf[row], col);
}

std::string
EmbeddingTable::describe() const
{
    std::ostringstream oss;
    oss << "Embedding(vocab=" << _vocab << ", width=" << _activeWidth << "/"
        << _maxWidth << ")";
    return oss.str();
}

} // namespace h2o::nn
