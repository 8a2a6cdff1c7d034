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
EmbeddingTable::stage(std::span<const IdList *const> batch_ids)
{
    size_t batch = batch_ids.size();
    h2o_assert(batch > 0, "embedding lookup with empty batch");
    size_t total = 0;
    for (const IdList *ids : batch_ids)
        total += ids->size();
    _rows.clear();
    _rows.reserve(total);
    _offsets.clear();
    _offsets.reserve(batch + 1);
    _inv.clear();
    _inv.reserve(batch);
    _offsets.push_back(0);
    uint32_t vocab = static_cast<uint32_t>(_vocab);
    for (const IdList *ids : batch_ids) {
        for (uint32_t id : *ids)
            _rows.push_back(id % vocab);
        _offsets.push_back(_rows.size());
        _inv.push_back(ids->empty()
                           ? 0.0f
                           : 1.0f / static_cast<float>(ids->size()));
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
    stage(batch_ids);
    _out.resizeUninitialized(batch_ids.size(), _activeWidth);
    embeddingGatherPooled(_table, _rows, _offsets, _inv, _out, _activeWidth);
    return _out;
}

void
EmbeddingTable::lookup(std::span<const IdList *const> batch_ids, size_t width,
                       Tensor &out)
{
    h2o_assert(width > 0 && width <= _maxWidth, "lookup width ", width,
               " out of range (max ", _maxWidth, ")");
    stage(batch_ids);
    out.resizeUninitialized(batch_ids.size(), width);
    embeddingGatherPooled(_table, _rows, _offsets, _inv, out, width);
}

void
EmbeddingTable::backward(const Tensor &grad_out)
{
    h2o_assert(grad_out.rows() + 1 == _offsets.size(),
               "embedding backward batch mismatch");
    h2o_assert(grad_out.cols() == _activeWidth,
               "embedding backward width mismatch");
    // Sized on the first backward: inference-only tables never pay.
    if (_slotOf.empty())
        _slotOf.assign(_vocab, kNoSlot);
    _slotRows.resize(_rows.size());
    for (size_t p = 0; p < _rows.size(); ++p) {
        uint32_t &slot = _slotOf[_rows[p]];
        if (slot == kNoSlot) {
            slot = static_cast<uint32_t>(_touched.size());
            _touched.push_back(_rows[p]);
        }
        _slotRows[p] = slot;
    }
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
    embeddingScatterAdd(grad_out, _slotRows, _offsets, _inv, _slotGrad,
                        _activeWidth);
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
