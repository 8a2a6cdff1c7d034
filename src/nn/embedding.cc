#include "nn/embedding.h"

#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "nn/ops.h"

namespace h2o::nn {

EmbeddingTable::EmbeddingTable(size_t vocab, size_t max_width,
                               common::Rng &rng)
    : EmbeddingTable(vocab, max_width)
{
    initWeights(rng);
}

EmbeddingTable::EmbeddingTable(size_t vocab, size_t max_width)
    : _vocab(vocab), _maxWidth(max_width), _activeWidth(max_width),
      _table(vocab, max_width), _grad(vocab, max_width)
{
    h2o_assert(vocab > 0 && max_width > 0, "EmbeddingTable with zero dims");
}

void
EmbeddingTable::initWeights(common::Rng &rng)
{
    // Embedding init: small gaussian, as in typical DLRM training.
    _table.gaussianInit(rng, 0.05f);
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
    embeddingScatterAdd(grad_out, _rows, _offsets, _inv, _grad, _activeWidth);
}

std::vector<ParamRef>
EmbeddingTable::params()
{
    return {{&_table, &_grad}};
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
