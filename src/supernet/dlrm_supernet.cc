#include "supernet/dlrm_supernet.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "nn/loss.h"
#include "nn/ops.h"

namespace h2o::supernet {

namespace {

/** parallelFor work units per randomly initialized weight: a gaussian
 *  draw costs tens of multiply-adds. */
constexpr size_t kFillWorkPerElement = 32;

/** Cap a width at the supernet scale-down limit, keeping it positive. */
uint32_t
capWidth(uint32_t width, uint32_t cap)
{
    return std::max(1u, std::min(width, cap));
}

} // namespace

DlrmSupernet::DlrmSupernet(const searchspace::DlrmSearchSpace &space,
                           SupernetConfig config, common::Rng &rng)
    : _space(space), _config(config)
{
    const auto &baseline = space.baseline();

    // Every bank's tensors are allocated here, on the calling thread;
    // the random fills are queued and run in parallel at the end. Each
    // fill draws from its own rng.fork(salt), which reads only the
    // seed, so the fill order cannot change a value.
    struct WeightFill
    {
        uint64_t salt;
        size_t elements;
        std::function<void(common::Rng &)> fill;
    };
    std::vector<WeightFill> fills;

    // --- Embedding banks: coarse-grained per vocab choice (2), each
    // table fine-grained over width (1).
    _tables.resize(baseline.tables.size());
    for (size_t t = 0; t < baseline.tables.size(); ++t) {
        TableBank &bank = _tables[t];
        bank.maxWidth = space.maxEmbeddingWidth(t);
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
            auto table =
                std::make_unique<nn::EmbeddingTable>(vocab, bank.maxWidth);
            fills.push_back({(t << 8) | c, vocab * bank.maxWidth,
                             [p = table.get()](common::Rng &r) {
                                 p->initWeights(r);
                             }});
            bank.byVocabChoice.push_back(std::move(table));
        }
    }

    // --- MLP banks: masked full-rank (3) + shared low-rank factors (4).
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
        for (size_t l = 0; l < depth; ++l) {
            uint32_t out =
                capWidth(space.maxMlpWidth(is_bottom, l), _config.mlpWidthCap);
            LayerBank bank;
            bank.full = std::make_unique<nn::MaskedDenseLayer>(
                prev, out, nn::Activation::ReLU);
            fills.push_back({0x1000 + (is_bottom ? 0 : 512) + l,
                             size_t(prev) * out,
                             [p = bank.full.get()](common::Rng &r) {
                                 p->initWeights(r);
                             }});
            bank.lowRank = std::make_unique<nn::LowRankDenseLayer>(
                prev, out, out, nn::Activation::ReLU);
            fills.push_back({0x2000 + (is_bottom ? 0 : 512) + l,
                             (size_t(prev) + out) * out,
                             [p = bank.lowRank.get()](common::Rng &r) {
                                 p->initWeights(r);
                             }});
            stack.push_back(std::move(bank));
            prev = out;
        }
    };
    build_stack(true, _bottom);
    build_stack(false, _top);

    // Any top slot can be the final active layer (depth is searchable),
    // so the logit layer must accept the widest of their outputs.
    uint32_t logit_in = baseline.numDenseFeatures;
    for (const auto &bank : _top)
        logit_in = std::max<uint32_t>(logit_in, bank.full->maxOut());
    _logit = std::make_unique<nn::MaskedDenseLayer>(
        logit_in, 1, nn::Activation::Identity);
    fills.push_back({0x3000, logit_in, [p = _logit.get()](common::Rng &r) {
                         p->initWeights(r);
                     }});

    size_t fill_elements = 0;
    for (const WeightFill &f : fills)
        fill_elements += f.elements;
    common::parallelFor(fills.size(), 1, fill_elements * kFillWorkPerElement,
                        [&](size_t begin, size_t end) {
                            for (size_t i = begin; i < end; ++i) {
                                common::Rng r = rng.fork(fills[i].salt);
                                fills[i].fill(r);
                            }
                        });

    // --- Optimizer over every shared parameter. SGD without momentum:
    // sub-networks not touched by a step receive zero gradient and stay
    // put, so sharing never bleeds updates into inactive candidates.
    std::vector<nn::ParamRef> params;
    for (auto &bank : _tables)
        for (auto &table : bank.byVocabChoice)
            for (auto &p : table->params())
                params.push_back(p);
    for (auto *stack : {&_bottom, &_top}) {
        for (auto &bank : *stack) {
            for (auto &p : bank.full->params())
                params.push_back(p);
            for (auto &p : bank.lowRank->params())
                params.push_back(p);
        }
    }
    for (auto &p : _logit->params())
        params.push_back(p);
    _allParams = params;
    _optimizer = std::make_unique<nn::SgdOptimizer>(std::move(params),
                                                    /*lr=*/0.05);
}

void
DlrmSupernet::configure(const searchspace::Sample &sample)
{
    h2o_assert(_space.decisions().validSample(sample),
               "malformed sample for supernet");
    arch::DlrmArch arch = _space.decode(sample);

    for (size_t t = 0; t < _tables.size(); ++t) {
        TableBank &bank = _tables[t];
        bank.vocabChoice = _config.fineGrainedVocabSharing
                               ? 0
                               : sample[_space.vocabDecisionIndex(t)];
        bank.activeWidth =
            std::min<uint32_t>(arch.tables[t].width, bank.maxWidth);
        if (bank.activeWidth > 0) {
            bank.byVocabChoice[bank.vocabChoice]->setActiveWidth(
                bank.activeWidth);
        }
    }

    auto configure_stack = [&](const std::vector<arch::MlpLayerConfig> &layers,
                               std::vector<LayerBank> &stack,
                               uint32_t in_width) {
        h2o_assert(layers.size() <= stack.size(),
                   "decoded depth exceeds supernet slots");
        uint32_t prev = in_width;
        for (size_t l = 0; l < layers.size(); ++l) {
            LayerBank &bank = stack[l];
            uint32_t out = capWidth(layers[l].width, _config.mlpWidthCap);
            out = std::min<uint32_t>(out, bank.full->maxOut());
            prev = std::min<uint32_t>(prev, bank.full->maxIn());
            uint32_t rank = layers[l].rank;
            bank.activeIn = prev;
            bank.activeOut = out;
            if (rank > 0 && rank < std::min(prev, out)) {
                bank.useLowRank = true;
                bank.activeRank = std::max(1u, rank);
                bank.lowRank->setActive(prev, bank.activeRank, out);
            } else {
                bank.useLowRank = false;
                bank.activeRank = 0;
                bank.full->setActive(prev, out);
            }
            prev = out;
        }
        return prev;
    };

    uint32_t dense_in = _space.baseline().numDenseFeatures;
    _bottomDepth = arch.bottomMlp.size();
    _bottomOutWidth = configure_stack(arch.bottomMlp, _bottom, dense_in);
    if (_bottomDepth == 0)
        _bottomOutWidth = dense_in; // dense passthrough

    uint64_t concat = _bottomOutWidth;
    for (size_t t = 0; t < _tables.size(); ++t)
        concat += _tables[t].activeWidth;

    _topDepth = arch.topMlp.size();
    h2o_assert(_topDepth >= 1, "decoded DLRM without top MLP");
    uint32_t top_out = configure_stack(
        arch.topMlp, _top, static_cast<uint32_t>(concat));

    h2o_assert(top_out <= _logit->maxIn(),
               "top MLP output ", top_out, " exceeds logit capacity ",
               _logit->maxIn());
    _logit->setActive(top_out, 1);
    _configured = true;
}

const nn::Tensor &
DlrmSupernet::forwardMlp(std::vector<LayerBank> &stack, size_t depth,
                         const nn::Tensor &input)
{
    // Chain by pointer: each layer's output is a member buffer that
    // stays alive (and caches its input by pointer) through backward.
    const nn::Tensor *x = &input;
    for (size_t l = 0; l < depth; ++l) {
        LayerBank &bank = stack[l];
        x = bank.useLowRank ? &bank.lowRank->forward(*x)
                            : &bank.full->forward(*x);
    }
    return *x;
}

const nn::Tensor &
DlrmSupernet::backwardMlp(std::vector<LayerBank> &stack, size_t depth,
                          const nn::Tensor &grad)
{
    const nn::Tensor *g = &grad;
    for (size_t l = depth; l-- > 0;) {
        LayerBank &bank = stack[l];
        g = bank.useLowRank ? &bank.lowRank->backward(*g)
                            : &bank.full->backward(*g);
    }
    return *g;
}

const nn::Tensor &
DlrmSupernet::forward(const pipeline::Batch &batch)
{
    h2o_assert(_configured, "forward before configure");
    size_t b = batch.size();
    h2o_assert(b > 0, "empty batch");
    uint32_t dense_in = _space.baseline().numDenseFeatures;

    _denseInput.resizeUninitialized(b, dense_in);
    for (size_t i = 0; i < b; ++i) {
        h2o_assert(batch.examples[i].dense.size() == dense_in,
                   "example dense width mismatch");
        for (size_t j = 0; j < dense_in; ++j)
            _denseInput.at(i, j) = batch.examples[i].dense[j];
    }

    const nn::Tensor &bottom_out =
        _bottomDepth > 0 ? forwardMlp(_bottom, _bottomDepth, _denseInput)
                         : _denseInput;

    // Concatenate [embeddings..., bottom].
    _liveTables.clear();
    _concatOffsets.clear();
    size_t concat_width = bottom_out.cols();
    for (size_t t = 0; t < _tables.size(); ++t)
        if (_tables[t].activeWidth > 0)
            concat_width += _tables[t].activeWidth;

    _concat.resizeUninitialized(b, concat_width);
    size_t offset = 0;
    std::vector<nn::IdList> ids(b);
    for (size_t t = 0; t < _tables.size(); ++t) {
        TableBank &bank = _tables[t];
        if (bank.activeWidth == 0)
            continue;
        for (size_t i = 0; i < b; ++i) {
            h2o_assert(t < batch.examples[i].sparse.size(),
                       "example missing sparse feature ", t);
            ids[i] = batch.examples[i].sparse[t];
        }
        const nn::Tensor &emb =
            bank.byVocabChoice[bank.vocabChoice]->forward(ids);
        for (size_t i = 0; i < b; ++i)
            for (size_t d = 0; d < bank.activeWidth; ++d)
                _concat.at(i, offset + d) = emb.at(i, d);
        _liveTables.push_back(t);
        _concatOffsets.push_back(offset);
        offset += bank.activeWidth;
    }
    for (size_t i = 0; i < b; ++i)
        for (size_t d = 0; d < bottom_out.cols(); ++d)
            _concat.at(i, offset + d) = bottom_out.at(i, d);

    const nn::Tensor &top_out = forwardMlp(_top, _topDepth, _concat);
    return _logit->forward(top_out);
}

void
DlrmSupernet::backward(const nn::Tensor &grad_logits)
{
    const nn::Tensor &top_grad = _logit->backward(grad_logits);
    const nn::Tensor &grad = backwardMlp(_top, _topDepth, top_grad);

    // Split the concat gradient back into embedding and bottom slices.
    size_t b = grad.rows();
    for (size_t k = 0; k < _liveTables.size(); ++k) {
        TableBank &bank = _tables[_liveTables[k]];
        size_t offset = _concatOffsets[k];
        nn::Tensor &emb_grad =
            _ws.scratch("emb_grad", b, bank.activeWidth);
        for (size_t i = 0; i < b; ++i)
            for (size_t d = 0; d < bank.activeWidth; ++d)
                emb_grad.at(i, d) = grad.at(i, offset + d);
        bank.byVocabChoice[bank.vocabChoice]->backward(emb_grad);
    }
    if (_bottomDepth > 0) {
        size_t offset = _concat.cols() - _bottomOutWidth;
        nn::Tensor &bottom_grad =
            _ws.scratch("bottom_grad", b, _bottomOutWidth);
        for (size_t i = 0; i < b; ++i)
            for (size_t d = 0; d < _bottomOutWidth; ++d)
                bottom_grad.at(i, d) = grad.at(i, offset + d);
        backwardMlp(_bottom, _bottomDepth, bottom_grad);
    }
}

void
DlrmSupernet::setTrainingMode(bool training)
{
    for (auto *stack : {&_bottom, &_top}) {
        for (auto &bank : *stack) {
            bank.full->setTraining(training);
            bank.lowRank->setTraining(training);
        }
    }
    _logit->setTraining(training);
}

EvalResult
DlrmSupernet::evaluate(const pipeline::Batch &batch)
{
    setTrainingMode(false);
    const nn::Tensor &logits = forward(batch);
    EvalResult res;
    std::vector<double> probs(batch.size()), labels(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        probs[i] = nn::sigmoid(logits.at(i, 0));
        labels[i] = batch.examples[i].label;
    }
    res.logLoss = nn::logLoss(probs, labels);
    res.auc = nn::auc(probs, labels);
    setTrainingMode(true);
    return res;
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

    setTrainingMode(false);

    // --- Stage the dense features once: identical for every candidate.
    uint32_t dense_in = _space.baseline().numDenseFeatures;
    nn::Tensor &dense = _ws.scratch("eb_dense", b, dense_in);
    for (size_t i = 0; i < b; ++i) {
        h2o_assert(batch.examples[i].dense.size() == dense_in,
                   "example dense width mismatch");
        for (size_t j = 0; j < dense_in; ++j)
            dense.at(i, j) = batch.examples[i].dense[j];
    }

    std::vector<EvalResult> distinct_res(nd);
    std::vector<double> probs(b), labels(b);
    for (size_t i = 0; i < b; ++i)
        labels[i] = batch.examples[i].label;

    // Bottom-MLP dedup spans chunks: cache buffers persist in _ws.
    std::vector<std::vector<uint32_t>> bottom_sigs;
    std::vector<const nn::Tensor *> bottom_cache;

    // Per-candidate configuration captured after configure().
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
        size_t w_bound =
            _top.empty() ? std::max<size_t>(_bottomOutWidth, 1)
                         : _top[0].full->weightTensor().rows();
        size_t per_cand = 2 * b * std::max<size_t>(w_bound, 1) *
                          sizeof(float);
        chunk_cap = std::max<size_t>(1, kWorkingSetBytes / per_cand);
    }
    for (size_t chunk0 = 0; chunk0 < nd; chunk0 += chunk_cap) {
        size_t cn = std::min(chunk_cap, nd - chunk0);

        // --- Pass 1: configure each distinct candidate, snapshot its
        // active dimensions, and run each NEW bottom-MLP configuration
        // once (the banks are configured for this candidate right now,
        // so forwardMlp computes exactly what evaluate() would).
        std::vector<Cfg> cfgs(cn);
        for (size_t g = 0; g < cn; ++g) {
            configure(samples[rep[chunk0 + g]]);
            Cfg &c = cfgs[g];
            for (size_t t = 0; t < _tables.size(); ++t) {
                const TableBank &bank = _tables[t];
                if (bank.activeWidth == 0)
                    continue;
                c.live.push_back(
                    {t, bank.vocabChoice, 0, bank.activeWidth});
            }
            c.bottomW = static_cast<uint32_t>(_bottomOutWidth);
            c.concatW = _bottomOutWidth;
            for (const LiveTable &lt : c.live)
                c.concatW += lt.width;
            for (size_t l = 0; l < _topDepth; ++l) {
                const LayerBank &bank = _top[l];
                c.top.push_back({bank.useLowRank, bank.activeIn,
                                 bank.activeOut, bank.activeRank});
            }
            c.logitIn = static_cast<uint32_t>(_logit->activeIn());

            std::vector<uint32_t> sig;
            sig.push_back(static_cast<uint32_t>(_bottomDepth));
            for (size_t l = 0; l < _bottomDepth; ++l) {
                const LayerBank &bank = _bottom[l];
                sig.push_back(bank.useLowRank ? 1 : 0);
                sig.push_back(bank.activeIn);
                sig.push_back(bank.activeOut);
                sig.push_back(bank.activeRank);
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
                if (_bottomDepth == 0) {
                    bottom_cache.push_back(&dense); // passthrough
                } else {
                    const nn::Tensor &bo =
                        forwardMlp(_bottom, _bottomDepth, dense);
                    nn::Tensor &cache = _ws.scratch(
                        "eb_bot" + std::to_string(s), b, bo.cols());
                    for (size_t i = 0; i < b; ++i)
                        for (size_t d = 0; d < bo.cols(); ++d)
                            cache.at(i, d) = bo.at(i, d);
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
        _idPtrScratch.resize(b);
        for (EmbNeed &need : needs) {
            for (size_t i = 0; i < b; ++i) {
                h2o_assert(need.table < batch.examples[i].sparse.size(),
                           "example missing sparse feature ", need.table);
                _idPtrScratch[i] = &batch.examples[i].sparse[need.table];
            }
            need.cache = &_ws.scratch("eb_emb_" +
                                          std::to_string(need.table) + "_" +
                                          std::to_string(need.choice),
                                      b, need.width);
            _tables[need.table].byVocabChoice[need.choice]->lookup(
                _idPtrScratch, need.width, *need.cache);
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
                const nn::Tensor &emb = *needs[lt.cacheIdx].cache;
                for (size_t i = 0; i < b; ++i)
                    for (size_t d = 0; d < lt.width; ++d)
                        p0.at(row0 + i, off + d) = emb.at(i, d);
                off += lt.width;
            }
            const nn::Tensor &bo = *bottom_cache[c.bottomSig];
            for (size_t i = 0; i < b; ++i)
                for (size_t d = 0; d < c.bottomW; ++d)
                    p0.at(row0 + i, off + d) = bo.at(i, d);
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
            LayerBank &bank = _top[l];
            if (!full_g.empty()) {
                nn::matmulMaskedGrouped(src, bank.full->weightTensor(),
                                        dst, full_g);
                nn::addBiasGrouped(dst, bank.full->biasTensor(), full_g);
                for (const nn::MaskGroup &grp : full_g)
                    nn::activateTensorRows(bank.full->activation(), dst,
                                           dst, grp.rowBegin, grp.rows,
                                           grp.nAct);
                ++_batchStats.packedPasses;
            }
            if (!lr_u.empty()) {
                nn::matmulMaskedGrouped(src, bank.lowRank->uTensor(),
                                        *hid, lr_u);
                nn::matmulMaskedGrouped(*hid, bank.lowRank->vTensor(),
                                        dst, lr_v);
                nn::addBiasGrouped(dst, bank.lowRank->biasTensor(), lr_v);
                for (const nn::MaskGroup &grp : lr_v)
                    nn::activateTensorRows(bank.lowRank->activation(), dst,
                                           dst, grp.rowBegin, grp.rows,
                                           grp.nAct);
                ++_batchStats.packedPasses;
            }
        }

        // --- Pass 5: packed logit head. Candidates read from the buffer
        // their final top output landed in (depth parity); Identity
        // activation, like _logit->forward().
        nn::Tensor &logits = _ws.scratch("eb_logit", cn * b, 1);
        std::vector<nn::MaskGroup> logit_g[2];
        for (size_t g = 0; g < cn; ++g)
            logit_g[cfgs[g].top.size() % 2].push_back(
                {g * b, b, cfgs[g].logitIn, 1});
        for (size_t parity = 0; parity < 2; ++parity) {
            if (logit_g[parity].empty())
                continue;
            nn::matmulMaskedGrouped(*bufs[parity],
                                    _logit->weightTensor(), logits,
                                    logit_g[parity]);
            nn::addBiasGrouped(logits, _logit->biasTensor(),
                               logit_g[parity]);
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

    setTrainingMode(true);

    std::vector<EvalResult> results(n);
    for (size_t i = 0; i < n; ++i)
        results[i] = distinct_res[ord[i]];
    return results;
}

double
DlrmSupernet::accumulateGradients(const pipeline::Batch &batch)
{
    const nn::Tensor &logits = forward(batch);
    nn::Tensor &labels = _ws.scratch("labels", batch.size(), 1);
    for (size_t i = 0; i < batch.size(); ++i)
        labels.at(i, 0) = batch.examples[i].label;
    nn::LossResult loss = nn::bceWithLogits(logits, labels);
    backward(loss.grad);
    return loss.value;
}

void
DlrmSupernet::applyGradients(double lr)
{
    _optimizer->setLearningRate(lr);
    _optimizer->step();
}

double
DlrmSupernet::trainStep(const pipeline::Batch &batch, double lr)
{
    double loss = accumulateGradients(batch);
    applyGradients(lr);
    return loss;
}

size_t
DlrmSupernet::activeParamCount() const
{
    h2o_assert(_configured, "activeParamCount before configure");
    size_t total = 0;
    for (const auto &bank : _tables) {
        if (bank.activeWidth == 0)
            continue;
        total += bank.byVocabChoice[bank.vocabChoice]->activeParamCount();
    }
    auto stack_params = [](const std::vector<LayerBank> &stack,
                           size_t depth) {
        size_t n = 0;
        for (size_t l = 0; l < depth; ++l) {
            const auto &bank = stack[l];
            n += bank.useLowRank ? bank.lowRank->activeParamCount()
                                 : bank.full->activeParamCount();
        }
        return n;
    };
    total += stack_params(_bottom, _bottomDepth);
    total += stack_params(_top, _topDepth);
    total += _logit->activeParamCount();
    return total;
}

DlrmModel
DlrmSupernet::extractModel() const
{
    h2o_assert(_configured, "extractModel before configure");
    DlrmModel model;
    model.numDenseFeatures = _space.baseline().numDenseFeatures;

    // Throwaway init stream: every extracted weight is overwritten.
    common::Rng scratch(1);

    // --- Embedding tables: copy the active width of the selected
    // vocabulary choice's physical table.
    model.tables.resize(_tables.size());
    for (size_t t = 0; t < _tables.size(); ++t) {
        const TableBank &bank = _tables[t];
        if (bank.activeWidth == 0)
            continue;
        const auto &src = bank.byVocabChoice[bank.vocabChoice];
        auto dst = std::make_unique<nn::EmbeddingTable>(
            src->vocab(), bank.activeWidth, scratch);
        auto src_params =
            const_cast<nn::EmbeddingTable &>(*src).params();
        auto dst_params = dst->params();
        const nn::Tensor &from = *src_params[0].value;
        nn::Tensor &to = *dst_params[0].value;
        for (size_t row = 0; row < src->vocab(); ++row)
            for (size_t d = 0; d < bank.activeWidth; ++d)
                to.at(row, d) = from.at(row, d);
        model.tables[t] = std::move(dst);
    }

    // --- MLP stacks: copy the active submatrices.
    auto extract_stack = [&](const std::vector<LayerBank> &stack,
                             size_t depth) {
        std::vector<ExtractedLayer> out;
        for (size_t l = 0; l < depth; ++l) {
            const LayerBank &bank = stack[l];
            ExtractedLayer layer;
            if (bank.useLowRank) {
                layer.lowRank = std::make_unique<nn::LowRankDenseLayer>(
                    bank.activeIn, bank.activeRank, bank.activeOut,
                    nn::Activation::ReLU, scratch);
                layer.lowRank->setActive(bank.activeIn, bank.activeRank,
                                         bank.activeOut);
                auto src = const_cast<nn::LowRankDenseLayer &>(
                               *bank.lowRank)
                               .params();
                auto dst = layer.lowRank->params();
                // U [in, rank], V [rank, out], b [out]: copy the active
                // upper-left blocks.
                for (size_t r = 0; r < bank.activeIn; ++r)
                    for (size_t c = 0; c < bank.activeRank; ++c)
                        dst[0].value->at(r, c) = src[0].value->at(r, c);
                for (size_t r = 0; r < bank.activeRank; ++r)
                    for (size_t c = 0; c < bank.activeOut; ++c)
                        dst[1].value->at(r, c) = src[1].value->at(r, c);
                for (size_t c = 0; c < bank.activeOut; ++c)
                    (*dst[2].value)[c] = (*src[2].value)[c];
            } else {
                layer.dense = std::make_unique<nn::DenseLayer>(
                    bank.activeIn, bank.activeOut, nn::Activation::ReLU,
                    scratch);
                auto src =
                    const_cast<nn::MaskedDenseLayer &>(*bank.full).params();
                auto dst = layer.dense->params();
                for (size_t r = 0; r < bank.activeIn; ++r)
                    for (size_t c = 0; c < bank.activeOut; ++c)
                        dst[0].value->at(r, c) = src[0].value->at(r, c);
                for (size_t c = 0; c < bank.activeOut; ++c)
                    (*dst[1].value)[c] = (*src[1].value)[c];
            }
            out.push_back(std::move(layer));
        }
        return out;
    };
    model.bottomMlp = extract_stack(_bottom, _bottomDepth);
    model.topMlp = extract_stack(_top, _topDepth);

    // --- Logit layer.
    size_t logit_in = _logit->activeIn();
    model.logitLayer = std::make_unique<nn::DenseLayer>(
        logit_in, 1, nn::Activation::Identity, scratch);
    auto src = const_cast<nn::MaskedDenseLayer &>(*_logit).params();
    auto dst = model.logitLayer->params();
    for (size_t r = 0; r < logit_in; ++r)
        dst[0].value->at(r, 0) = src[0].value->at(r, 0);
    (*dst[1].value)[0] = (*src[1].value)[0];
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
            total += bank.full->maxIn() * bank.full->maxOut() +
                     bank.full->maxOut();
            total += bank.full->maxIn() * bank.full->maxOut() +
                     bank.full->maxOut() * bank.full->maxOut();
        }
    }
    total += _logit->maxIn() + 1;
    return total;
}

void
DlrmSupernet::save(std::ostream &os) const
{
    common::writeTaggedScalar(os, "supernet_tensors",
                              static_cast<double>(_allParams.size()));
    for (size_t i = 0; i < _allParams.size(); ++i) {
        const auto &data = _allParams[i].value->data();
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
    if (tensors != _allParams.size())
        h2o_fatal("supernet checkpoint has ", tensors,
                  " tensors, this supernet has ", _allParams.size());
    for (size_t i = 0; i < _allParams.size(); ++i) {
        auto values = common::readTagged(is, "w" + std::to_string(i));
        auto &data = _allParams[i].value->data();
        if (values.size() != data.size())
            h2o_fatal("supernet checkpoint tensor ", i, " has ",
                      values.size(), " values, expected ", data.size());
        for (size_t j = 0; j < data.size(); ++j)
            data[j] = static_cast<float>(values[j]);
        _allParams[i].grad->zero();
    }
}

} // namespace h2o::supernet
