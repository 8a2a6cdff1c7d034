/**
 * @file
 * Unit tests for the two-phase hybrid performance model: feature
 * encoders, the dual-head MLP regressor, polynomial calibration, the
 * hardware oracle, and the Table-1 dynamic (pre-trained model is
 * systematically wrong on "hardware"; fine-tuning fixes it). Also the
 * threading contracts: training is bit-identical whether its kernels
 * split across CPUs or run inline (in a pool task or a forked worker),
 * and predict()/predictBatch() are safe to call from many threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>

#include "arch/dlrm_arch.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exec/proc_transport.h"
#include "exec/thread_pool.h"
#include "perfmodel/features.h"
#include "perfmodel/hardware_oracle.h"
#include "perfmodel/perf_model.h"
#include "perfmodel/two_phase.h"
#include "searchspace/dlrm_space.h"

namespace pm = h2o::perfmodel;
namespace ss = h2o::searchspace;
namespace arch = h2o::arch;
namespace ex = h2o::exec;
using h2o::common::Rng;

namespace {

/** Synthetic design matrix at the perf model's real feature width. */
struct DesignMatrix
{
    std::vector<std::vector<double>> features;
    std::vector<std::array<double, 2>> targets;
};

DesignMatrix
syntheticDesign(size_t rows, size_t dim, uint64_t seed)
{
    Rng rng(seed);
    DesignMatrix d;
    for (size_t i = 0; i < rows; ++i) {
        std::vector<double> f(dim);
        double s = 0.0;
        for (size_t j = 0; j < dim; ++j) {
            f[j] = rng.uniform(-1.0, 1.0);
            s += f[j] * double(j % 5) * 0.05;
        }
        d.features.push_back(std::move(f));
        d.targets.push_back({std::exp(s), std::exp(0.5 * s + 1.0)});
    }
    return d;
}

pm::PerfModelConfig
smallConfig()
{
    pm::PerfModelConfig cfg;
    cfg.hiddenWidth = 128;
    cfg.epochs = 3;
    return cfg;
}

/** save() bytes of a small perf model trained on the calling thread. */
std::string
trainedModelBytes()
{
    DesignMatrix d = syntheticDesign(1024, 87, 17);
    Rng rng(18);
    pm::PerfModel model(87, smallConfig(), rng);
    model.train(d.features, d.targets, rng);
    std::ostringstream os;
    model.save(os);
    return os.str();
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

arch::DlrmArch
smallDlrm()
{
    arch::DlrmArch a;
    a.numDenseFeatures = 4;
    a.tables = {{10000, 16, 1.0}, {5000, 8, 1.0}};
    a.bottomMlp = {{32, 0}};
    a.topMlp = {{64, 0}, {32, 0}};
    a.globalBatch = 4096;
    return a;
}

} // namespace

// ------------------------------------------------------------ features

TEST(Features, DlrmEncoderFixedDim)
{
    ss::DlrmSearchSpace space(smallDlrm());
    pm::DlrmFeatureEncoder enc(space);
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        auto f = enc.encode(space.decisions().uniformSample(rng));
        EXPECT_EQ(f.size(), enc.dim());
        for (double v : f)
            EXPECT_TRUE(std::isfinite(v));
    }
}

TEST(Features, DistinctSamplesUsuallyDistinctFeatures)
{
    ss::DlrmSearchSpace space(smallDlrm());
    pm::DlrmFeatureEncoder enc(space);
    Rng rng(2);
    auto f1 = enc.encode(space.decisions().uniformSample(rng));
    auto f2 = enc.encode(space.decisions().uniformSample(rng));
    EXPECT_NE(f1, f2);
}

// ------------------------------------------------------------- polyfit

TEST(PolyFit, RecoversExactPolynomial)
{
    std::vector<double> xs, ys;
    for (double x = -2.0; x <= 2.0; x += 0.25) {
        xs.push_back(x);
        ys.push_back(1.0 - 2.0 * x + 0.5 * x * x);
    }
    auto c = pm::polyFit(xs, ys, 2);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_NEAR(c[0], 1.0, 1e-9);
    EXPECT_NEAR(c[1], -2.0, 1e-9);
    EXPECT_NEAR(c[2], 0.5, 1e-9);
}

TEST(PolyFit, UnderdeterminedPanics)
{
    EXPECT_DEATH(pm::polyFit({1.0, 2.0}, {1.0, 2.0}, 3),
                 "underdetermined");
}

// -------------------------------------------------------------- oracle

TEST(Oracle, SystematicBiasIsDeterministicAndBounded)
{
    pm::OracleConfig cfg;
    cfg.biasAmplitude = 0.25;
    cfg.biasOffset = 0.08;
    pm::HardwareOracle oracle(cfg, 99);
    double t = oracle.systematic(0.01);
    EXPECT_DOUBLE_EQ(t, oracle.systematic(0.01));
    // log-space bias bounded by amplitude + offset.
    double max_factor = std::exp(0.25 + 0.08);
    EXPECT_LE(t, 0.01 * max_factor * 1.0001);
    EXPECT_GE(t, 0.01 / max_factor * 0.9999);
}

TEST(Oracle, DifferentSeedsDifferentPhase)
{
    pm::HardwareOracle a({}, 1);
    pm::HardwareOracle b({}, 2);
    EXPECT_NE(a.systematic(0.02), b.systematic(0.02));
}

TEST(Oracle, MeasurementNoiseIsSmall)
{
    pm::OracleConfig cfg;
    cfg.noiseRelStd = 0.01;
    pm::HardwareOracle oracle(cfg, 5);
    double sys = oracle.systematic(0.05);
    for (int i = 0; i < 20; ++i) {
        auto m = oracle.measure(0.05, 0.01);
        EXPECT_NEAR(m.trainStepTimeSec / sys, 1.0, 0.06);
    }
}

// ----------------------------------------------------------- PerfModel

TEST(PerfModel, LearnsSmoothFunctionOfFeatures)
{
    // Targets: t = exp(0.2*f0 + 0.1*f1), s = exp(0.1*f0 - 0.2*f1).
    Rng rng(3);
    std::vector<std::vector<double>> features;
    std::vector<std::array<double, 2>> targets;
    for (int i = 0; i < 2000; ++i) {
        double f0 = rng.uniform(-2, 2), f1 = rng.uniform(-2, 2);
        features.push_back({f0, f1});
        targets.push_back(
            {std::exp(0.2 * f0 + 0.1 * f1), std::exp(0.1 * f0 - 0.2 * f1)});
    }
    pm::PerfModelConfig cfg;
    cfg.hiddenWidth = 32;
    cfg.epochs = 60;
    pm::PerfModel model(2, cfg, rng);
    model.train(features, targets, rng);

    double err = 0.0;
    int n = 0;
    for (int i = 0; i < 100; ++i) {
        double f0 = rng.uniform(-1.5, 1.5), f1 = rng.uniform(-1.5, 1.5);
        auto p = model.predict({f0, f1});
        double truth = std::exp(0.2 * f0 + 0.1 * f1);
        err += std::abs(p.trainStepTimeSec - truth) / truth;
        ++n;
    }
    EXPECT_LT(err / n, 0.05); // < 5% mean relative error
}

TEST(PerfModel, CalibrationShiftsPredictions)
{
    Rng rng(4);
    pm::PerfModelConfig cfg;
    cfg.hiddenWidth = 16;
    cfg.epochs = 20;
    pm::PerfModel model(1, cfg, rng);
    std::vector<std::vector<double>> f = {{0.0}, {1.0}, {2.0}, {-1.0}};
    std::vector<std::array<double, 2>> y = {
        {1.0, 1.0}, {2.0, 2.0}, {4.0, 4.0}, {0.5, 0.5}};
    model.train(f, y, rng);
    double raw = model.predict({1.0}).trainStepTimeSec;
    // Calibration log_pred -> log_pred + ln(2) doubles predictions.
    model.setCalibration(0, {std::log(2.0), 1.0});
    EXPECT_NEAR(model.predict({1.0}).trainStepTimeSec, 2.0 * raw, 1e-9);
    model.clearCalibration();
    EXPECT_NEAR(model.predict({1.0}).trainStepTimeSec, raw, 1e-9);
}

// Training on the main thread splits kernels across CPUs; in a pool task
// every call runs inline. The checkpoints must be the same bytes.
TEST(PerfModel, TrainedBytesSameInlineAndSplit)
{
    std::string inline_bytes;
    {
        ex::ThreadPool pool(1);
        pool.submit([&] { inline_bytes = trainedModelBytes(); }).get();
    }
    const size_t splits_before = h2o::common::parallelSplitCount();
    std::string split_bytes = trainedModelBytes();
    if (h2o::common::parallelWidth() > 1) {
        EXPECT_GT(h2o::common::parallelSplitCount(), splits_before);
    }
    EXPECT_EQ(inline_bytes, split_bytes);
}

// A forked ProcPool worker never uses the parent's helper threads (fork
// copies only the calling thread): it trains inline, returns the same
// bytes, and does not hang waiting on helpers that are not there.
TEST(PerfModel, ForkedWorkerTrainsInlineAfterParentSplit)
{
    ex::ProcTaskRegistration task(
        "test/perfmodel_train",
        [](uint64_t, uint64_t, const std::string &) {
            return trainedModelBytes();
        });
    const size_t splits_before = h2o::common::parallelSplitCount();
    std::string parent_bytes = trainedModelBytes(); // starts the helpers
    if (h2o::common::parallelWidth() > 1) {
        ASSERT_GT(h2o::common::parallelSplitCount(), splits_before);
    }
    ex::ProcPool pool(1);
    auto reply = pool.call(0, "test/perfmodel_train", 0, 0, "");
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, parent_bytes);
}

// predict() and predictBatch() are const and write only per-call
// scratch: four threads hammering one trained model must each get the
// serial results, bit for bit.
TEST(PerfModel, ConcurrentPredictionsMatchSerial)
{
    DesignMatrix d = syntheticDesign(512, 87, 19);
    Rng rng(20);
    pm::PerfModel model(87, smallConfig(), rng);
    model.train(d.features, d.targets, rng);
    std::vector<std::vector<double>> rows(d.features.begin(),
                                          d.features.begin() + 64);
    std::vector<pm::PerfPrediction> serial_one;
    for (const auto &row : rows)
        serial_one.push_back(model.predict(row));
    std::vector<pm::PerfPrediction> serial_batch = model.predictBatch(rows);

    auto same = [](const pm::PerfPrediction &a, const pm::PerfPrediction &b) {
        return sameBits(a.trainStepTimeSec, b.trainStepTimeSec) &&
               sameBits(a.servingTimeSec, b.servingTimeSec);
    };
    std::atomic<size_t> mismatches{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (size_t iter = 0; iter < 40; ++iter) {
                size_t i = (t * 17 + iter) % rows.size();
                if (!same(model.predict(rows[i]), serial_one[i]))
                    ++mismatches;
                auto batch = model.predictBatch(rows);
                for (size_t j = 0; j < rows.size(); ++j)
                    if (!same(batch[j], serial_batch[j]))
                        ++mismatches;
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0u);
}

TEST(PerfModel, PredictBeforeTrainPanics)
{
    Rng rng(5);
    pm::PerfModel model(2, {}, rng);
    EXPECT_DEATH(model.predict({1.0, 2.0}), "before train");
}

// ----------------------------------------------------------- two-phase

TEST(TwoPhase, ReproducesTable1Dynamic)
{
    // Pre-train on the "simulator" (a synthetic smooth function),
    // evaluate against the biased oracle: large NRMSE. Fine-tune with
    // 20 measurements: NRMSE collapses by ~an order of magnitude.
    ss::DlrmSearchSpace space(smallDlrm());
    pm::DlrmFeatureEncoder enc(space);

    auto simulate = [&](const ss::Sample &s) {
        arch::DlrmArch a = space.decode(s);
        // A smooth stand-in for the simulator: time grows with compute.
        double t = 1e-3 * (1.0 + a.flopsPerExample() / 1e6);
        return pm::SimTimes{t, t * 0.3};
    };
    pm::OracleConfig ocfg;
    ocfg.biasAmplitude = 0.3;
    ocfg.biasOffset = 0.1;
    pm::HardwareOracle oracle(ocfg, 77);
    pm::TwoPhaseTrainer trainer(space.decisions(), enc, simulate, oracle);

    Rng rng(6);
    pm::PerfModelConfig mcfg;
    mcfg.hiddenWidth = 64;
    mcfg.epochs = 40;
    pm::PerfModel model(enc.dim(), mcfg, rng);

    auto pre = trainer.pretrain(model, 2000, rng);
    EXPECT_LT(pre.train, 0.05); // accurate on simulator labels

    auto before = trainer.evaluateAgainstOracle(model, 200, rng);
    trainer.finetune(model, 20, rng);
    auto after = trainer.evaluateAgainstOracle(model, 200, rng);

    EXPECT_GT(before.train, 0.08); // systematically wrong pre-finetune
    EXPECT_LT(after.train, before.train / 2.0);
    EXPECT_LT(after.train, 0.06);
}

TEST(TwoPhase, FinetuneBeforePretrainPanics)
{
    ss::DlrmSearchSpace space(smallDlrm());
    pm::DlrmFeatureEncoder enc(space);
    auto simulate = [](const ss::Sample &) {
        return pm::SimTimes{1.0, 1.0};
    };
    pm::TwoPhaseTrainer trainer(space.decisions(), enc, simulate,
                                pm::HardwareOracle({}, 1));
    Rng rng(7);
    pm::PerfModel model(enc.dim(), {}, rng);
    EXPECT_DEATH(trainer.finetune(model, 20, rng), "before pretrain");
}
