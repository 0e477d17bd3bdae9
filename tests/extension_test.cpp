// Tests for the extension modules: ridge regression, ROC analysis, STFT,
// detector-model persistence, severity estimation, binary screening.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <numbers>
#include <sstream>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "audio/waveform.hpp"
#include "core/asymmetry.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "sim/probe.hpp"
#include "core/screening.hpp"
#include "core/severity.hpp"
#include "dsp/stft.hpp"
#include "ml/ridge.hpp"
#include "ml/roc.hpp"

namespace earsonar {
namespace {

// ------------------------------------------------------------------ ridge

TEST(LinearSolveTest, SolvesKnownSystem) {
  // 2x + y = 5, x + 3y = 10  ->  x = 1, y = 3.
  const auto x = ml::solve_linear_system({{2, 1}, {1, 3}}, {5, 10});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(LinearSolveTest, PivotsOnZeroDiagonal) {
  const auto x = ml::solve_linear_system({{0, 1}, {1, 0}}, {2, 3});
  EXPECT_NEAR(x[0], 3.0, 1e-10);
  EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(LinearSolveTest, SingularThrows) {
  EXPECT_THROW(ml::solve_linear_system({{1, 2}, {2, 4}}, {1, 2}),
               std::invalid_argument);
}

TEST(RidgeTest, RecoversLinearFunction) {
  Rng rng(1);
  ml::Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(-2, 2), b = rng.uniform(-2, 2);
    x.push_back({a, b});
    y.push_back(3.0 * a - 1.5 * b + 0.5);
  }
  ml::RidgeRegression ridge(ml::RidgeConfig{.lambda = 1e-8});
  ridge.fit(x, y);
  EXPECT_NEAR(ridge.weights()[0], 3.0, 1e-4);
  EXPECT_NEAR(ridge.weights()[1], -1.5, 1e-4);
  EXPECT_NEAR(ridge.intercept(), 0.5, 1e-4);
  EXPECT_NEAR(ridge.predict({1.0, 1.0}), 2.0, 1e-3);
}

TEST(RidgeTest, RegularizationShrinksWeights) {
  Rng rng(2);
  ml::Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double a = rng.uniform(-1, 1);
    x.push_back({a});
    y.push_back(5.0 * a + rng.normal(0, 0.1));
  }
  ml::RidgeRegression loose(ml::RidgeConfig{.lambda = 1e-8});
  ml::RidgeRegression tight(ml::RidgeConfig{.lambda = 100.0});
  loose.fit(x, y);
  tight.fit(x, y);
  EXPECT_LT(std::abs(tight.weights()[0]), std::abs(loose.weights()[0]));
}

TEST(RidgeTest, InterceptNotPenalized) {
  // Constant target: even with huge lambda, the intercept carries the mean.
  const ml::Matrix x{{1.0}, {2.0}, {3.0}};
  const std::vector<double> y{7.0, 7.0, 7.0};
  ml::RidgeRegression ridge(ml::RidgeConfig{.lambda = 1e6});
  ridge.fit(x, y);
  EXPECT_NEAR(ridge.predict({2.0}), 7.0, 1e-3);
}

TEST(RidgeTest, PredictBeforeFitThrows) {
  ml::RidgeRegression ridge;
  EXPECT_THROW((void)ridge.predict({1.0}), std::invalid_argument);
}

// -------------------------------------------------------------------- roc

TEST(RocTest, PerfectSeparationGivesAucOne) {
  const std::vector<double> scores{0.9, 0.8, 0.7, 0.2, 0.1};
  const std::vector<bool> labels{true, true, true, false, false};
  EXPECT_DOUBLE_EQ(ml::auc(scores, labels), 1.0);
}

TEST(RocTest, ReversedScoresGiveAucZero) {
  const std::vector<double> scores{0.1, 0.2, 0.9};
  const std::vector<bool> labels{true, true, false};
  EXPECT_DOUBLE_EQ(ml::auc(scores, labels), 0.0);
}

TEST(RocTest, RandomScoresNearHalf) {
  Rng rng(3);
  std::vector<double> scores(2000);
  std::vector<bool> labels(2000);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = rng.uniform(0, 1);
    labels[i] = rng.bernoulli(0.5);
  }
  EXPECT_NEAR(ml::auc(scores, labels), 0.5, 0.05);
}

TEST(RocTest, TiesCountHalf) {
  const std::vector<double> scores{0.5, 0.5};
  const std::vector<bool> labels{true, false};
  EXPECT_DOUBLE_EQ(ml::auc(scores, labels), 0.5);
}

TEST(RocTest, CurveStartsAtOriginEndsAtOne) {
  const std::vector<double> scores{0.9, 0.6, 0.4, 0.2};
  const std::vector<bool> labels{true, false, true, false};
  const auto curve = ml::roc_curve(scores, labels);
  EXPECT_DOUBLE_EQ(curve.front().true_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(curve.front().false_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().true_positive_rate, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().false_positive_rate, 1.0);
}

TEST(RocTest, CurveIsMonotone) {
  Rng rng(4);
  std::vector<double> scores(100);
  std::vector<bool> labels(100);
  for (std::size_t i = 0; i < 100; ++i) {
    labels[i] = rng.bernoulli(0.4);
    scores[i] = rng.normal(labels[i] ? 1.0 : 0.0, 1.0);
  }
  const auto curve = ml::roc_curve(scores, labels);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].true_positive_rate, curve[i - 1].true_positive_rate);
    EXPECT_GE(curve[i].false_positive_rate, curve[i - 1].false_positive_rate);
  }
}

TEST(RocTest, YoudenThresholdSeparatesPerfectData) {
  const std::vector<double> scores{0.9, 0.8, 0.3, 0.2};
  const std::vector<bool> labels{true, true, false, false};
  const double t = ml::best_youden_threshold(scores, labels);
  EXPECT_GE(t, 0.3);
  EXPECT_LE(t, 0.9);
  // Classifying at t must be perfect.
  for (std::size_t i = 0; i < scores.size(); ++i)
    EXPECT_EQ(scores[i] >= t, labels[i]);
}

TEST(RocTest, SingleClassThrows) {
  const std::vector<double> scores{0.1, 0.2};
  const std::vector<bool> all_positive{true, true};
  EXPECT_THROW(ml::auc(scores, all_positive), std::invalid_argument);
}

// ------------------------------------------------------------------- stft

TEST(StftTest, ToneConcentratesInOneBin) {
  std::vector<double> x(4800);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(2 * std::numbers::pi * 6000.0 * i / 48000.0);
  const auto gram = dsp::stft(x, 48000.0);
  ASSERT_GT(gram.frames(), 0u);
  for (double f : dsp::peak_frequency_track(gram)) EXPECT_NEAR(f, 6000.0, 200.0);
}

TEST(StftTest, TrackFollowsChirpSweep) {
  // A slow chirp 2 kHz -> 10 kHz: the track must rise monotonically-ish.
  std::vector<double> x(48000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) / 48000.0;
    x[i] = std::sin(2 * std::numbers::pi * (2000.0 * t + 4000.0 * t * t));
  }
  const auto gram = dsp::stft(x, 48000.0);
  const auto track = dsp::peak_frequency_track(gram);
  EXPECT_LT(track.front(), 3500.0);
  EXPECT_GT(track.back(), 8000.0);
}

TEST(StftTest, FrameCountMatchesHop) {
  const std::vector<double> x(1024, 1.0);
  dsp::StftConfig cfg;
  cfg.window_length = 256;
  cfg.hop = 128;
  const auto gram = dsp::stft(x, 48000.0, cfg);
  EXPECT_GE(gram.frames(), 6u);
  EXPECT_LE(gram.frames(), 8u);
  EXPECT_EQ(gram.bins(), 129u);
}

TEST(StftTest, AxesAreConsistent) {
  const std::vector<double> x(2048, 0.5);
  const auto gram = dsp::stft(x, 48000.0);
  EXPECT_EQ(gram.time_s.size(), gram.frames());
  EXPECT_DOUBLE_EQ(gram.frequency_hz.front(), 0.0);
  EXPECT_DOUBLE_EQ(gram.frequency_hz.back(), 24000.0);
  for (std::size_t i = 1; i < gram.time_s.size(); ++i)
    EXPECT_GT(gram.time_s[i], gram.time_s[i - 1]);
}

TEST(StftTest, InvalidConfigsRejected) {
  const std::vector<double> x(512, 1.0);
  dsp::StftConfig cfg;
  cfg.fft_size = 100;  // not a power of two
  EXPECT_THROW(dsp::stft(x, 48000.0, cfg), std::invalid_argument);
  cfg = dsp::StftConfig{};
  cfg.hop = cfg.window_length + 1;
  EXPECT_THROW(dsp::stft(x, 48000.0, cfg), std::invalid_argument);
  EXPECT_THROW(dsp::stft(std::vector<double>(16, 1.0), 48000.0, dsp::StftConfig{}),
               std::invalid_argument);
}

// --------------------------------------------------------------- model io

class ModelIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    for (std::size_t c = 0; c < core::kMeeStateCount; ++c)
      for (int i = 0; i < 20; ++i) {
        std::vector<double> row(12);
        for (double& v : row) v = static_cast<double>(c) * 2.0 + rng.normal(0, 0.2);
        features_.push_back(row);
        labels_.push_back(c);
      }
    core::DetectorConfig cfg;
    cfg.selected_features = 6;
    detector_ = std::make_unique<core::MeeDetector>(cfg);
    detector_->fit(features_, labels_);
  }

  ml::Matrix features_;
  std::vector<std::size_t> labels_;
  std::unique_ptr<core::MeeDetector> detector_;
};

TEST_F(ModelIoTest, StreamRoundTripPreservesPredictions) {
  std::stringstream stream;
  core::save_detector(*detector_, stream);
  const core::DetectorModel model = core::load_detector(stream);
  for (std::size_t i = 0; i < features_.size(); ++i) {
    const auto a = detector_->predict(features_[i]);
    const auto b = model.predict(features_[i]);
    EXPECT_EQ(a.state, b.state) << i;
    EXPECT_NEAR(a.distance, b.distance, 1e-9);
    EXPECT_NEAR(a.confidence, b.confidence, 1e-9);
  }
}

TEST_F(ModelIoTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "earsonar_model_test.txt").string();
  core::save_detector_file(*detector_, path);
  const core::DetectorModel model = core::load_detector_file(path);
  EXPECT_EQ(model.feature_dimension(), 12u);
  EXPECT_EQ(model.selected_features.size(), 6u);
  EXPECT_EQ(model.centroids.size(), core::kMeeStateCount);
  std::filesystem::remove(path);
}

TEST_F(ModelIoTest, SnapshotMatchesAccessors) {
  const core::DetectorModel model = core::snapshot(*detector_);
  EXPECT_EQ(model.scaler_mean, detector_->scaler_means());
  EXPECT_EQ(model.selected_features, detector_->selected_features());
  EXPECT_EQ(model.centroids, detector_->centroids());
}

TEST_F(ModelIoTest, UnfittedDetectorRejected) {
  core::MeeDetector empty;
  std::stringstream stream;
  EXPECT_THROW(core::save_detector(empty, stream), std::invalid_argument);
}

TEST(ModelIoErrorsTest, BadMagicRejected) {
  std::stringstream stream("not-a-model 1\n");
  EXPECT_THROW(core::load_detector(stream), std::runtime_error);
}

TEST(ModelIoErrorsTest, BadVersionRejected) {
  std::stringstream stream("earsonar-model 99\n");
  EXPECT_THROW(core::load_detector(stream), std::runtime_error);
}

TEST(ModelIoErrorsTest, TruncatedFileRejected) {
  std::stringstream stream("earsonar-model 1\nscaler_mean 5 1.0 2.0\n");
  EXPECT_THROW(core::load_detector(stream), std::runtime_error);
}

TEST(ModelIoErrorsTest, MissingFileRejected) {
  EXPECT_THROW(core::load_detector_file("/nonexistent/model.txt"), std::runtime_error);
}

// --------------------------------------------------------------- severity

TEST(SeverityTest, RecoversFillFromInformativeFeatures) {
  Rng rng(6);
  ml::Matrix features;
  std::vector<double> fills;
  for (int i = 0; i < 150; ++i) {
    const double fill = rng.uniform(0.0, 1.0);
    // Feature 0 encodes fill with noise; feature 1 is junk.
    features.push_back({fill * 4.0 + rng.normal(0, 0.1), rng.uniform(-1, 1)});
    fills.push_back(fill);
  }
  core::SeverityEstimator estimator;
  estimator.fit(features, fills);
  double mae = 0.0;
  for (std::size_t i = 0; i < features.size(); ++i)
    mae += std::abs(estimator.estimate(features[i]) - fills[i]);
  mae /= static_cast<double>(features.size());
  EXPECT_LT(mae, 0.05);
}

TEST(SeverityTest, EstimatesClampToUnitInterval) {
  const ml::Matrix features{{0.0}, {10.0}};
  const std::vector<double> fills{0.0, 1.0};
  core::SeverityEstimator estimator;
  estimator.fit(features, fills);
  EXPECT_GE(estimator.estimate({-100.0}), 0.0);
  EXPECT_LE(estimator.estimate({1000.0}), 1.0);
}

TEST(SeverityTest, RejectsOutOfRangeFills) {
  const ml::Matrix features{{1.0}};
  core::SeverityEstimator estimator;
  EXPECT_THROW(estimator.fit(features, {1.5}), std::invalid_argument);
}

TEST(SeverityTest, MaeHelper) {
  EXPECT_DOUBLE_EQ(core::mean_absolute_error({1.0, 2.0}, {0.0, 4.0}), 1.5);
  EXPECT_THROW(core::mean_absolute_error({1.0}, {1.0, 2.0}), std::invalid_argument);
}

// -------------------------------------------------------------- screening

TEST(ScreeningTest, SeparableFluidDetection) {
  Rng rng(7);
  ml::Matrix features;
  std::vector<bool> fluid;
  for (int i = 0; i < 120; ++i) {
    const bool has = rng.bernoulli(0.5);
    features.push_back({has ? 1.0 + rng.normal(0, 0.2) : -1.0 + rng.normal(0, 0.2)});
    fluid.push_back(has);
  }
  core::BinaryScreener screener;
  screener.fit(features, fluid);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < features.size(); ++i)
    if (screener.flag(features[i]) == fluid[i]) ++correct;
  EXPECT_GT(static_cast<double>(correct) / features.size(), 0.97);
}

TEST(ScreeningTest, ProbabilityIsCalibratedDirectionally) {
  Rng rng(8);
  ml::Matrix features;
  std::vector<bool> fluid;
  for (int i = 0; i < 100; ++i) {
    const bool has = i % 2 == 0;
    features.push_back({has ? 2.0 : -2.0});
    fluid.push_back(has);
  }
  core::BinaryScreener screener;
  screener.fit(features, fluid);
  EXPECT_GT(screener.fluid_probability({2.0}), 0.9);
  EXPECT_LT(screener.fluid_probability({-2.0}), 0.1);
}

TEST(ScreeningTest, ThresholdAdjustable) {
  core::BinaryScreener screener;
  screener.set_threshold(0.9);
  EXPECT_DOUBLE_EQ(screener.threshold(), 0.9);
  EXPECT_THROW(screener.set_threshold(1.5), std::invalid_argument);
}

TEST(ScreeningTest, FluidLabelsCollapseStates) {
  const std::vector<std::size_t> states{0, 1, 2, 3};
  const auto fluid = core::fluid_labels(states);
  EXPECT_EQ(fluid, (std::vector<bool>{false, true, true, true}));
  EXPECT_THROW(core::fluid_labels({7}), std::invalid_argument);
}

TEST(ScreeningTest, ScoreBeforeFitThrows) {
  core::BinaryScreener screener;
  EXPECT_THROW((void)screener.fluid_probability({1.0}), std::invalid_argument);
}


// ---------------------------------------------------------------- bilateral

TEST(BilateralTest, ContralateralEarIsSimilarButNotIdentical) {
  sim::SubjectFactory factory(42);
  const sim::Subject left = factory.make(0);
  const sim::Subject right = sim::contralateral_ear(left);
  EXPECT_NE(left.seed, right.seed);
  EXPECT_NE(left.canal.length_m, right.canal.length_m);
  // Within-person difference must be far below the anatomical range width.
  EXPECT_LT(std::abs(left.canal.length_m - right.canal.length_m), 0.004);
  EXPECT_NEAR(right.drum.clear_resonance_hz / left.drum.clear_resonance_hz, 1.0, 0.05);
}

TEST(BilateralTest, ContralateralIsDeterministic) {
  sim::SubjectFactory factory(42);
  const sim::Subject left = factory.make(1);
  const sim::Subject a = sim::contralateral_ear(left);
  const sim::Subject b = sim::contralateral_ear(left);
  EXPECT_DOUBLE_EQ(a.canal.length_m, b.canal.length_m);
  EXPECT_EQ(a.seed, b.seed);
}

TEST(BilateralTest, AsymmetryZeroForIdenticalSpectra) {
  dsp::Spectrum s;
  for (int i = 0; i < 16; ++i) {
    s.frequency_hz.push_back(16000.0 + 250.0 * i);
    s.psd.push_back(0.1 + 0.01 * i);
  }
  EXPECT_NEAR(core::spectral_asymmetry(s, s), 0.0, 1e-12);
}

TEST(BilateralTest, AsymmetryGrowsWithLevelGap) {
  dsp::Spectrum a, b, c;
  for (int i = 0; i < 16; ++i) {
    const double f = 16000.0 + 250.0 * i;
    a.frequency_hz.push_back(f);
    b.frequency_hz.push_back(f);
    c.frequency_hz.push_back(f);
    a.psd.push_back(0.1);
    b.psd.push_back(0.05);   // 2x quieter
    c.psd.push_back(0.01);   // 10x quieter
  }
  EXPECT_LT(core::spectral_asymmetry(a, b), core::spectral_asymmetry(a, c));
}

TEST(BilateralTest, AsymmetryIsSymmetric) {
  dsp::Spectrum a, b;
  for (int i = 0; i < 8; ++i) {
    a.frequency_hz.push_back(i);
    b.frequency_hz.push_back(i);
    a.psd.push_back(0.2 + 0.05 * i);
    b.psd.push_back(0.4 - 0.03 * i);
  }
  EXPECT_DOUBLE_EQ(core::spectral_asymmetry(a, b), core::spectral_asymmetry(b, a));
}

TEST(BilateralTest, GridMismatchThrows) {
  dsp::Spectrum a, b;
  a.frequency_hz = {1, 2};
  a.psd = {1, 1};
  b.frequency_hz = {1};
  b.psd = {1};
  EXPECT_THROW(core::spectral_asymmetry(a, b), std::invalid_argument);
}

TEST(BilateralTest, UnilateralFluidFlagsSuspectEar) {
  core::EarSonar pipeline;
  sim::SubjectFactory factory(42);
  const sim::Subject left = factory.make(2);
  const sim::Subject right = sim::contralateral_ear(left);
  sim::ProbeConfig pc;
  pc.chirp_count = 16;
  sim::EarProbe probe(pc);
  Rng rng_l(1), rng_r(2);
  const auto rec_l = probe.record_state(left, sim::EffusionState::kClear,
                                        sim::reference_earphone(), {}, rng_l);
  const auto rec_r = probe.record_state(right, sim::EffusionState::kMucoid,
                                        sim::reference_earphone(), {}, rng_r);
  const auto result =
      core::screen_bilateral(pipeline.analyze(rec_l), pipeline.analyze(rec_r));
  EXPECT_TRUE(result.flagged);
  EXPECT_EQ(result.suspect_ear, +1);  // the right (fluid) ear is quieter
  EXPECT_LT(result.right_level, result.left_level);
}

TEST(BilateralTest, HealthyPairNotFlagged) {
  core::EarSonar pipeline;
  sim::SubjectFactory factory(42);
  const sim::Subject left = factory.make(3);
  const sim::Subject right = sim::contralateral_ear(left);
  sim::ProbeConfig pc;
  pc.chirp_count = 16;
  sim::EarProbe probe(pc);
  Rng rng_l(3), rng_r(4);
  const auto rec_l = probe.record_state(left, sim::EffusionState::kClear,
                                        sim::reference_earphone(), {}, rng_l);
  const auto rec_r = probe.record_state(right, sim::EffusionState::kClear,
                                        sim::reference_earphone(), {}, rng_r);
  const auto result =
      core::screen_bilateral(pipeline.analyze(rec_l), pipeline.analyze(rec_r));
  EXPECT_FALSE(result.flagged);
  EXPECT_EQ(result.suspect_ear, 0);
}

TEST(BilateralTest, UnusableAnalysisRejected) {
  core::EarSonar pipeline;
  const auto silent = pipeline.analyze(audio::Waveform::silence(2400, 48000.0));
  EXPECT_THROW((void)core::screen_bilateral(silent, silent), std::invalid_argument);
}

}  // namespace
}  // namespace earsonar
