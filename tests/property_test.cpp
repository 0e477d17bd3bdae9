// Property-style parameterized sweeps across module configurations:
// invariants that must hold for *every* parameter combination, not just the
// defaults the other suites exercise.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <tuple>

#include "audio/chirp.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/pipeline.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/goertzel.hpp"
#include "ml/kmeans.hpp"
#include "sim/dataset.hpp"

namespace earsonar {
namespace {

// ------------------------------------------------ chirp design sweep

// (start_hz, bandwidth_hz, duration_ms)
using ChirpParam = std::tuple<double, double, double>;

class ChirpDesignSweep : public ::testing::TestWithParam<ChirpParam> {};

TEST_P(ChirpDesignSweep, EnergyStaysInsideTheSweptBand) {
  const auto [f0, bw, dur_ms] = GetParam();
  audio::FmcwConfig cfg;
  cfg.start_hz = f0;
  cfg.bandwidth_hz = bw;
  cfg.duration_s = dur_ms / 1000.0;
  cfg.interval_s = cfg.duration_s * 4;
  const audio::Waveform pulse = audio::make_chirp(cfg);

  const double band_center = f0 + bw / 2.0;
  const double in_band = dsp::goertzel_power(pulse.view(), band_center, cfg.sample_rate);
  // Probe far outside the band (half the start frequency).
  const double out_band = dsp::goertzel_power(pulse.view(), f0 / 2.0, cfg.sample_rate);
  EXPECT_GT(in_band, 5.0 * std::max(out_band, 1e-15))
      << "f0=" << f0 << " bw=" << bw << " T=" << dur_ms;
}

TEST_P(ChirpDesignSweep, TrainLengthAndDeterminism) {
  const auto [f0, bw, dur_ms] = GetParam();
  audio::FmcwConfig cfg;
  cfg.start_hz = f0;
  cfg.bandwidth_hz = bw;
  cfg.duration_s = dur_ms / 1000.0;
  cfg.interval_s = cfg.duration_s * 4;
  const audio::Waveform a = audio::make_chirp_train(cfg, 3);
  const audio::Waveform b = audio::make_chirp_train(cfg, 3);
  EXPECT_EQ(a.size(), 3u * cfg.interval_samples());
  EXPECT_EQ(a.samples(), b.samples());
}

INSTANTIATE_TEST_SUITE_P(
    Designs, ChirpDesignSweep,
    ::testing::Values(ChirpParam{16000, 4000, 0.5},   // the paper's probe
                      ChirpParam{16000, 4000, 1.0},   // longer dwell
                      ChirpParam{14000, 6000, 0.5},   // wider band
                      ChirpParam{18000, 2000, 0.5},   // narrow high band
                      ChirpParam{8000, 4000, 2.0}));  // audible variant

// ------------------------------------------------ Butterworth band sweep

using BandParam = std::tuple<int, double, double>;  // order, low, high

class ButterworthBandSweep : public ::testing::TestWithParam<BandParam> {};

TEST_P(ButterworthBandSweep, StableAndSelective) {
  const auto [order, low, high] = GetParam();
  const auto f = dsp::butterworth_bandpass(order, low, high, 48000.0);
  EXPECT_TRUE(f.is_stable());
  // Unity-ish at the geometric center.
  EXPECT_NEAR(f.magnitude_at(std::sqrt(low * high), 48000.0), 1.0, 0.05);
  // Attenuating well outside (an octave below the low edge).
  EXPECT_LT(f.magnitude_at(low / 2.0, 48000.0), 0.5);
}

TEST_P(ButterworthBandSweep, FiltfiltIsZeroPhaseAtCenter) {
  const auto [order, low, high] = GetParam();
  const auto f = dsp::butterworth_bandpass(order, low, high, 48000.0);
  // A tone at band center must come through filtfilt nearly unchanged and
  // exactly in phase (zero-phase property).
  const double fc = std::sqrt(low * high);
  std::vector<double> x(4096);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(2 * std::numbers::pi * fc * i / 48000.0);
  const auto y = f.filtfilt(x);
  // Compare mid-signal samples directly (edges have transients).
  double err = 0.0;
  for (std::size_t i = 1024; i < 3072; ++i) err = std::max(err, std::abs(y[i] - x[i]));
  EXPECT_LT(err, 0.12) << "order=" << order;
}

INSTANTIATE_TEST_SUITE_P(Bands, ButterworthBandSweep,
                         ::testing::Values(BandParam{2, 15000, 21000},
                                           BandParam{4, 15000, 21000},
                                           BandParam{6, 15000, 21000},
                                           BandParam{4, 1000, 2000},
                                           BandParam{4, 8000, 12000},
                                           BandParam{3, 300, 4000}));

// ------------------------------------------------ k-means sweep

using KMeansParam = std::tuple<std::size_t, std::size_t>;  // k, dimensions

class KMeansSweep : public ::testing::TestWithParam<KMeansParam> {};

TEST_P(KMeansSweep, SeparatedBlobsAreRecoveredAtAnyDimension) {
  const auto [k, dims] = GetParam();
  Rng rng(17 + k * 10 + dims);
  ml::Matrix data;
  std::vector<std::size_t> truth;
  for (std::size_t c = 0; c < k; ++c)
    for (int i = 0; i < 15; ++i) {
      std::vector<double> row(dims);
      for (std::size_t d = 0; d < dims; ++d)
        row[d] = static_cast<double>(c) * 8.0 + rng.normal(0, 0.4);
      data.push_back(row);
      truth.push_back(c);
    }
  ml::KMeansConfig cfg;
  cfg.k = k;
  const auto result = ml::KMeans(cfg).fit(data);
  // Every cluster must be label-pure.
  for (std::size_t i = 0; i < data.size(); ++i)
    for (std::size_t j = i + 1; j < data.size(); ++j)
      if (truth[i] == truth[j]) {
        EXPECT_EQ(result.labels[i], result.labels[j])
            << "k=" << k << " dims=" << dims;
      }
}

TEST_P(KMeansSweep, InertiaIsSumOfSquaredResiduals) {
  const auto [k, dims] = GetParam();
  Rng rng(31 + k + dims);
  ml::Matrix data;
  for (std::size_t i = 0; i < 20 * k; ++i) {
    std::vector<double> row(dims);
    for (double& v : row) v = rng.uniform(-5, 5);
    data.push_back(row);
  }
  ml::KMeansConfig cfg;
  cfg.k = k;
  const auto result = ml::KMeans(cfg).fit(data);
  double recomputed = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i)
    recomputed += ml::squared_distance(data[i], result.centroids[result.labels[i]]);
  EXPECT_NEAR(result.inertia, recomputed, 1e-9 * (1.0 + recomputed));
}

INSTANTIATE_TEST_SUITE_P(Shapes, KMeansSweep,
                         ::testing::Values(KMeansParam{2, 2}, KMeansParam{3, 5},
                                           KMeansParam{4, 25}, KMeansParam{5, 3},
                                           KMeansParam{4, 105}));

// ------------------------------------------------ spectrum config sweep

class SpectrumConfigSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpectrumConfigSweep, BandBinsRespectedEndToEnd) {
  const std::size_t bins = GetParam();
  core::PipelineConfig pc;
  pc.features.spectrum.band_bins = bins;
  core::EarSonar pipeline(pc);

  sim::SubjectFactory factory(42);
  sim::ProbeConfig probe_cfg;
  probe_cfg.chirp_count = 8;
  sim::EarProbe probe(probe_cfg);
  Rng rng(1);
  const audio::Waveform rec = probe.record_state(
      factory.make(0), sim::EffusionState::kClear, sim::reference_earphone(), {}, rng);
  const auto analysis = pipeline.analyze(rec);
  ASSERT_TRUE(analysis.usable());
  EXPECT_EQ(analysis.mean_spectrum.size(), bins);
  EXPECT_EQ(analysis.features.size(), pipeline.feature_dimension());
}

INSTANTIATE_TEST_SUITE_P(Bins, SpectrumConfigSweep, ::testing::Values(32, 64, 128, 200));

// ------------------------------------------------ feature layout sweep

using LayoutParam = std::tuple<std::size_t, std::size_t, std::size_t>;

class FeatureLayoutSweep : public ::testing::TestWithParam<LayoutParam> {};

TEST_P(FeatureLayoutSweep, DimensionFormulaAndNamesAgree) {
  const auto [groups, coeffs, bands] = GetParam();
  core::FeatureConfig cfg;
  cfg.time_groups = groups;
  cfg.mfcc_coefficients = coeffs;
  cfg.subband_powers = bands;
  EXPECT_EQ(cfg.dimension(), groups * coeffs + bands + cfg.psd_samples + 12);
  // Every slot must have a unique printable name.
  std::set<std::string> names;
  for (std::size_t i = 0; i < cfg.dimension(); ++i)
    names.insert(core::feature_name(cfg, i));
  EXPECT_EQ(names.size(), cfg.dimension());
}

INSTANTIATE_TEST_SUITE_P(Layouts, FeatureLayoutSweep,
                         ::testing::Values(LayoutParam{3, 13, 30},  // paper default
                                           LayoutParam{1, 13, 30},
                                           LayoutParam{2, 8, 16},
                                           LayoutParam{4, 20, 8}));

// ------------------------------------------------ end-to-end seed sweep

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, SmallCohortAccuracyIsStableAcrossSeeds) {
  // The system's separability must not hinge on one lucky cohort seed.
  sim::CohortConfig cc;
  cc.subject_count = 10;
  cc.sessions_per_state = 1;
  cc.probe.chirp_count = 20;
  cc.seed = GetParam();
  const auto recs = sim::CohortGenerator(cc).generate();

  core::EarSonar pipeline;
  ml::Matrix features;
  std::vector<std::size_t> labels;
  for (const auto& rec : recs) {
    auto analysis = pipeline.analyze(rec.waveform);
    ASSERT_TRUE(analysis.usable());
    features.push_back(std::move(analysis.features));
    labels.push_back(sim::state_index(rec.state));
  }
  core::MeeDetector detector;
  detector.fit(features, labels);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < features.size(); ++i)
    if (detector.predict(features[i]).state == labels[i]) ++correct;
  // Training-set fit on separable data: high bar, every seed.
  EXPECT_GT(static_cast<double>(correct) / features.size(), 0.8)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace earsonar
