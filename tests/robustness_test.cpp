// Failure-injection tests: malformed, degenerate, and hostile inputs must
// degrade gracefully — clean exceptions at API boundaries, empty results for
// echo-less audio, never crashes or NaN-poisoned features.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "audio/chirp.hpp"
#include "audio/noise.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "dsp/interpolate.hpp"
#include "sim/dataset.hpp"

namespace earsonar {
namespace {

core::EarSonar& shared_pipeline() {
  static core::EarSonar pipeline;
  return pipeline;
}

audio::Waveform simulated_recording(std::uint32_t subject_id, std::size_t chirps,
                                    sim::EffusionState state, std::uint64_t seed) {
  sim::SubjectFactory factory(42);
  sim::ProbeConfig pc;
  pc.chirp_count = chirps;
  sim::EarProbe probe(pc);
  Rng rng(seed);
  return probe.record_state(factory.make(subject_id), state,
                            sim::reference_earphone(), {}, rng);
}

// -------------------------------------------------- degenerate recordings

TEST(RobustnessTest, PureSilenceYieldsNoEchoes) {
  const audio::Waveform silence = audio::Waveform::silence(4800, 48000.0);
  const auto analysis = shared_pipeline().analyze(silence);
  EXPECT_TRUE(analysis.events.empty());
  EXPECT_FALSE(analysis.usable());
}

TEST(RobustnessTest, PureNoiseYieldsAtMostSpuriousBlips) {
  // Stationary noise has no chirp train; at worst an isolated fluctuation
  // mimics one event. Features, if any, must stay finite — downstream the
  // per-recording averaging and the detector's confidence handle such blips.
  Rng rng(1);
  audio::Waveform noise =
      audio::make_noise(audio::NoiseColor::kWhite, 9600, 48000.0, rng);
  noise.scale(0.001);
  const auto analysis = shared_pipeline().analyze(noise);
  EXPECT_LE(analysis.echoes.size(), 3u);
  if (analysis.usable()) {
    for (double f : analysis.features) EXPECT_TRUE(std::isfinite(f));
  }
}

TEST(RobustnessTest, SingleChirpRecordingStillAnalyzes) {
  const audio::Waveform rec =
      simulated_recording(0, 1, sim::EffusionState::kClear, 2);
  const auto analysis = shared_pipeline().analyze(rec);
  EXPECT_TRUE(analysis.usable());
  EXPECT_EQ(analysis.echoes.size(), 1u);
  for (double f : analysis.features) EXPECT_TRUE(std::isfinite(f));
}

TEST(RobustnessTest, TruncatedMidChirpRecordingDoesNotCrash) {
  const audio::Waveform rec =
      simulated_recording(1, 4, sim::EffusionState::kSerous, 3);
  // Cut in the middle of the last chirp.
  const audio::Waveform cut = rec.slice(0, 3 * 240 + 12);
  const auto analysis = shared_pipeline().analyze(cut);
  EXPECT_GE(analysis.events.size(), 3u);
  if (analysis.usable()) {
    for (double f : analysis.features) EXPECT_TRUE(std::isfinite(f));
  }
}

TEST(RobustnessTest, HardClippedRecordingStaysFinite) {
  audio::Waveform rec = simulated_recording(2, 8, sim::EffusionState::kMucoid, 4);
  for (double& s : rec.samples()) s = std::clamp(s * 50.0, -1.0, 1.0);
  const auto analysis = shared_pipeline().analyze(rec);
  if (analysis.usable()) {
    for (double f : analysis.features) EXPECT_TRUE(std::isfinite(f));
  }
}

TEST(RobustnessTest, DcOffsetIsFilteredOut) {
  audio::Waveform rec = simulated_recording(3, 8, sim::EffusionState::kClear, 5);
  for (double& s : rec.samples()) s += 0.4;  // massive DC bias
  const auto analysis = shared_pipeline().analyze(rec);
  EXPECT_TRUE(analysis.usable());
  // The DC step at sample 0 creates a filter edge transient that may cost the
  // very first chirp; everything else must survive.
  EXPECT_GE(analysis.echoes.size(), 7u);
}

TEST(RobustnessTest, LowFrequencyRumbleIsRejected) {
  audio::Waveform rec = simulated_recording(4, 8, sim::EffusionState::kSerous, 6);
  for (std::size_t i = 0; i < rec.size(); ++i)
    rec.samples()[i] += 0.5 * std::sin(2 * std::numbers::pi * 50.0 * i / 48000.0);
  const auto analysis = shared_pipeline().analyze(rec);
  EXPECT_TRUE(analysis.usable());
  EXPECT_EQ(analysis.echoes.size(), 8u);
}

TEST(RobustnessTest, ExtremeAmbientNoiseDegradesButNeverCrashes) {
  sim::SubjectFactory factory(42);
  sim::ProbeConfig pc;
  pc.chirp_count = 10;
  sim::EarProbe probe(pc);
  sim::RecordingCondition hostile;
  hostile.noise_spl_db = 100.0;  // rock-concert clinic
  Rng rng(7);
  const audio::Waveform rec = probe.record_state(
      factory.make(5), sim::EffusionState::kClear, sim::reference_earphone(),
      hostile, rng);
  const auto analysis = shared_pipeline().analyze(rec);
  if (analysis.usable()) {
    for (double f : analysis.features) EXPECT_TRUE(std::isfinite(f));
  }
}

TEST(RobustnessTest, VeryShortRecordingHandled) {
  const audio::Waveform tiny = audio::Waveform::silence(64, 48000.0);
  const auto analysis = shared_pipeline().analyze(tiny);
  EXPECT_FALSE(analysis.usable());
}

// ------------------------------------------------------- pipeline training

TEST(RobustnessTest, FitSkipsUnusableRecordings) {
  sim::CohortConfig cc;
  cc.subject_count = 5;
  cc.sessions_per_state = 1;
  cc.probe.chirp_count = 10;
  const auto recs = sim::CohortGenerator(cc).generate();
  std::vector<audio::Waveform> waves;
  std::vector<std::size_t> labels;
  for (const auto& r : recs) {
    waves.push_back(r.waveform);
    labels.push_back(sim::state_index(r.state));
  }
  // Poison a few entries with silence; fit must skip them and still train.
  waves[3] = audio::Waveform::silence(2400, 48000.0);
  waves[11] = audio::Waveform::silence(2400, 48000.0);
  core::EarSonar pipeline;
  EXPECT_NO_THROW(pipeline.fit(waves, labels));
  EXPECT_TRUE(pipeline.fitted());
}

TEST(RobustnessTest, FitWithAllSilenceThrowsCleanly) {
  std::vector<audio::Waveform> waves(8, audio::Waveform::silence(2400, 48000.0));
  std::vector<std::size_t> labels{0, 1, 2, 3, 0, 1, 2, 3};
  core::EarSonar pipeline;
  EXPECT_THROW(pipeline.fit(waves, labels), std::invalid_argument);
}

TEST(RobustnessTest, DiagnoseSilentRecordingReturnsNullopt) {
  sim::CohortConfig cc;
  cc.subject_count = 6;
  cc.sessions_per_state = 1;
  cc.probe.chirp_count = 10;
  const auto recs = sim::CohortGenerator(cc).generate();
  std::vector<audio::Waveform> waves;
  std::vector<std::size_t> labels;
  for (const auto& r : recs) {
    waves.push_back(r.waveform);
    labels.push_back(sim::state_index(r.state));
  }
  core::EarSonar pipeline;
  pipeline.fit(waves, labels);
  EXPECT_FALSE(pipeline.diagnose(audio::Waveform::silence(2400, 48000.0)).has_value());
}

// ------------------------------------------------------ contract boundaries

TEST(RobustnessTest, MismatchedLabelCountThrows) {
  core::EarSonar pipeline;
  std::vector<audio::Waveform> waves(3, audio::Waveform::silence(100, 48000.0));
  std::vector<std::size_t> labels(2, 0);
  EXPECT_THROW(pipeline.fit(waves, labels), std::invalid_argument);
}

TEST(RobustnessTest, WrongFeatureDimensionThrows) {
  Rng rng(9);
  ml::Matrix features;
  std::vector<std::size_t> labels;
  for (std::size_t c = 0; c < 4; ++c)
    for (int i = 0; i < 10; ++i) {
      features.push_back({c * 3.0 + rng.normal(0, 0.1), c * 3.0});
      labels.push_back(c);
    }
  core::DetectorConfig cfg;
  cfg.selected_features = 2;
  core::MeeDetector detector(cfg);
  detector.fit(features, labels);
  EXPECT_THROW((void)detector.predict({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(RobustnessTest, SelectedFeaturesBeyondDimensionThrows) {
  ml::Matrix features{{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  std::vector<std::size_t> labels{0, 1, 2, 3};
  core::DetectorConfig cfg;
  cfg.selected_features = 10;  // > 2 columns
  core::MeeDetector detector(cfg);
  EXPECT_THROW(detector.fit(features, labels), std::invalid_argument);
}

// ------------------------------------------------------ adversarial audio

TEST(RobustnessTest, CompetingUltrasonicToneDoesNotPoisonFeatures) {
  // Another device emitting a constant 18 kHz tone in the room.
  audio::Waveform rec = simulated_recording(6, 10, sim::EffusionState::kClear, 10);
  for (std::size_t i = 0; i < rec.size(); ++i)
    rec.samples()[i] += 0.002 * std::sin(2 * std::numbers::pi * 18000.0 * i / 48000.0);
  const auto analysis = shared_pipeline().analyze(rec);
  if (analysis.usable()) {
    for (double f : analysis.features) EXPECT_TRUE(std::isfinite(f));
  }
}

TEST(RobustnessTest, ImpulsiveClicksAreToleranted) {
  // Door slams / cable pops: sparse large impulses.
  audio::Waveform rec = simulated_recording(7, 10, sim::EffusionState::kSerous, 11);
  Rng rng(12);
  for (int k = 0; k < 5; ++k) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(rec.size()) - 1));
    rec.samples()[pos] += rng.bernoulli(0.5) ? 0.8 : -0.8;
  }
  const auto analysis = shared_pipeline().analyze(rec);
  EXPECT_TRUE(analysis.usable());
  for (double f : analysis.features) EXPECT_TRUE(std::isfinite(f));
}

TEST(RobustnessTest, RepeatedAnalysisDoesNotAccumulateState) {
  const audio::Waveform rec =
      simulated_recording(8, 6, sim::EffusionState::kMucoid, 13);
  const auto first = shared_pipeline().analyze(rec);
  for (int i = 0; i < 5; ++i) {
    const auto again = shared_pipeline().analyze(rec);
    EXPECT_EQ(again.features, first.features) << i;
  }
}


TEST(RobustnessTest, FortyFourKiloHertzCaptureIsResampledTransparently) {
  // A phone recording at 44.1 kHz: analyze() must resample to the probe rate
  // and still find every chirp.
  const audio::Waveform rec48 =
      simulated_recording(9, 8, sim::EffusionState::kClear, 14);
  const audio::Waveform rec441(
      dsp::resample_to_rate(rec48.view(), 48000.0, 44100.0), 44100.0);
  const auto analysis = shared_pipeline().analyze(rec441);
  EXPECT_TRUE(analysis.usable());
  EXPECT_EQ(analysis.echoes.size(), 8u);
  // Features must agree closely with the native-rate analysis.
  const auto native = shared_pipeline().analyze(rec48);
  ASSERT_EQ(analysis.features.size(), native.features.size());
}

}  // namespace
}  // namespace earsonar
