#include "core/pipeline.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "dsp/interpolate.hpp"
#include "obs/trace.hpp"
#include "pipeline/batch.hpp"

namespace earsonar::core {

EarSonar::EarSonar(PipelineConfig config)
    : config_(config),
      preprocessor_(config.preprocess),
      event_detector_(config.events),
      segmenter_(config.segmenter),
      extractor_(config.features),
      detector_(config.detector) {
  // The pipeline knows its own probe signal; use it as the transmit
  // reference so extracted spectra read the channel (eardrum) response
  // rather than the chirp's own spectrum.
  extractor_.set_reference(config_.chirp);
}

EchoAnalysis EarSonar::analyze(const audio::Waveform& recording,
                               const CancelToken& cancel) const {
  require_nonempty("EarSonar::analyze recording", recording.size());
  cancel.check("analyze");

  obs::Span analyze_span("analyze", "pipeline");
  obs::Span bandpass_span("bandpass", "pipeline");
  // Every downstream constant (band edges, chirp grid, echo-distance math)
  // assumes the probe design's sample rate; transparently resample captures
  // that arrive at another rate (e.g., 44.1 kHz WAVs from a phone).
  const audio::Waveform* input = &recording;
  audio::Waveform resampled;
  if (recording.sample_rate() != config_.chirp.sample_rate) {
    obs::Span resample_span("resample", "pipeline");
    resampled = audio::Waveform(
        dsp::resample_to_rate(recording.view(), recording.sample_rate(),
                              config_.chirp.sample_rate),
        config_.chirp.sample_rate);
    input = &resampled;
  }
  const audio::Waveform filtered = preprocessor_.process(*input);
  bandpass_span.end();

  EchoAnalysis analysis = analyze_filtered(filtered, cancel);
  analysis.timings.bandpass_ms = bandpass_span.elapsed_ms();
  return analysis;
}

namespace {

[[noreturn]] void throw_degraded(const AnalysisQuality& quality) {
  std::ostringstream os;
  os << "EarSonar::analyze: degraded below min_usable_chirps: " << quality.chirps_used
     << " of " << quality.chirps_total << " chirps usable (floor "
     << quality.min_usable << ")";
  if (!quality.drops.empty())
    os << "; first error [" << quality.drops.front().stage
       << "]: " << quality.drops.front().reason;
  throw std::runtime_error(os.str());
}

}  // namespace

EchoAnalysis EarSonar::analyze_filtered(const audio::Waveform& filtered,
                                        const CancelToken& cancel) const {
  const pipeline::BatchItem item{&filtered, cancel};
  std::vector<pipeline::BatchOutcome> out = walk({&item, 1}, nullptr, nullptr);
  if (!out.front().ok()) std::rethrow_exception(out.front().error);
  return std::move(out.front().analysis);
}

std::vector<pipeline::BatchOutcome> EarSonar::analyze_filtered_many(
    std::span<const pipeline::BatchItem> items, pipeline::StageGraph* graph,
    pipeline::BatchRunInfo* info) const {
  if (info) *info = {};
  if (items.empty() || !fault::point("pipeline.batch")) return walk(items, graph, info);

  // Chaos drill: every request runs as its own batch of one through the
  // same walk (docs/robustness.md, `pipeline.batch`).
  std::vector<pipeline::BatchOutcome> out;
  out.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    pipeline::BatchRunInfo one;
    out.push_back(std::move(walk(items.subspan(i, 1), graph, &one).front()));
    if (info) info->psd_retried = info->psd_retried || one.psd_retried;
  }
  if (info) info->forced_fallback = true;
  return out;
}

std::vector<pipeline::BatchOutcome> EarSonar::walk(
    std::span<const pipeline::BatchItem> items, pipeline::StageGraph* graph,
    pipeline::BatchRunInfo* info) const {
  using pipeline::StageId;
  std::vector<pipeline::BatchOutcome> out(items.size());
  const bool multi = items.size() > 1;

  // A request that throws in one stage is finished (its error captured);
  // lane-mates continue.
  auto run = [&](std::size_t i, auto&& body) {
    if (!out[i].ok()) return;
    try {
      body();
    } catch (...) {
      out[i].error = std::current_exception();
    }
  };
  auto record = [&](StageId id, const obs::Span& span, std::size_t count) {
    if (graph) graph->record(id, span.elapsed_ms(), count, multi);
  };

  // --- event_detect: per request, in submission order, so fault-point
  // counters and drop bookkeeping fire in the same sequence as N lone calls.
  {
    obs::Span span("batch.event_detect", "pipeline");
    span.set_arg("requests", static_cast<std::int64_t>(items.size()));
    for (std::size_t i = 0; i < items.size(); ++i)
      run(i, [&] {
        require_nonempty("EarSonar::analyze_filtered signal",
                         items[i].filtered->size());
        out[i].analysis.quality.min_usable = config_.min_usable_chirps;
        stage_event_detect(*items[i].filtered, out[i].analysis);
      });
    span.end();
    record(StageId::kEventDetect, span, items.size());
  }

  // --- segment: per request (the parity decomposition is request-serial).
  {
    obs::Span span("batch.segment", "pipeline");
    span.set_arg("requests", static_cast<std::int64_t>(items.size()));
    for (std::size_t i = 0; i < items.size(); ++i)
      run(i, [&] {
        items[i].cancel.check("segment");
        stage_segment(*items[i].filtered, out[i].analysis, items[i].cancel);
      });
    span.end();
    record(StageId::kSegment, span, items.size());
  }

  // --- echo_psd: ONE pass over every surviving request's chirp windows,
  // packed into four-lane groups that cross request boundaries. Each lane's
  // arithmetic is independent (x4 kernel == four single calls, bitwise), so
  // the shared pass yields exactly the PSDs each request would compute alone.
  std::vector<std::size_t> psd_idx;  // psd_items[j] belongs to items[psd_idx[j]]
  std::vector<EchoSpectrumExtractor::EchoBatch> psd_items;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!out[i].ok() || out[i].analysis.echoes.empty()) continue;
    run(i, [&] { items[i].cancel.check("features"); });
    if (!out[i].ok()) continue;
    psd_idx.push_back(i);
    psd_items.push_back({items[i].filtered, &out[i].analysis.echoes});
  }
  std::vector<std::vector<dsp::Spectrum>> psds;
  if (!psd_items.empty()) {
    std::size_t lanes = 0;
    for (const auto& item : psd_items) lanes += item.echoes->size();
    obs::Span span("batch.echo_psd", "pipeline");
    span.set_arg("lanes", static_cast<std::int64_t>(lanes));
    try {
      psds = extractor_.spectrum_extractor().extract_all_multi(psd_items);
    } catch (...) {
      // The shared pass failed (e.g. an injected FFT fault). Each request
      // recomputes its own PSDs once inside stage_features below; only a
      // repeat failure reaches the per-echo recovery there.
      if (info) info->psd_retried = true;
    }
    span.end();
    record(StageId::kEchoPsd, span, psd_items.size());
    if (!psds.empty()) {
      if (info) {
        info->psd_batched = true;
        info->psd_lanes = lanes;
        info->psd_ms = span.elapsed_ms();
      }
      for (std::size_t j = 0; j < psd_idx.size(); ++j)
        out[psd_idx[j]].psd_share_ms =
            span.elapsed_ms() * static_cast<double>(psd_items[j].echoes->size()) /
            static_cast<double>(lanes);
    }
  }

  // --- features: per-request assembly from its slice of the shared pass.
  {
    obs::Span span("batch.features", "pipeline");
    span.set_arg("requests", static_cast<std::int64_t>(psd_idx.size()));
    for (std::size_t j = 0; j < psd_idx.size(); ++j) {
      const std::size_t i = psd_idx[j];
      run(i, [&] {
        stage_features(*items[i].filtered, out[i].analysis,
                       psds.empty() ? nullptr : &psds[j]);
        out[i].analysis.timings.feature_ms += out[i].psd_share_ms;
      });
    }
    span.end();
    record(StageId::kFeatures, span, psd_idx.size());
  }
  return out;
}

void EarSonar::stage_event_detect(const audio::Waveform& filtered,
                                  EchoAnalysis& analysis) const {
  AnalysisQuality& quality = analysis.quality;
  obs::Span events_span("event_detect", "pipeline");
  try {
    if (fault::point("pipeline.event_detect"))
      fail("injected fault: pipeline.event_detect");
    analysis.events = event_detector_.detect(filtered);
    for (Event& event : analysis.events)
      event.start = aligned_event_start(filtered.view(), event);
  } catch (const std::exception& e) {
    // Event detection is a whole-recording stage: when it fails, no chirp is
    // recoverable. Record the casualty and fall through to the floor check
    // below, which throws with this reason attached.
    quality.drops.push_back({ChirpDrop::kWholeStage, "event_detect", e.what()});
    analysis.events.clear();
  }
  events_span.end();
  analysis.timings.event_detect_ms = events_span.elapsed_ms();
  quality.chirps_total = analysis.events.size();
}

void EarSonar::stage_segment(const audio::Waveform& filtered, EchoAnalysis& analysis,
                             const CancelToken& cancel) const {
  AnalysisQuality& quality = analysis.quality;
  obs::Span segment_span("segment", "pipeline");
  for (std::size_t i = 0; i < analysis.events.size(); ++i) {
    cancel.check("segment_chirp");
    obs::Span chirp_span("segment_chirp", "pipeline");
    chirp_span.set_arg("chirp", static_cast<std::int64_t>(i));
    // Per-chirp isolation: one clipped or corrupted chirp out of 200 must
    // not discard the recording. An exception drops this chirp (recorded in
    // `quality`); a nullopt is the pre-existing benign no-echo miss.
    try {
      if (fault::point("pipeline.segment_chirp"))
        fail("injected fault: pipeline.segment_chirp");
      if (std::optional<EchoSegment> echo =
              segmenter_.segment(filtered, analysis.events[i]))
        analysis.echoes.push_back(*echo);
    } catch (const std::exception& e) {
      quality.drops.push_back({i, "segment", e.what()});
    }
  }
  reanchor_echoes(analysis.echoes, filtered.sample_rate());
  segment_span.end();
  analysis.timings.segment_ms = segment_span.elapsed_ms();
  quality.chirps_used = analysis.echoes.size();
  quality.chirps_dropped = quality.drops.size();
  quality.degraded = !quality.drops.empty();
  if (quality.degraded && quality.chirps_used < quality.min_usable)
    throw_degraded(quality);
}

void EarSonar::stage_features(const audio::Waveform& filtered, EchoAnalysis& analysis,
                              const std::vector<dsp::Spectrum>* per_echo) const {
  AnalysisQuality& quality = analysis.quality;
  obs::Span feature_span("features", "pipeline");
  // One extraction pass yields both the feature vector and the mean echo
  // spectrum; the per-echo PSDs inside are computed once and shared. Without
  // a slice of the shared echo_psd pass the PSDs are recomputed here; the
  // recovery path below always re-extracts per echo.
  try {
    if (fault::point("pipeline.features")) fail("injected fault: pipeline.features");
    FeatureExtractor::Result extracted =
        per_echo ? extractor_.extract_full_from_psds(analysis.echoes, *per_echo)
                 : extractor_.extract_full(filtered, analysis.echoes);
    analysis.mean_spectrum = std::move(extracted.mean_spectrum);
    analysis.features = std::move(extracted.features);
  } catch (const CancelledError&) {
    throw;
  } catch (const std::exception& e) {
    // An FFT/PSD failure usually poisons one echo, not the stage: probe each
    // echo alone to partition survivors from casualties, then re-extract over
    // the survivors — the same result as if only they had been segmented.
    std::vector<EchoSegment> survivors;
    survivors.reserve(analysis.echoes.size());
    for (std::size_t i = 0; i < analysis.echoes.size(); ++i) {
      try {
        (void)extractor_.extract_full(filtered, {analysis.echoes[i]});
        survivors.push_back(analysis.echoes[i]);
      } catch (const std::exception& probe_error) {
        quality.drops.push_back({i, "features", probe_error.what()});
      }
    }
    if (quality.drops.empty() || quality.drops.back().stage != "features")
      quality.drops.push_back({ChirpDrop::kWholeStage, "features", e.what()});
    try {
      if (!survivors.empty()) {
        FeatureExtractor::Result extracted = extractor_.extract_full(filtered, survivors);
        analysis.mean_spectrum = std::move(extracted.mean_spectrum);
        analysis.features = std::move(extracted.features);
        analysis.echoes = std::move(survivors);
      }
    } catch (const std::exception& retry_error) {
      // The retry failed too (e.g. an every-k fault still firing): give up on
      // the stage, keep the segmentation products, return an unusable result.
      quality.drops.push_back({ChirpDrop::kWholeStage, "features", retry_error.what()});
      analysis.features.clear();
    }
    quality.chirps_used = analysis.features.empty() ? 0 : analysis.echoes.size();
    quality.chirps_dropped = quality.drops.size();
    quality.degraded = true;
    if (quality.chirps_used < quality.min_usable) throw_degraded(quality);
  }
  feature_span.end();
  analysis.timings.feature_ms = feature_span.elapsed_ms();
}

void EarSonar::fit(const std::vector<audio::Waveform>& recordings,
                   const std::vector<std::size_t>& labels) {
  require(recordings.size() == labels.size(), "EarSonar::fit: size mismatch");
  // The analyses are independent, so they fan out across the pool; each lands
  // in its own slot and the collection below runs serially in recording
  // order, making the fitted detector bit-identical at any thread count.
  std::vector<EchoAnalysis> analyses(recordings.size());
  parallel_for(
      recordings.size(),
      [&](std::size_t i) { analyses[i] = analyze(recordings[i]); },
      config_.threads);
  ml::Matrix features;
  std::vector<std::size_t> usable_labels;
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    if (!analyses[i].usable()) continue;
    features.push_back(std::move(analyses[i].features));
    usable_labels.push_back(labels[i]);
  }
  require(features.size() >= kMeeStateCount,
          "EarSonar::fit: fewer than four usable recordings");
  detector_.fit(features, usable_labels);
}

void EarSonar::fit_features(const ml::Matrix& features,
                            const std::vector<std::size_t>& labels) {
  detector_.fit(features, labels);
}

std::optional<Diagnosis> EarSonar::diagnose(const audio::Waveform& recording) const {
  require(fitted(), "EarSonar::diagnose before fit");
  EchoAnalysis analysis = analyze(recording);
  if (!analysis.usable()) return std::nullopt;
  obs::Span inference_span("inference", "pipeline");
  return detector_.predict(analysis.features);
}

Diagnosis EarSonar::diagnose_features(const std::vector<double>& features) const {
  require(fitted(), "EarSonar::diagnose_features before fit");
  obs::Span inference_span("inference", "pipeline");
  return detector_.predict(features);
}

}  // namespace earsonar::core
