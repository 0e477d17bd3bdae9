#include "pipeline/batch.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "obs/trace.hpp"

namespace earsonar::pipeline {

std::vector<BatchOutcome> BatchExecutor::analyze_filtered(
    const core::EarSonar& pipeline, std::span<const BatchItem> items,
    BatchRunInfo* info) const {
  std::vector<BatchOutcome> out(items.size());
  if (info) *info = {};
  if (items.empty()) return out;
  const bool multi = items.size() > 1;

  // Chaos drill: force the degenerate fully-per-request path, one lone
  // analyze_filtered() per item (docs/robustness.md, `pipeline.batch`).
  if (fault::point("pipeline.batch")) {
    if (info) info->forced_fallback = true;
    for (std::size_t i = 0; i < items.size(); ++i) {
      try {
        out[i].analysis =
            pipeline.analyze_filtered(*items[i].filtered, items[i].cancel);
      } catch (...) {
        out[i].error = std::current_exception();
      }
    }
    return out;
  }

  // live[i]: request i has not failed yet. A request that throws in one
  // stage is finished (its error captured); lane-mates continue.
  std::vector<char> live(items.size(), 1);
  auto run = [&](std::size_t i, auto&& body) {
    if (!live[i]) return;
    try {
      body();
    } catch (...) {
      out[i].error = std::current_exception();
      live[i] = 0;
    }
  };

  // --- event_detect: per request, in submission order, so fault-point
  // counters and drop bookkeeping fire in the same sequence a sequential
  // unbatched run over these requests would produce.
  {
    obs::Span span("batch.event_detect", "pipeline");
    span.set_arg("requests", static_cast<std::int64_t>(items.size()));
    for (std::size_t i = 0; i < items.size(); ++i)
      run(i, [&] {
        require_nonempty("EarSonar::analyze_filtered signal",
                         items[i].filtered->size());
        out[i].analysis.quality.min_usable = pipeline.config_.min_usable_chirps;
        pipeline.stage_event_detect(*items[i].filtered, out[i].analysis);
      });
    span.end();
    if (graph_)
      graph_->record(StageId::kEventDetect, span.elapsed_ms(), items.size(), multi);
  }

  // --- segment: per request (the parity decomposition is request-serial).
  {
    obs::Span span("batch.segment", "pipeline");
    span.set_arg("requests", static_cast<std::int64_t>(items.size()));
    for (std::size_t i = 0; i < items.size(); ++i)
      run(i, [&] {
        items[i].cancel.check("segment");
        pipeline.stage_segment(*items[i].filtered, out[i].analysis, items[i].cancel);
      });
    span.end();
    if (graph_)
      graph_->record(StageId::kSegment, span.elapsed_ms(), items.size(), multi);
  }

  // --- echo_psd: ONE pass over every surviving request's chirp windows,
  // packed into four-lane groups that cross request boundaries. Each lane's
  // arithmetic is independent (x4 kernel == four single calls, bitwise), so
  // the shared pass yields exactly the PSDs each request would compute alone.
  std::vector<std::size_t> psd_idx;  // psd_items[j] belongs to items[psd_idx[j]]
  std::vector<core::EchoSpectrumExtractor::EchoBatch> psd_items;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!live[i] || out[i].analysis.echoes.empty()) continue;
    run(i, [&] { items[i].cancel.check("features"); });
    if (!live[i]) continue;
    psd_idx.push_back(i);
    psd_items.push_back({items[i].filtered, &out[i].analysis.echoes});
  }
  std::vector<std::vector<dsp::Spectrum>> psds;
  bool psd_ok = false;
  if (!psd_items.empty()) {
    std::size_t lanes = 0;
    for (const auto& item : psd_items) lanes += item.echoes->size();
    obs::Span span("batch.echo_psd", "pipeline");
    span.set_arg("lanes", static_cast<std::int64_t>(lanes));
    try {
      psds = pipeline.extractor_.spectrum_extractor().extract_all_multi(psd_items);
      psd_ok = true;
      if (info) {
        info->psd_batched = true;
        info->psd_lanes = lanes;
      }
    } catch (...) {
      // The shared pass failed (e.g. an injected FFT fault). Fall back: each
      // request recomputes its own PSDs inside stage_features below, where
      // the per-request recovery machinery attributes the error to the
      // request (and chirp) that owns it.
      psd_ok = false;
    }
    span.end();
    if (graph_)
      graph_->record(StageId::kEchoPsd, span.elapsed_ms(), psd_items.size(), multi);
    if (psd_ok) {
      if (info) info->psd_ms = span.elapsed_ms();
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
        pipeline.stage_features(*items[i].filtered, out[i].analysis,
                                items[i].cancel, psd_ok ? &psds[j] : nullptr);
        out[i].analysis.timings.feature_ms += out[i].psd_share_ms;
      });
    }
    span.end();
    if (graph_)
      graph_->record(StageId::kFeatures, span.elapsed_ms(), psd_idx.size(), multi);
  }
  return out;
}

}  // namespace earsonar::pipeline
