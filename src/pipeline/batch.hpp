// The request and result types of core::EarSonar::analyze_filtered_many, the
// one stage composition behind offline analyze() and serving finish().
//
// The walk runs N requests' post-filter analyses stage by stage:
// event_detect and segment run per request (their work is request-serial by
// nature), then ONE echo_psd pass packs every surviving request's chirp
// windows into four-lane FftPlan::power_spectrum_band_x4 groups that cross
// request boundaries, and features assembles each request's vector from its
// slice of the shared PSD pass. analyze_filtered() is this walk over one
// request, so result[i] equals analyze_filtered(*items[i].filtered,
// items[i].cancel) by construction, degraded paths included. The only
// cross-request sharing is the lane packing, and the x4 kernel is
// bitwise-equal to four single calls (PowerSpectrumBandX4Test).
//
// Timing: each request's `timings.feature_ms` is its own feature assembly
// plus its lane share of the shared echo_psd pass (pass time x its chirp
// windows / all windows), so the shares over a batch sum to the pass time.
//
// Error isolation: one request's exception (degradation floor, cancellation)
// is captured in its BatchOutcome; lane-mates proceed. When the shared PSD
// pass itself throws (e.g. an injected FFT fault), each of its requests
// recomputes its own PSDs once; only a repeat failure reaches per-echo
// recovery and marks that request degraded. The `pipeline.batch` fault point
// runs every request as its own batch of one.
#pragma once

#include <cstddef>
#include <exception>

#include "audio/waveform.hpp"
#include "common/cancel.hpp"
#include "core/pipeline.hpp"
#include "pipeline/stage_graph.hpp"

namespace earsonar::pipeline {

/// One request's input to a batched analysis pass: its preprocessed signal
/// at the probe sample rate (what analyze_filtered() takes) plus its own
/// cancellation token — deadlines stay per-request inside a batch.
struct BatchItem {
  const audio::Waveform* filtered = nullptr;
  CancelToken cancel;
};

/// One request's result: exactly one of `analysis` (success) or `error`
/// (whatever the per-request analyze_filtered() would have thrown:
/// degradation-floor runtime_error, CancelledError, ...).
struct BatchOutcome {
  core::EchoAnalysis analysis;
  std::exception_ptr error;
  /// This request's lane share of the shared echo_psd pass, already included
  /// in analysis.timings.feature_ms (0 when the request had no pass share).
  double psd_share_ms = 0.0;

  [[nodiscard]] bool ok() const { return error == nullptr; }
};

/// How one batched pass executed, for serving metrics.
struct BatchRunInfo {
  bool psd_batched = false;      ///< the shared echo_psd pass ran
  bool forced_fallback = false;  ///< pipeline.batch fault forced batches of one
  bool psd_retried = false;      ///< a shared echo_psd pass threw; its requests
                                 ///<   recomputed their own PSDs
  std::size_t psd_lanes = 0;     ///< chirp windows carried by the shared pass
  double psd_ms = 0.0;           ///< wall time of the shared pass
};

}  // namespace earsonar::pipeline
