// Cross-request batched execution of the analyze() stage graph.
//
// BatchExecutor runs N requests' post-filter analyses through per-stage
// passes instead of N independent analyze_filtered() walks: event_detect and
// segment run per request (their work is request-serial by nature), then ONE
// echo_psd pass packs every surviving request's chirp windows into
// four-lane FftPlan::power_spectrum_band_x4 groups that cross request
// boundaries, and features assembles each request's vector from its slice
// of the shared PSD pass.
//
// Bit-identity contract: every value each request observes is computed by
// the same code, in the same order, on the same inputs as a lone
// analyze_filtered() call would use. The only cross-request sharing is the
// lane packing, and the x4 kernel is bitwise-equal to four single calls
// (PowerSpectrumBandX4Test), so result[i] is bit-identical to
// pipeline.analyze_filtered(*items[i].filtered, items[i].cancel) — including
// degraded paths: a request whose chirps drop mid-batch re-runs its features
// recovery exactly as the unbatched path does, without disturbing lane-mates.
//
// Timing: each request's `timings.feature_ms` is its own feature assembly
// plus its lane share of the shared echo_psd pass (pass time x its chirp
// windows / all windows), so a batch of one reports what analyze_filtered()
// reports and the shares over a batch sum to the pass time.
//
// Error isolation: one request's exception (degradation floor, cancellation)
// is captured in its BatchOutcome; lane-mates proceed. A failure of the
// shared PSD pass itself — or the `pipeline.batch` fault point — falls back
// to fully per-request processing for the affected requests.
#pragma once

#include <exception>
#include <span>
#include <vector>

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
  bool forced_fallback = false;  ///< pipeline.batch fault forced per-request mode
  std::size_t psd_lanes = 0;     ///< chirp windows carried by the shared pass
  double psd_ms = 0.0;           ///< wall time of the shared pass
};

class BatchExecutor {
 public:
  /// `graph` (optional) receives per-stage occupancy; it must outlive the
  /// executor's calls.
  explicit BatchExecutor(StageGraph* graph = nullptr) : graph_(graph) {}

  /// analyze_filtered() for every item, batched per stage. Outcome [i] is
  /// bit-identical to pipeline.analyze_filtered(*items[i].filtered,
  /// items[i].cancel) run alone. All items must target the same `pipeline`
  /// (the serving engine builds every session from one config).
  std::vector<BatchOutcome> analyze_filtered(const core::EarSonar& pipeline,
                                             std::span<const BatchItem> items,
                                             BatchRunInfo* info = nullptr) const;

 private:
  StageGraph* graph_;
};

}  // namespace earsonar::pipeline
