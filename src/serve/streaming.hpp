// Streaming ingestion: chunk-at-a-time analysis sessions.
//
// Every batch entry point needs the complete recording in memory; a deployed
// screener receives audio as a stream of small chunks from the earbud. A
// StreamingSession accepts arbitrary-size chunks and band-pass filters them
// as they arrive: the filter is stateful (`dsp::BiquadCascade` carried across
// chunks) and bit-identical to filtering the concatenated signal, so the
// session stores only *filtered* samples and a chunk costs one causal filter
// pass.
//
// finish() then produces the result by running the whole-signal pass
// (`EarSonar::analyze_filtered_many`, the walk behind analyze()) over the
// buffered filtered samples — event detection needs recording-global
// statistics (paper Eq. 6-7), so nothing is analyzed before the stream ends.
// Because causal filtering commutes with chunking, finish() is bit-identical
// — same features, same diagnosis — to `EarSonar::analyze` on the whole
// recording with the same (causal) configuration, at every chunk size.
//
// One ingest path and one finalization path: feed() is feed_many() of one
// session and finish() is finish_many() of one session, each rethrowing the
// error it captured for that session.
//
// The sample store is bounded. When a chunk would overflow it, the session
// either rejects the chunk (kReject — the backpressure signal a serving
// engine propagates to the device) or drops the oldest samples (kEvictOldest
// — continuous-monitoring mode, where finish() degrades to a best-effort
// analysis of the retained tail and truncated() reports the loss).
#pragma once

#include <cstddef>
#include <exception>
#include <span>
#include <vector>

#include "core/pipeline.hpp"
#include "dsp/biquad.hpp"
#include "pipeline/batch.hpp"

namespace earsonar::serve {

struct StreamingConfig {
  core::PipelineConfig pipeline;  ///< must have preprocess.zero_phase = false
  /// Bound on buffered (filtered) samples: 20 s at the probe rate by default.
  std::size_t max_buffered_samples = 20UL * 48000UL;
  /// What to do with a chunk that would overflow the buffer.
  enum class OverflowPolicy {
    kReject,       ///< refuse the chunk; feed() returns kRejected
    kEvictOldest,  ///< drop oldest samples; finish() analyzes the tail only
  };
  OverflowPolicy overflow = OverflowPolicy::kReject;

  /// Inert: feed() runs no event detection, so there is nothing to defer.
  /// Kept only so existing callers that assign it still compile; nothing
  /// reads it.
  bool defer_event_detection = false;

  void validate() const;
};

enum class FeedStatus {
  kAccepted,
  kRejected,  ///< buffer full under OverflowPolicy::kReject; nothing changed
  kFailed,    ///< the session holds a captured error; the chunk was not ingested
};

class StreamingSession {
 public:
  explicit StreamingSession(StreamingConfig config = {});

  /// Ingests one chunk at the pipeline sample rate (any size, including
  /// empty). Returns kRejected — with no state change — when the buffer is
  /// full under OverflowPolicy::kReject. feed_many() of this session alone;
  /// throws the error it captured (feed after finish, injected fault, or an
  /// earlier failed feed).
  FeedStatus feed(std::span<const double> chunk);

  /// Ingests one chunk per session, sharing band-pass filter passes:
  /// sessions with an identical filter design and equal chunk length are
  /// filtered together through one interleaved dsp::MultiBiquadCascade pass
  /// (N streams per SIMD sweep); the rest run their own cascade. Per-session
  /// results — filter state, buffered samples, rejection status — are
  /// bit-identical to feeding each session alone, in order.
  ///
  /// Failures are per session: a session whose admission throws (feed after
  /// finish, the `serve.stream.feed` fault point) keeps the error, returns
  /// kFailed now and on every later chunk, and reports the error from
  /// finish()/finish_many(); its lane-mates are fed normally. Sessions must
  /// be distinct; a session may appear at most once per call.
  static std::vector<FeedStatus> feed_many(
      std::span<StreamingSession* const> sessions,
      std::span<const std::span<const double>> chunks);

  /// Exact finalization: finish_many() of this session alone, rethrowing its
  /// captured error. The result's `quality` is the batch pipeline's
  /// degradation report, with stream-level truncation folded in; `cancel`
  /// aborts between pipeline stages with CancelledError.
  core::EchoAnalysis finish(const CancelToken& cancel = {});

  /// Finalizes many sessions in one batched pass: per-session waveform
  /// handoff runs in submission order, then EarSonar::analyze_filtered_many
  /// walks the analysis stages with the echo-PSD stage batched across
  /// sessions (cross-request x4 lanes). Outcome [i] — analysis or captured
  /// error — is what EarSonar::analyze_filtered over session i's buffered
  /// samples returns or throws, by construction; a session that captured a
  /// feed error ends with that error. Sessions must be distinct and built from one
  /// pipeline config (a serving engine constructs every session from its
  /// own); `graph` optionally receives per-stage occupancy and `info`
  /// reports how the pass batched.
  static std::vector<pipeline::BatchOutcome> finish_many(
      std::span<StreamingSession* const> sessions,
      std::span<const CancelToken> cancels,
      pipeline::StageGraph* graph = nullptr,
      pipeline::BatchRunInfo* info = nullptr);

  [[nodiscard]] std::size_t samples_fed() const { return samples_fed_; }
  [[nodiscard]] std::size_t samples_buffered() const { return filtered_.size(); }
  [[nodiscard]] std::size_t samples_dropped() const { return base_; }
  [[nodiscard]] std::size_t rejected_chunks() const { return rejected_chunks_; }
  [[nodiscard]] bool truncated() const { return base_ > 0; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const StreamingConfig& config() const { return config_; }

 private:
  /// kReject-policy capacity gate; bumps rejected_chunks_ when it trips.
  bool reject_would_overflow(std::size_t incoming);
  /// Post-filter half of feed(): buffer the filtered chunk and apply
  /// eviction. `fed` is the raw chunk length for samples_fed_.
  void ingest_filtered(std::span<const double> filtered, std::size_t fed);

  StreamingConfig config_;
  core::EarSonar pipeline_;  ///< finish_many() runs its analysis stages
  dsp::BiquadCascade filter_;

  std::vector<double> filtered_;  ///< filtered_[i] = absolute sample base_ + i
  std::size_t base_ = 0;
  std::size_t samples_fed_ = 0;
  std::size_t rejected_chunks_ = 0;
  std::exception_ptr error_;  ///< captured feed failure; reported by finish
  bool finished_ = false;
};

}  // namespace earsonar::serve
