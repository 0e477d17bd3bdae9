#include "serve/engine.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "dsp/interpolate.hpp"
#include "obs/trace.hpp"

namespace earsonar::serve {

namespace {
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// A request's result when its processing threw: a cancellation is a
/// deadline outcome, anything else a failure.
ServeResult error_result(const std::string& id, const std::exception_ptr& error) {
  ServeResult result;
  result.id = id;
  try {
    std::rethrow_exception(error);
  } catch (const CancelledError& e) {
    result.deadline_exceeded = true;
    result.error = e.what();
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown error";
  }
  return result;
}
}  // namespace

void EngineConfig::validate() const {
  require(workers >= 1, "EngineConfig: workers must be >= 1");
  require(queue_capacity >= 1, "EngineConfig: queue_capacity must be >= 1");
  require(chunk_samples >= 1, "EngineConfig: chunk_samples must be >= 1");
  require(batch_max >= 1, "EngineConfig: batch_max must be >= 1");
  session.validate();
}

ServingEngine::ServingEngine(EngineConfig config)
    : config_(std::move(config)), queue_(config_.queue_capacity) {
  config_.validate();
}

ServingEngine::~ServingEngine() { stop(); }

void ServingEngine::start() {
  if (running_.exchange(true)) return;
  queue_.reopen();
  if (config_.dedicated_threads) {
    // Sharded mode: the engine owns its worker threads outright so N shard
    // engines drain their queues concurrently (the pool lease below would
    // serialize them behind one batch mutex).
    dedicated_.reserve(config_.workers);
    for (std::size_t i = 0; i < config_.workers; ++i)
      dedicated_.emplace_back([this] { worker_loop(); });
    return;
  }
  // One coordinator thread leases `workers` pool threads through a single
  // long-running parallel_for batch; each index runs one worker loop until
  // the queue closes. The pool's batch mutex is held for the lease's
  // lifetime, so other parallel_for callers wait — a serving process is not
  // also training (see file comment in engine.hpp).
  coordinator_ = std::thread([this] {
    parallel_for(
        config_.workers, [this](std::size_t) { worker_loop(); }, config_.workers);
  });
}

void ServingEngine::stop() {
  if (!running_.exchange(false)) return;
  // close() wakes every worker; they drain the remaining accepted jobs before
  // pop() returns false, so no accepted request is dropped.
  queue_.close();
  if (coordinator_.joinable()) coordinator_.join();
  for (std::thread& worker : dedicated_)
    if (worker.joinable()) worker.join();
  dedicated_.clear();
}

Submission ServingEngine::submit(ServeRequest request) {
  Submission submission;
  if (!running_.load()) {
    metrics_.rejected_stopped.fetch_add(1, std::memory_order_relaxed);
    submission.reason = "engine not running";
    return submission;
  }
  Job job{std::move(request), {}, Clock::now(), std::nullopt};
  if (job.request.timeout_ms > 0.0) {
    // The deadline clock starts at submission: queue wait counts against it,
    // which is what lets workers shed stale jobs without touching them.
    job.deadline = job.enqueued + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          job.request.timeout_ms));
  }
  submission.result = job.promise.get_future();
  if (!queue_.try_push(std::move(job))) {
    submission.result = {};
    if (!running_.load() || queue_.closed()) {
      metrics_.rejected_stopped.fetch_add(1, std::memory_order_relaxed);
      submission.reason = "engine not running";
    } else {
      metrics_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
      std::ostringstream reason;
      reason << "queue full (capacity " << config_.queue_capacity << ")";
      submission.reason = reason.str();
    }
    return submission;
  }
  metrics_.accepted.fetch_add(1, std::memory_order_relaxed);
  metrics_.queue_depth.fetch_add(1, std::memory_order_relaxed);
  submission.accepted = true;
  return submission;
}

void ServingEngine::worker_loop() {
  // One span per worker lease: its row in the trace viewer shows the
  // worker's occupancy between start() and stop().
  obs::Span worker_span("worker", "serve");
  Job job;
  while (queue_.pop(job)) {
    // The first pop leads a batch; linger up to batch_wait_us for stragglers
    // (or until the batch fills — at batch_max 1 it already is, so there is
    // no linger). A closed queue cuts the linger short, so stop() still
    // drains promptly.
    std::vector<Job> batch;
    batch.push_back(std::move(job));
    obs::Span collect_span("batch_collect", "serve");
    const auto linger_until =
        Clock::now() + std::chrono::microseconds(config_.batch_wait_us);
    Job extra;
    while (batch.size() < config_.batch_max &&
           queue_.try_pop_until(extra, linger_until))
      batch.push_back(std::move(extra));
    collect_span.set_arg("requests", static_cast<std::int64_t>(batch.size()));
    collect_span.end();
    process_batch(std::move(batch));
  }
}

std::optional<CancelToken> ServingEngine::admit_dequeued(Job& job,
                                                         double& queue_ms) {
  metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
  const auto dequeued = Clock::now();
  queue_ms =
      std::chrono::duration<double, std::milli>(dequeued - job.enqueued).count();
  metrics_.latency.queue_wait.record(queue_ms);
  // Queue wait spans submit() on one thread to pop() on another; record it
  // with explicit endpoints on the consuming worker's row.
  obs::TraceRecorder::instance().record_complete("queue_wait", "serve",
                                                 job.enqueued, dequeued);
  const CancelToken cancel = job.deadline ? CancelToken::with_deadline(*job.deadline)
                                          : CancelToken();
  if (cancel.expired()) {
    // Shed at dequeue: the caller's deadline passed while the job waited in
    // the queue (or in a leader's batch-collect linger), so no pipeline work
    // is worth doing. Counted separately from failures — the engine did
    // nothing wrong, it was just too busy.
    ServeResult shed;
    shed.id = job.request.id;
    shed.deadline_exceeded = true;
    shed.error = "deadline_exceeded: shed at dequeue";
    shed.queue_ms = queue_ms;
    shed.total_ms = ms_since(job.enqueued);
    metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    job.promise.set_value(std::move(shed));
    return std::nullopt;
  }
  return cancel;
}

void ServingEngine::finish_job(Job& job, ServeResult result, double queue_ms) {
  result.queue_ms = queue_ms;
  result.total_ms = ms_since(job.enqueued);
  metrics_.latency.total.record(result.total_ms);
  if (result.deadline_exceeded) {
    metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
  } else if (!result.error.empty()) {
    metrics_.failed.fetch_add(1, std::memory_order_relaxed);
  } else {
    metrics_.completed.fetch_add(1, std::memory_order_relaxed);
    if (!result.usable) metrics_.no_echo.fetch_add(1, std::memory_order_relaxed);
    if (result.quality.degraded)
      metrics_.degraded.fetch_add(1, std::memory_order_relaxed);
  }
  job.promise.set_value(std::move(result));
}

ServeResult ServingEngine::finalize_analysis(const std::string& id,
                                             core::EchoAnalysis analysis,
                                             double resample_ms) {
  ServeResult result;
  result.id = id;
  result.usable = analysis.usable();
  result.events = analysis.events.size();
  result.echoes = analysis.echoes.size();
  result.quality = analysis.quality;
  result.timings = analysis.timings;
  result.timings.bandpass_ms = resample_ms;  // chunk filtering folds into feed_many

  metrics_.latency.bandpass.record(result.timings.bandpass_ms);
  metrics_.latency.event_detect.record(result.timings.event_detect_ms);
  metrics_.latency.segment.record(result.timings.segment_ms);
  metrics_.latency.feature.record(result.timings.feature_ms);
  metrics_.events_detected.fetch_add(result.events, std::memory_order_relaxed);
  metrics_.echoes_segmented.fetch_add(result.echoes, std::memory_order_relaxed);

  if (result.usable) {
    if (std::shared_ptr<const core::DetectorModel> model = registry_.current()) {
      obs::Span inference_span("inference", "serve");
      result.diagnosis = model->predict(analysis.features);
      inference_span.end();
      result.timings.inference_ms = inference_span.elapsed_ms();
      metrics_.latency.inference.record(result.timings.inference_ms);
      metrics_.inferences.fetch_add(1, std::memory_order_relaxed);
      result.model_version = registry_.version();
      stage_graph_.record(pipeline::StageId::kInference,
                          result.timings.inference_ms, 1, false);
    }
    result.features = std::move(analysis.features);
  }
  return result;
}

void ServingEngine::process_batch(std::vector<Job> batch) {
  // Shed-before-work: every job's deadline is re-checked here, after the
  // batch-collect linger, so a request that expired while the leader waited
  // for stragglers never reaches the pipeline (docs/serving.md).
  std::vector<Admitted> live;
  live.reserve(batch.size());
  for (Job& job : batch) {
    double queue_ms = 0.0;
    if (std::optional<CancelToken> cancel = admit_dequeued(job, queue_ms))
      live.push_back({&job, *cancel, queue_ms});
  }
  if (live.empty()) return;

  // Paced jobs (chunk_period_s > 0) hold wall-clock sleeps between chunks;
  // sharing a batch would stall their lane-mates, so each runs as its own
  // batch of one.
  std::vector<Admitted> unpaced;
  unpaced.reserve(live.size());
  for (const Admitted& a : live) {
    const ServeRequest& request = a.job->request;
    if (request.session == nullptr && request.chunk_period_s > 0.0)
      run_earsonar({&a, 1});
    else
      unpaced.push_back(a);
  }
  if (!unpaced.empty()) run_earsonar(unpaced);
}

void ServingEngine::run_earsonar(std::span<const Admitted> group) {
  obs::Span request_span("serve_batch", "serve");
  request_span.set_arg("requests", static_cast<std::int64_t>(group.size()));
  if (group.size() > 1) {
    metrics_.batches.fetch_add(1, std::memory_order_relaxed);
    metrics_.batched_requests.fetch_add(group.size(), std::memory_order_relaxed);
  }

  // --- Ingest: jobs that arrived as whole recordings stream into fresh
  // sessions in chunk rounds; each round feeds every active job's next chunk
  // through ONE StreamingSession::feed_many call, whose interleaved
  // MultiBiquadCascade pass filters the lanes together (bit-identical to
  // per-session feeds). Pre-fed sessions (the networked path — the
  // connection thread already fed and counted every chunk) skip this.
  struct Lane {
    StreamingSession* session = nullptr;
    std::unique_ptr<StreamingSession> own;  ///< engine-built session
    std::vector<double> resampled;          ///< owns off-rate sample storage
    std::span<const double> pending;        ///< samples not yet fed
    std::size_t chunk = 0;
    double resample_ms = 0.0;
    pipeline::BatchOutcome outcome;  ///< engine-side error, then finish result
  };
  std::vector<Lane> lanes(group.size());
  const double rate = config_.session.pipeline.chirp.sample_rate;
  double pace_s = 0.0;  // nonzero only for a paced job, which runs alone
  for (std::size_t j = 0; j < group.size(); ++j) {
    Lane& lane = lanes[j];
    ServeRequest& request = group[j].job->request;
    if (request.session != nullptr) {
      lane.session = request.session.get();
      continue;
    }
    try {
      lane.own = std::make_unique<StreamingSession>(config_.session);
      lane.session = lane.own.get();
      lane.pending = request.recording.view();
      obs::Span resample_span("resample", "serve");
      if (request.recording.sample_rate() != rate) {
        lane.resampled =
            dsp::resample_to_rate(lane.pending, request.recording.sample_rate(), rate);
        lane.pending = lane.resampled;
      }
      resample_span.end();
      lane.resample_ms = resample_span.elapsed_ms();
      lane.chunk =
          request.chunk_samples > 0 ? request.chunk_samples : config_.chunk_samples;
      pace_s = std::max(pace_s, request.chunk_period_s);
    } catch (...) {
      lane.outcome.error = std::current_exception();
    }
  }

  std::vector<StreamingSession*> round_sessions;
  std::vector<std::span<const double>> round_chunks;
  std::vector<std::size_t> round_lanes;
  for (bool first_round = true;; first_round = false) {
    round_sessions.clear();
    round_chunks.clear();
    round_lanes.clear();
    for (std::size_t j = 0; j < group.size(); ++j) {
      Lane& lane = lanes[j];
      if (!lane.outcome.ok() || lane.pending.empty()) continue;
      try {
        group[j].cancel.check("stream_ingest");
      } catch (...) {
        lane.outcome.error = std::current_exception();
        continue;
      }
      const std::size_t len = std::min(lane.chunk, lane.pending.size());
      round_sessions.push_back(lane.session);
      round_chunks.push_back(lane.pending.first(len));
      round_lanes.push_back(j);
      lane.pending = lane.pending.subspan(len);
    }
    if (round_sessions.empty()) break;
    // Real-time pacing: the next chunk has not arrived from the device yet.
    if (!first_round && pace_s > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(pace_s));
    obs::Span filter_span("batch.filter", "serve");
    filter_span.set_arg("sessions", static_cast<std::int64_t>(round_sessions.size()));
    const std::vector<FeedStatus> status =
        StreamingSession::feed_many(round_sessions, round_chunks);
    filter_span.end();
    stage_graph_.record(pipeline::StageId::kFilter, filter_span.elapsed_ms(),
                        round_sessions.size(), round_sessions.size() > 1);
    std::size_t fed = 0;
    for (std::size_t r = 0; r < status.size(); ++r) {
      // A failed session keeps its error; finish_many reports it.
      if (status[r] == FeedStatus::kFailed)
        lanes[round_lanes[r]].pending = {};
      else
        ++fed;
    }
    metrics_.chunks_fed.fetch_add(fed, std::memory_order_relaxed);
  }

  // --- Finish: one batched pass over every surviving session; the echo-PSD
  // stage packs all requests' chirp windows into shared x4 lanes.
  std::vector<StreamingSession*> finish_sessions;
  std::vector<CancelToken> finish_cancels;
  std::vector<std::size_t> finish_lanes;
  for (std::size_t j = 0; j < group.size(); ++j) {
    if (!lanes[j].outcome.ok()) continue;
    finish_sessions.push_back(lanes[j].session);
    finish_cancels.push_back(group[j].cancel);
    finish_lanes.push_back(j);
  }
  if (!finish_sessions.empty()) {
    pipeline::BatchRunInfo info;
    std::vector<pipeline::BatchOutcome> outcomes = StreamingSession::finish_many(
        finish_sessions, finish_cancels, &stage_graph_, &info);
    if (info.forced_fallback || info.psd_retried)
      metrics_.batch_fallbacks.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t r = 0; r < finish_lanes.size(); ++r)
      lanes[finish_lanes[r]].outcome = std::move(outcomes[r]);
  }

  // --- Per-job completion.
  for (std::size_t j = 0; j < group.size(); ++j) {
    Job& job = *group[j].job;
    Lane& lane = lanes[j];
    ServeResult result;
    if (lane.outcome.ok()) {
      try {
        result = finalize_analysis(job.request.id, std::move(lane.outcome.analysis),
                                   lane.resample_ms);
      } catch (...) {
        lane.outcome.error = std::current_exception();
      }
    }
    if (!lane.outcome.ok()) result = error_result(job.request.id, lane.outcome.error);
    finish_job(job, std::move(result), group[j].queue_ms);
  }
}

std::string ServingEngine::metrics_snapshot() const {
  std::ostringstream out;
  out << "earsonar_serve_workers " << config_.workers << "\n";
  out << "earsonar_serve_queue_capacity " << config_.queue_capacity << "\n";
  out << "earsonar_serve_batch_max " << config_.batch_max << "\n";
  out << "earsonar_serve_batch_wait_us " << config_.batch_wait_us << "\n";
  out << "earsonar_serve_model_version " << registry_.version() << "\n";
  const obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  out << "earsonar_serve_trace_enabled " << (recorder.enabled() ? 1 : 0) << "\n";
  out << "earsonar_serve_trace_spans_total " << recorder.size() << "\n";
  out << metrics_.text_snapshot();
  out << stage_graph_.text_snapshot();
  return out.str();
}

}  // namespace earsonar::serve
