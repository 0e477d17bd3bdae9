// Concurrent serving engine: many recordings, many devices, one process.
//
// Architecture (see DESIGN.md §"Serving architecture"):
//
//   submit() ──try_push──▶ BoundedQueue ──pop──▶ worker_loop × N ──▶ promise
//                 │                                   │
//            reject with                     one batch of 1..batch_max
//            reason when full                requests (feed_many rounds,
//                                             finish_many, predict against
//                                             ModelRegistry::current)
//
// Backpressure is explicit: a full queue rejects the submission immediately
// with a reason (never blocks the caller, never drops accepted work), so an
// upstream load balancer can retry elsewhere. Workers run on the repo-wide
// `common/parallel` pool — start() leases `workers` pool threads through one
// long-running parallel_for batch until stop(); the engine therefore owns
// the pool while serving (batch stages like EarSonar::fit queue behind it),
// which matches the deployment shape: a process is either serving or
// training, never both at once.
//
// There is one EarSonar execution path: every worker collects a batch (at
// batch_max 1, a batch of one with no linger) and runs it through
// StreamingSession::feed_many rounds in `chunk_samples` slices, then one
// StreamingSession::finish_many pass. Requests may carry `chunk_period_s` to
// replay the device's real arrival cadence (the worker waits between chunks
// as a live session would); such a paced request runs as its own batch of
// one so its waits never stall lane-mates. bench_serve uses that to measure
// how many concurrent real-time sessions a worker count sustains.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "audio/waveform.hpp"
#include "core/detector.hpp"
#include "core/pipeline.hpp"
#include "pipeline/stage_graph.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/registry.hpp"
#include "serve/streaming.hpp"

namespace earsonar::serve {

struct EngineConfig {
  std::size_t workers = 2;          ///< request workers leased from the pool
  std::size_t queue_capacity = 64;  ///< pending requests before rejection
  std::size_t chunk_samples = 480;  ///< default ingestion slice (10 ms @ 48 kHz)
  StreamingConfig session;          ///< per-request streaming configuration
  /// Run workers on dedicated std::threads instead of leasing the shared
  /// parallel pool. The pool lease serializes concurrent engines (run() calls
  /// queue behind one batch mutex), so a sharded deployment — N engines alive
  /// at once under net::ShardPool — must use dedicated threads; a single
  /// in-process engine keeps the pool lease and its serving-or-training
  /// exclusivity (see the file comment).
  bool dedicated_threads = false;
  /// Cross-request batching: a worker that pops a request keeps collecting
  /// up to this many requests (lingering at most batch_wait_us for
  /// stragglers), then runs them through the stage graph as ONE batch —
  /// shared MultiBiquadCascade filter passes during ingest and
  /// cross-request x4 lanes in the echo-PSD stage
  /// (EarSonar::analyze_filtered_many). 1 runs every request as a batch of
  /// one, through the same code, with no linger. Results are bit-identical at every width; see docs/serving.md
  /// "Batching semantics".
  std::size_t batch_max = 1;
  /// Microseconds a batch-leading worker lingers for more requests after its
  /// first pop. 0 still batches whatever is already queued, adding no
  /// latency. Bounded by the request deadline rule: a request whose deadline
  /// expires during the linger is shed before any pipeline work.
  std::size_t batch_wait_us = 200;

  void validate() const;
};

struct ServeRequest {
  std::string id;                 ///< caller's tag, echoed in the result
  audio::Waveform recording;      ///< any sample rate; resampled like analyze()
  std::size_t chunk_samples = 0;  ///< 0 = engine default
  /// Seconds between chunk arrivals (0 = backlogged upload, feed immediately).
  /// Real-time device streaming = chunk_samples / sample_rate.
  double chunk_period_s = 0.0;
  /// Request deadline in milliseconds from submit() (0 = none). An expired
  /// request is shed at dequeue — before any pipeline work — and a request
  /// that expires mid-pipeline is cancelled at the next stage boundary;
  /// either way the result carries deadline_exceeded = true and the request
  /// counts toward `requests_deadline_exceeded_total`, not `failed`.
  double timeout_ms = 0.0;
  /// Alternative payload: a StreamingSession someone else already fed (the
  /// networked front-end streams chunks into the session on the connection
  /// thread as they arrive, then submits only the finalization). When set,
  /// `recording` / chunking fields are ignored and the worker runs only the
  /// finalization (finish_many) + inference. The session must have been
  /// built with a causal pipeline config compatible with this engine's.
  std::unique_ptr<StreamingSession> session = nullptr;
};

struct ServeResult {
  std::string id;
  bool usable = false;  ///< an echo was segmented and features extracted
  std::optional<core::Diagnosis> diagnosis;  ///< set when usable and a model is loaded
  std::size_t events = 0;
  std::size_t echoes = 0;
  core::StageTimings timings;   ///< per-stage pipeline latency
  core::AnalysisQuality quality;  ///< per-chirp degradation report
  /// The 105-dim feature vector when usable (what a remote caller needs to
  /// verify a networked answer bit-for-bit against the in-process pipeline).
  std::vector<double> features;
  double queue_ms = 0.0;        ///< time spent waiting in the queue
  double total_ms = 0.0;        ///< queue wait + processing
  std::uint64_t model_version = 0;
  bool deadline_exceeded = false;  ///< shed at dequeue or cancelled mid-pipeline
  std::string error;            ///< non-empty when processing threw
};

/// Outcome of submit(): either a future for the result, or a rejection with
/// the reason (queue full / engine stopped).
struct Submission {
  bool accepted = false;
  std::string reason;
  std::future<ServeResult> result;
};

class ServingEngine {
 public:
  explicit ServingEngine(EngineConfig config = {});
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Leases worker threads from the shared pool and begins draining the
  /// queue. Idempotent while running.
  void start();

  /// Closes the queue, drains every accepted request, and releases the pool.
  /// Safe to call repeatedly; the destructor calls it.
  void stop();

  [[nodiscard]] bool running() const { return running_.load(); }

  /// Never blocks: accepted requests get a future, a full queue or stopped
  /// engine gets a reason. Accepted requests are always completed (their
  /// future becomes ready) even when stop() races the submission.
  Submission submit(ServeRequest request);

  /// The hot-swappable model store shared by all workers.
  [[nodiscard]] ModelRegistry& registry() { return registry_; }

  [[nodiscard]] const ServeMetrics& metrics() const { return metrics_; }
  /// Mutable access for collaborators that feed engine counters from outside
  /// the request path (e.g. the CLI's model reloader incrementing
  /// `model_reload_retries`).
  [[nodiscard]] ServeMetrics& metrics() { return metrics_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// metrics().text_snapshot() plus engine-level gauges (queue capacity,
  /// worker count, batching knobs, model version/source) and the per-stage
  /// occupancy counters of the stage graph.
  [[nodiscard]] std::string metrics_snapshot() const;

  /// Per-stage occupancy of the execution path (see pipeline::StageGraph);
  /// every batch, including a batch of one, records every stage it ran.
  [[nodiscard]] const pipeline::StageGraph& stage_graph() const {
    return stage_graph_;
  }

 private:
  struct Job {
    ServeRequest request;
    std::promise<ServeResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// Absolute deadline, fixed at submit() from request.timeout_ms.
    std::optional<std::chrono::steady_clock::time_point> deadline;
  };

  /// A dequeued job that survived admission, with its cancel token.
  struct Admitted {
    Job* job = nullptr;
    CancelToken cancel;
    double queue_ms = 0.0;
  };

  void worker_loop();
  /// Dequeue-side bookkeeping: records queue wait, sheds the job (promise
  /// satisfied, nullopt returned) when its deadline already expired, else
  /// hands back the request's cancel token.
  [[nodiscard]] std::optional<CancelToken> admit_dequeued(Job& job,
                                                          double& queue_ms);
  /// One collected batch: shed expired jobs, split off paced jobs, run the
  /// rest as one batch.
  void process_batch(std::vector<Job> batch);
  /// One batch of N >= 1 requests: shared feed_many ingest rounds,
  /// one finish_many pass, then per-request inference and completion.
  void run_earsonar(std::span<const Admitted> group);
  /// Result assembly from one analysis, stage-latency metrics, and inference.
  [[nodiscard]] ServeResult finalize_analysis(const std::string& id,
                                              core::EchoAnalysis analysis,
                                              double resample_ms);
  /// Total/outcome metrics + promise completion for one job.
  void finish_job(Job& job, ServeResult result, double queue_ms);

  EngineConfig config_;
  ModelRegistry registry_;
  ServeMetrics metrics_;
  pipeline::StageGraph stage_graph_;
  BoundedQueue<Job> queue_;
  std::thread coordinator_;                ///< pool-lease mode
  std::vector<std::thread> dedicated_;     ///< dedicated_threads mode
  std::atomic<bool> running_{false};
};

}  // namespace earsonar::serve
