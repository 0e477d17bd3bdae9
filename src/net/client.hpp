// NetClient: a blocking wire-protocol client for one connection.
//
// run_session() is the whole device-side contract in one call: resample the
// recording to the server's pipeline rate locally (the same resampler the
// batch path runs, which is what keeps the networked answer bit-identical),
// open a session with Hello, stream Chunk frames — optionally paced at the
// recording's real-time cadence — then Finish and wait for the Result.
// Every outcome the protocol defines is surfaced explicitly: admitted +
// result, rejected (with the server's RejectCode), errored (ErrorCode), or
// a transport failure.
//
// run_session_with_retry() layers the failure-recovery contract on top:
// exponential backoff with jitter (the ModelReloader backoff shape), every
// sleep budgeted against the request deadline, reconnect on transport
// failure, and resume-vs-fail semantics per RejectCode — a draining or
// restarting shard is worth retrying (the key remaps or the shard comes
// back), a stopped server is not.
//
// One NetClient is one connection and is not thread-safe; the load
// generator opens one per worker (loadgen.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "audio/waveform.hpp"
#include "net/socket.hpp"

namespace earsonar::net {

struct SessionOptions {
  std::uint64_t session_id = 1;  ///< must be nonzero and connection-unique
  std::size_t chunk_samples = 4800;  ///< 100 ms at 48 kHz
  /// Seconds between chunk sends (0 = backlogged upload). Real-time device
  /// streaming = chunk_samples / sample_rate.
  double chunk_period_s = 0.0;
  double deadline_ms = 0.0;  ///< carried in Hello; 0 = server default
};

/// Retry policy for run_session_with_retry — the ModelReloader backoff shape
/// (initial × multiplier^k, capped) plus jitter and a wall-clock budget.
struct RetryPolicy {
  std::size_t max_attempts = 4;       ///< total attempts, including the first
  double initial_backoff_ms = 100.0;  ///< delay before the second attempt
  double max_backoff_ms = 10000.0;    ///< backoff ceiling
  double multiplier = 2.0;            ///< growth per consecutive failure
  /// Fractional jitter: each sleep is backoff × (1 ± jitter), seeded —
  /// desynchronizes a fleet of clients retrying into a recovering shard.
  double jitter = 0.2;
  /// Wall-clock budget in milliseconds across all attempts and sleeps
  /// (0 = unbudgeted). A sleep never overruns it: the retry loop gives up
  /// with the last outcome rather than blow the request deadline.
  double budget_ms = 0.0;
  std::uint64_t seed = 1;  ///< jitter RNG seed

  void validate() const;
};

/// How a session ended. Exactly one of the protocol's terminal frames (or a
/// transport failure observed as kTransport).
struct SessionOutcome {
  enum class Kind : std::uint8_t { kResult, kRejected, kError, kTransport };
  Kind kind = Kind::kTransport;
  std::uint32_t shard = 0;      ///< from HelloAck (valid unless rejected at Hello)
  bool admitted = false;        ///< HelloAck received
  ResultPayload result;         ///< when kResult
  std::uint16_t code = 0;       ///< RejectCode / ErrorCode when k{Rejected,Error}
  std::string message;          ///< server text or transport error
  double rtt_ms = 0.0;          ///< Hello sent -> terminal frame received
  std::size_t attempts = 1;     ///< total attempts run_session_with_retry made
};

class NetClient {
 public:
  /// Connects immediately; throws std::runtime_error on refusal,
  /// NetTimeoutError when connect_timeout_ms > 0 expires. read_timeout_ms
  /// bounds every read on the connection (0 = block forever).
  NetClient(const std::string& host, std::uint16_t port,
            int connect_timeout_ms = 0, int read_timeout_ms = 0);

  /// Runs one full session (see file comment). The recording may be at any
  /// sample rate; it is resampled locally to `server_rate` learned from the
  /// connection's first HelloAck (before that, from `expected_rate`).
  SessionOutcome run_session(const audio::Waveform& recording,
                             const SessionOptions& options);

  /// run_session with the retry contract: reconnects on transport failure,
  /// retries retryable outcomes (see retryable()) under exponential backoff
  /// with seeded jitter, never sleeping past policy.budget_ms. The returned
  /// outcome is the final attempt's, with `attempts` filled in.
  SessionOutcome run_session_with_retry(const audio::Waveform& recording,
                                        const SessionOptions& options,
                                        const RetryPolicy& policy);

  /// The resume-vs-fail contract: true when a retry can plausibly succeed.
  /// Transport failures — retry (reconnect). Rejects kShardSessionsFull,
  /// kQueueFull, kTooManyConnections, kShardDraining, kShardRestarting —
  /// retry (load drains, drains remap, restarts finish). Reject kStopped —
  /// fail (the server is going away). Error kShardRestart — retry (the
  /// replacement shard is healthy; the audio is resent from the start).
  /// Every other Error — fail (deterministic: a bad rate or a processing
  /// error will not improve on resend).
  [[nodiscard]] static bool retryable(const SessionOutcome& outcome);

  /// Round-trips an opaque payload through Ping/Pong; nullopt on transport
  /// failure or mismatched echo. Returns the round-trip in milliseconds.
  std::optional<double> ping(std::size_t payload_size = 64);

  /// Requests the server's per-shard counters.
  std::optional<StatsPayload> fetch_stats();

  /// Sends a session-0 Admin frame (requires NetServerConfig::enable_admin
  /// server-side); nullopt on transport failure. A refused op comes back
  /// with code != 0, not nullopt.
  std::optional<AdminReplyPayload> admin(AdminOp op, std::uint32_t shard = 0);

  /// The pipeline rate Hello claims. Updated from each HelloAck; defaults
  /// to 48 kHz (the probe rate) before the first session.
  [[nodiscard]] double expected_rate() const { return expected_rate_; }
  void set_expected_rate(double rate) { expected_rate_ = rate; }

  void close() { stream_.close(); }

 private:
  /// Tears down the current stream and dials host:port again with the
  /// construction-time timeouts. Throws like the constructor.
  void reconnect();

  std::string host_;
  std::uint16_t port_ = 0;
  int connect_timeout_ms_ = 0;
  int read_timeout_ms_ = 0;
  TcpStream stream_;
  std::vector<double> arena_;  ///< read_frame payload buffer
  double expected_rate_ = 48000.0;
};

}  // namespace earsonar::net
