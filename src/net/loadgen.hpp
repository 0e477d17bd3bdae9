// Load harness for the networked front-end: a simulated user population
// replayed against a NetServer, closed- or open-loop, with tail-latency
// reporting.
//
// Population: `population` distinct simulated ears (sim::SubjectFactory)
// cycled through the four effusion states, each recorded once up front —
// the run replays those recordings, so generation cost never pollutes the
// measurement. Session ids are globally unique, which is what spreads the
// population across shards via the consistent-hash ring.
//
// Two loops:
//   * closed loop — `concurrency` workers, each running sessions back to
//     back on its own connection: measures sustainable service rate;
//   * open loop  — arrivals follow a precomputed Poisson schedule at
//     `arrival_rate_hz` (optionally modulated by a diurnal curve: the run
//     is one compressed day, arrivals peak mid-"day" and trough at the
//     ends). Workers dispatch arrivals from the schedule; an arrival whose
//     turn comes while every worker is busy is still timed from its
//     *scheduled* instant, so queueing delay counts against latency
//     (no coordinated omission).
//
// The report carries exact client-observed percentiles (p50/p99/p999 over
// the recorded per-session latencies — sorted samples, not histogram
// buckets) plus the server's own per-shard counters fetched over a Stats
// frame, so a run shows both sides of the admission story: what clients
// saw, and what each shard counted.
//
// Chaos drill (`chaos = true`, requires the server's admin interface): a
// controller thread fires `chaos_events` seeded lifecycle events — shard
// kill, graceful drain, live add — at evenly spaced points of the replay,
// then polls shard health until every surviving shard reports healthy.
// Workers run with the deadline-budgeted retry policy, and the report adds
// the recovery clock plus the accounting and health invariants the drill
// asserts: every attempted session still terminates exactly once
// (attempted == completed + rejected + errored + transport), every killed
// shard returns to healthy, and `p99_recovered_ms` shows the post-recovery
// tail so a drill can prove latency actually came back. When the pool
// converges too late in the replay for that tail to have samples, the drill
// replays extra sessions (counted in the accounting) until it holds
// kMinRecoveredSamples post-recovery completions, or reports fewer in
// `recovered_samples` after kMaxRecoverySessions top-ups.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/frame.hpp"

namespace earsonar::net {

/// Post-recovery completions a chaos drill collects before it states a
/// recovered tail, and the most extra sessions it replays to get them.
inline constexpr std::size_t kMinRecoveredSamples = 8;
inline constexpr std::size_t kMaxRecoverySessions = 4 * kMinRecoveredSamples;

struct LoadGenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t sessions = 64;    ///< total sessions to attempt
  std::size_t concurrency = 8;  ///< worker connections
  bool open_loop = false;
  /// Open-loop mean arrival rate. 0 = derive a mildly overloaded rate from
  /// a quick closed-loop probe is NOT done here — pass an explicit rate.
  double arrival_rate_hz = 8.0;
  bool diurnal = false;
  /// Peak-to-trough arrival-rate ratio of the diurnal curve (>= 1).
  double diurnal_peak_to_trough = 4.0;
  std::size_t population = 16;  ///< distinct simulated subjects
  std::size_t chirp_count = 6;  ///< probe chirps per recording
  std::size_t chunk_samples = 4800;  ///< 100 ms at 48 kHz
  /// Chunk pacing as a fraction of real time: 1 = live earbud cadence,
  /// 0 = backlogged upload (send as fast as TCP accepts).
  double time_scale = 0.0;
  double deadline_ms = 0.0;  ///< per-session deadline carried in Hello
  std::uint64_t seed = 42;

  // --- client robustness knobs (see NetClient::RetryPolicy) ---
  int connect_timeout_ms = 0;  ///< bound on each dial (0 = blocking connect)
  int read_timeout_ms = 0;     ///< bound on each read (0 = block forever)
  /// Total attempts per session including the first; > 1 enables the
  /// deadline-budgeted retry loop (reconnect on transport failure,
  /// exponential backoff + jitter on retryable outcomes).
  std::size_t max_attempts = 1;
  /// Wall-clock retry budget per session in ms (0 = unbudgeted).
  double retry_budget_ms = 0.0;

  // --- chaos drill ---
  bool chaos = false;           ///< fire lifecycle events mid-replay
  std::size_t chaos_events = 3; ///< kills / drains / adds to fire
  std::uint64_t chaos_seed = 7; ///< event schedule seed

  void validate() const;
};

struct LoadReport {
  std::size_t attempted = 0;
  std::size_t admitted = 0;   ///< HelloAck received
  std::size_t completed = 0;  ///< Result received
  std::size_t rejected = 0;   ///< Reject frames (all codes)
  std::size_t rejected_sessions_full = 0;
  std::size_t rejected_queue_full = 0;
  std::size_t errored = 0;    ///< Error frames (all codes)
  std::size_t deadline_exceeded = 0;
  std::size_t transport_failures = 0;
  double wall_s = 0.0;
  double completed_per_s = 0.0;
  /// Client-observed latency of completed sessions, exact percentiles over
  /// the sorted samples. Open loop measures from the scheduled arrival.
  /// NaN (serialised as null / "n/a") when no session completed — a run with
  /// zero samples makes no latency claim.
  double p50_ms = std::numeric_limits<double>::quiet_NaN();
  double p99_ms = std::numeric_limits<double>::quiet_NaN();
  double p999_ms = std::numeric_limits<double>::quiet_NaN();
  double max_ms = std::numeric_limits<double>::quiet_NaN();
  /// Server-side per-shard counters (Stats frame at the end of the run).
  StatsPayload server;
  bool have_server_stats = false;

  // --- retry / chaos accounting ---
  /// Extra attempts beyond each session's first (0 when retries are off).
  std::size_t retry_attempts = 0;
  std::size_t chaos_events_fired = 0;
  /// Last chaos event -> every surviving shard healthy, in ms (-1 when the
  /// pool never converged within the drill's patience).
  double recovery_ms = 0.0;
  /// Every non-retired shard reported healthy at the end of the run.
  bool all_healthy = false;
  /// Extra post-recovery sessions a chaos drill replayed beyond `sessions`.
  std::size_t recovery_sessions = 0;
  /// attempted == sessions + recovery_sessions and attempted == completed+
  /// rejected+errored+transport — the "nothing vanished" invariant the
  /// drill asserts.
  bool accounting_ok = false;
  /// p99 over sessions that completed after the pool recovered (equals
  /// p99_ms when no chaos ran); shows whether the tail actually came back.
  /// NaN when nothing completed post-recovery.
  double p99_recovered_ms = std::numeric_limits<double>::quiet_NaN();
  /// Completions behind p99_recovered_ms. A chaos drill that ends with fewer
  /// than kMinRecoveredSamples has not shown its tail recovered.
  std::size_t recovered_samples = 0;

  [[nodiscard]] std::string text() const;
  [[nodiscard]] std::string json() const;
};

/// Runs the configured load against a live server and blocks until every
/// session has a terminal outcome.
LoadReport run_loadgen(const LoadGenConfig& config);

}  // namespace earsonar::net
