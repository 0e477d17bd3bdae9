#include "net/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/client.hpp"
#include "net/shard.hpp"
#include "sim/probe.hpp"

namespace earsonar::net {

namespace {

using Clock = std::chrono::steady_clock;

/// One session's terminal outcome as the workers record it.
struct Record {
  SessionOutcome::Kind kind = SessionOutcome::Kind::kTransport;
  std::uint16_t code = 0;
  double latency_ms = 0.0;
  std::size_t attempts = 1;
  Clock::time_point finished{};  ///< for the post-recovery tail split
};

/// What the chaos controller thread observed (single-writer; read after join).
struct ChaosOutcome {
  std::size_t events_fired = 0;
  double recovery_ms = -1.0;  ///< -1 until the pool converged
  bool all_healthy = false;
  Clock::time_point recovered_at{};
  bool have_recovered_at = false;
};

std::vector<audio::Waveform> build_population(const LoadGenConfig& config) {
  sim::SubjectFactory factory(static_cast<std::uint32_t>(config.seed));
  sim::ProbeConfig probe_config;
  probe_config.chirp_count = config.chirp_count;
  sim::EarProbe probe(probe_config);
  const auto states = sim::all_effusion_states();
  std::vector<audio::Waveform> recordings;
  recordings.reserve(config.population);
  for (std::size_t i = 0; i < config.population; ++i) {
    Rng rng(config.seed * 1000003ULL + i);
    recordings.push_back(probe.record_state(
        factory.make(static_cast<std::uint32_t>(i)), states[i % states.size()],
        sim::reference_earphone(), {}, rng));
  }
  return recordings;
}

/// Poisson arrival offsets (seconds from run start), optionally modulated by
/// a diurnal curve: the run is one compressed "day", rate peaks mid-run.
std::vector<double> build_arrivals(const LoadGenConfig& config) {
  std::vector<double> arrivals;
  arrivals.reserve(config.sessions);
  Rng rng(config.seed ^ 0xa77ea15ULL);
  const double base = config.arrival_rate_hz;
  const double day_s = static_cast<double>(config.sessions) / base;
  const double ratio = config.diurnal ? config.diurnal_peak_to_trough : 1.0;
  const double m = (ratio - 1.0) / (ratio + 1.0);
  double t = 0.0;
  for (std::size_t i = 0; i < config.sessions; ++i) {
    const double frac = std::min(t / day_s, 1.0);
    const double rate =
        base * (1.0 - m * std::cos(2.0 * std::numbers::pi * frac));
    const double u = rng.uniform(0.0, 1.0);
    t += -std::log1p(-u) / rate;  // Exp(rate) inter-arrival
    arrivals.push_back(t);
  }
  return arrivals;
}

/// True when every non-retired shard in the snapshot is healthy — the
/// convergence predicate of the chaos drill. Retired slots are tombstones
/// of completed drains; they never become healthy again by design.
bool pool_healthy(const AdminReplyPayload& reply) {
  for (const ShardHealthWire& shard : reply.shards) {
    if (shard.health == static_cast<std::uint8_t>(ShardHealth::kRetired))
      continue;
    if (shard.health != static_cast<std::uint8_t>(ShardHealth::kHealthy))
      return false;
  }
  return !reply.shards.empty();
}

/// The drill's event loop: fires `chaos_events` seeded kill/drain/add
/// operations at evenly spaced points of the replay (watching the shared
/// dispatch counter), then polls health until the pool converges.
void chaos_controller(const LoadGenConfig& config,
                      const std::atomic<std::size_t>& next,
                      ChaosOutcome& out) {
  using namespace std::chrono_literals;
  try {
    NetClient admin(config.host, config.port, config.connect_timeout_ms,
                    config.read_timeout_ms);
    Rng rng(splitmix64(config.chaos_seed ^ 0xc4a05c4a05ULL));
    const std::size_t step = std::max<std::size_t>(
        1, config.sessions / (config.chaos_events + 1));
    Clock::time_point last_event{};
    for (std::size_t e = 1; e <= config.chaos_events; ++e) {
      const std::size_t threshold = std::min(e * step, config.sessions);
      while (next.load(std::memory_order_relaxed) < threshold)
        std::this_thread::sleep_for(2ms);
      const std::optional<AdminReplyPayload> health =
          admin.admin(AdminOp::kHealth);
      if (!health) return;  // admin channel broken; drill aborts silently
      std::vector<std::uint32_t> live;  // healthy, in-ring: valid targets
      for (const ShardHealthWire& shard : health->shards)
        if (shard.health == static_cast<std::uint8_t>(ShardHealth::kHealthy) &&
            shard.in_ring != 0)
          live.push_back(shard.slot);
      // 0 = kill, 1 = drain, 2 = add. A drain needs a survivor and a kill
      // needs a victim; infeasible draws degrade to an add (which always
      // grows capacity back).
      std::int64_t draw = rng.uniform_int(0, 2);
      if ((draw == 0 && live.empty()) || (draw == 1 && live.size() < 2))
        draw = 2;
      std::optional<AdminReplyPayload> reply;
      if (draw == 2) {
        reply = admin.admin(AdminOp::kAddShard);
      } else {
        const std::uint32_t victim = live[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
        reply = admin.admin(
            draw == 0 ? AdminOp::kRestartShard : AdminOp::kDrainShard, victim);
      }
      if (!reply) return;
      ++out.events_fired;
      last_event = Clock::now();
    }
    if (out.events_fired == 0) return;
    // Recovery: poll until every surviving shard is healthy again. The
    // patience bound only caps the drill; a healthy pool converges in a few
    // supervisor ticks.
    const Clock::time_point patience = last_event + 30s;
    while (Clock::now() < patience) {
      const std::optional<AdminReplyPayload> health =
          admin.admin(AdminOp::kHealth);
      if (health && pool_healthy(*health)) {
        out.recovered_at = Clock::now();
        out.have_recovered_at = true;
        out.recovery_ms = std::chrono::duration<double, std::milli>(
                              out.recovered_at - last_event)
                              .count();
        out.all_healthy = true;
        return;
      }
      std::this_thread::sleep_for(10ms);
    }
  } catch (const std::exception&) {
    // The drill observes; it must never crash the measurement.
  }
}

double percentile(const std::vector<double>& sorted, double p) {
  // No samples means no latency statement. Returning 0.0 here made a
  // fully-rejected run report "p99_ms: 0" and read as fast; NaN propagates
  // into null-marked report fields instead.
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const std::size_t index =
      std::min(sorted.size() - 1,
               static_cast<std::size_t>(rank > 1.0 ? rank - 1.0 : 0.0));
  return sorted[index];
}

/// JSON has no NaN literal; an absent measurement serialises as null.
std::string json_or_null(double value) {
  if (std::isnan(value)) return "null";
  std::ostringstream out;
  out << value;
  return out.str();
}

/// Text reports mark an absent measurement explicitly instead of printing 0.
std::string text_or_na(double value) {
  if (std::isnan(value)) return "n/a";
  std::ostringstream out;
  out << value;
  return out.str();
}

}  // namespace

void LoadGenConfig::validate() const {
  require(sessions >= 1, "LoadGenConfig: sessions must be >= 1");
  require(concurrency >= 1, "LoadGenConfig: concurrency must be >= 1");
  require(population >= 1, "LoadGenConfig: population must be >= 1");
  require(chunk_samples >= 1, "LoadGenConfig: chunk_samples must be >= 1");
  require(!open_loop || arrival_rate_hz > 0.0,
          "LoadGenConfig: open loop needs arrival_rate_hz > 0");
  require(diurnal_peak_to_trough >= 1.0,
          "LoadGenConfig: diurnal_peak_to_trough must be >= 1");
  require(time_scale >= 0.0, "LoadGenConfig: time_scale must be >= 0");
  require(max_attempts >= 1, "LoadGenConfig: max_attempts must be >= 1");
  require(retry_budget_ms >= 0.0,
          "LoadGenConfig: retry_budget_ms must be >= 0");
  require(connect_timeout_ms >= 0,
          "LoadGenConfig: connect_timeout_ms must be >= 0");
  require(read_timeout_ms >= 0, "LoadGenConfig: read_timeout_ms must be >= 0");
  require(!chaos || chaos_events >= 1,
          "LoadGenConfig: chaos needs chaos_events >= 1");
}

LoadReport run_loadgen(const LoadGenConfig& config) {
  config.validate();
  const std::vector<audio::Waveform> population = build_population(config);
  const std::vector<double> arrivals =
      config.open_loop ? build_arrivals(config) : std::vector<double>{};

  const double rate = 48000.0;  // probe rate; recordings are generated at it
  const double chunk_period_s =
      config.time_scale > 0.0
          ? config.time_scale * static_cast<double>(config.chunk_samples) / rate
          : 0.0;

  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Record>> per_worker(config.concurrency);
  const auto t0 = Clock::now();

  // One session, start to terminal outcome, on `client` (dialled on demand,
  // dropped after a transport failure so the next session reconnects).
  const auto run_one = [&](std::size_t i, std::unique_ptr<NetClient>& client) {
    Record record;
    const auto scheduled =
        config.open_loop && i < config.sessions
            ? t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(arrivals[i]))
            : Clock::now();
    if (config.open_loop) std::this_thread::sleep_until(scheduled);
    try {
      if (!client)
        client = std::make_unique<NetClient>(config.host, config.port,
                                             config.connect_timeout_ms,
                                             config.read_timeout_ms);
      SessionOptions options;
      options.session_id = i + 1;
      options.chunk_samples = config.chunk_samples;
      options.chunk_period_s = chunk_period_s;
      options.deadline_ms = config.deadline_ms;
      const audio::Waveform& payload = population[i % population.size()];
      SessionOutcome outcome;
      if (config.max_attempts > 1) {
        RetryPolicy policy;
        policy.max_attempts = config.max_attempts;
        policy.budget_ms = config.retry_budget_ms;
        policy.seed = config.seed;
        outcome = client->run_session_with_retry(payload, options, policy);
      } else {
        outcome = client->run_session(payload, options);
      }
      record.kind = outcome.kind;
      record.code = outcome.code;
      record.attempts = outcome.attempts;
      if (outcome.kind == SessionOutcome::Kind::kTransport)
        client.reset();  // the connection is dead; reconnect for the next
    } catch (const std::exception&) {
      record.kind = SessionOutcome::Kind::kTransport;
      client.reset();
    }
    // Open loop: latency counts from the *scheduled* arrival so time spent
    // waiting for a free worker is charged, not silently omitted.
    record.finished = Clock::now();
    record.latency_ms =
        std::chrono::duration<double, std::milli>(record.finished - scheduled)
            .count();
    return record;
  };

  const auto worker = [&](std::size_t worker_index) {
    std::unique_ptr<NetClient> client;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= config.sessions) break;
      per_worker[worker_index].push_back(run_one(i, client));
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(config.concurrency);
  for (std::size_t w = 0; w < config.concurrency; ++w)
    threads.emplace_back(worker, w);
  ChaosOutcome chaos_out;
  std::thread chaos_thread;
  if (config.chaos)
    chaos_thread =
        std::thread(chaos_controller, std::cref(config), std::cref(next),
                    std::ref(chaos_out));
  for (std::thread& thread : threads) thread.join();
  if (chaos_thread.joinable()) chaos_thread.join();

  // Post-recovery tail: a completion counts once the pool has converged (any
  // completion when no chaos ran). When the pool converged after most of
  // the replay had finished, top the drill up with extra sessions until the
  // tail has kMinRecoveredSamples behind it — or the top-up cap runs out,
  // leaving recovered_samples short for the caller to fail on.
  const auto recovered = [&](const Record& record) {
    return record.kind == SessionOutcome::Kind::kResult &&
           (!config.chaos || (chaos_out.have_recovered_at &&
                              record.finished >= chaos_out.recovered_at));
  };
  std::size_t recovery_sessions = 0;
  if (config.chaos && chaos_out.have_recovered_at) {
    std::size_t samples = 0;
    for (const std::vector<Record>& records : per_worker)
      samples += static_cast<std::size_t>(
          std::count_if(records.begin(), records.end(), recovered));
    std::unique_ptr<NetClient> client;
    while (samples < kMinRecoveredSamples &&
           recovery_sessions < kMaxRecoverySessions) {
      per_worker.front().push_back(
          run_one(config.sessions + recovery_sessions++, client));
      if (recovered(per_worker.front().back())) ++samples;
    }
  }

  LoadReport report;
  report.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  report.recovery_sessions = recovery_sessions;
  std::vector<double> completed_latencies;
  std::vector<double> recovered_latencies;
  for (const std::vector<Record>& records : per_worker) {
    for (const Record& record : records) {
      ++report.attempted;
      report.retry_attempts += record.attempts - 1;
      if (recovered(record)) recovered_latencies.push_back(record.latency_ms);
      switch (record.kind) {
        case SessionOutcome::Kind::kResult:
          ++report.admitted;
          ++report.completed;
          completed_latencies.push_back(record.latency_ms);
          break;
        case SessionOutcome::Kind::kRejected:
          ++report.rejected;
          if (record.code ==
              static_cast<std::uint16_t>(RejectCode::kShardSessionsFull))
            ++report.rejected_sessions_full;
          if (record.code == static_cast<std::uint16_t>(RejectCode::kQueueFull))
            ++report.rejected_queue_full;
          break;
        case SessionOutcome::Kind::kError:
          ++report.errored;
          if (record.code ==
              static_cast<std::uint16_t>(ErrorCode::kDeadlineExceeded))
            ++report.deadline_exceeded;
          break;
        case SessionOutcome::Kind::kTransport:
          ++report.transport_failures;
          break;
      }
    }
  }
  report.completed_per_s =
      report.wall_s > 0.0 ? static_cast<double>(report.completed) / report.wall_s
                          : 0.0;
  std::sort(completed_latencies.begin(), completed_latencies.end());
  report.p50_ms = percentile(completed_latencies, 0.50);
  report.p99_ms = percentile(completed_latencies, 0.99);
  report.p999_ms = percentile(completed_latencies, 0.999);
  report.max_ms = completed_latencies.empty()
                      ? std::numeric_limits<double>::quiet_NaN()
                      : completed_latencies.back();
  std::sort(recovered_latencies.begin(), recovered_latencies.end());
  report.p99_recovered_ms = percentile(recovered_latencies, 0.99);
  report.recovered_samples = recovered_latencies.size();

  report.chaos_events_fired = chaos_out.events_fired;
  report.recovery_ms = chaos_out.recovery_ms;
  report.all_healthy = config.chaos ? chaos_out.all_healthy : true;
  // A run where every session was attempted but none completed has no
  // latency evidence at all — treat it as an accounting failure so degenerate
  // chaos runs exit nonzero instead of reporting a null-latency "success".
  report.accounting_ok =
      report.attempted == config.sessions + report.recovery_sessions &&
      report.attempted == report.completed + report.rejected + report.errored +
                              report.transport_failures &&
      !(report.completed == 0 && report.attempted > 0);

  try {
    NetClient stats_client(config.host, config.port);
    if (std::optional<StatsPayload> stats = stats_client.fetch_stats()) {
      report.server = std::move(*stats);
      report.have_server_stats = true;
    }
  } catch (const std::exception&) {
    // Stats are best-effort; the client-side half of the report stands.
  }
  return report;
}

std::string LoadReport::text() const {
  std::ostringstream out;
  out << "sessions: " << attempted << " attempted, " << admitted
      << " admitted, " << completed << " completed\n";
  out << "refusals: " << rejected << " rejected ("
      << rejected_sessions_full << " sessions-full, " << rejected_queue_full
      << " queue-full), " << errored << " errored (" << deadline_exceeded
      << " deadline), " << transport_failures << " transport\n";
  out << "throughput: " << completed_per_s << " completed/s over " << wall_s
      << " s\n";
  out << "latency ms: p50 " << text_or_na(p50_ms) << ", p99 "
      << text_or_na(p99_ms) << ", p999 " << text_or_na(p999_ms) << ", max "
      << text_or_na(max_ms) << "\n";
  if (retry_attempts > 0)
    out << "retries: " << retry_attempts << " extra attempts\n";
  if (chaos_events_fired > 0) {
    out << "chaos: " << chaos_events_fired << " events, recovery "
        << recovery_ms << " ms, all-healthy "
        << (all_healthy ? "yes" : "NO") << ", accounting "
        << (accounting_ok ? "ok" : "BROKEN") << ", post-recovery p99 "
        << text_or_na(p99_recovered_ms) << " ms over " << recovered_samples
        << " sessions (" << recovery_sessions << " top-up)\n";
  }
  if (have_server_stats) {
    for (std::size_t s = 0; s < server.shards.size(); ++s) {
      const ShardStatsWire& shard = server.shards[s];
      out << "shard " << s << ": accepted " << shard.accepted << ", completed "
          << shard.completed << ", queue-rejected " << shard.rejected_queue_full
          << ", deadline " << shard.deadline_exceeded << ", sessions-rejected "
          << shard.sessions_rejected << ", chunks " << shard.chunks_fed
          << ", restarts " << shard.restarts << "\n";
    }
  }
  return out.str();
}

std::string LoadReport::json() const {
  std::ostringstream out;
  out << "{\"attempted\": " << attempted << ", \"admitted\": " << admitted
      << ", \"completed\": " << completed << ", \"rejected\": " << rejected
      << ", \"rejected_sessions_full\": " << rejected_sessions_full
      << ", \"rejected_queue_full\": " << rejected_queue_full
      << ", \"errored\": " << errored
      << ", \"deadline_exceeded\": " << deadline_exceeded
      << ", \"transport_failures\": " << transport_failures
      << ", \"wall_s\": " << wall_s
      << ", \"completed_per_s\": " << completed_per_s
      << ", \"p50_ms\": " << json_or_null(p50_ms)
      << ", \"p99_ms\": " << json_or_null(p99_ms)
      << ", \"p999_ms\": " << json_or_null(p999_ms)
      << ", \"max_ms\": " << json_or_null(max_ms)
      << ", \"retry_attempts\": " << retry_attempts
      << ", \"chaos_events_fired\": " << chaos_events_fired
      << ", \"recovery_ms\": " << recovery_ms
      << ", \"all_healthy\": " << (all_healthy ? "true" : "false")
      << ", \"accounting_ok\": " << (accounting_ok ? "true" : "false")
      << ", \"p99_recovered_ms\": " << json_or_null(p99_recovered_ms)
      << ", \"recovered_samples\": " << recovered_samples
      << ", \"recovery_sessions\": " << recovery_sessions
      << ", \"shards\": [";
  for (std::size_t s = 0; s < server.shards.size(); ++s) {
    const ShardStatsWire& shard = server.shards[s];
    out << (s ? ", " : "") << "{\"accepted\": " << shard.accepted
        << ", \"completed\": " << shard.completed
        << ", \"rejected_queue_full\": " << shard.rejected_queue_full
        << ", \"deadline_exceeded\": " << shard.deadline_exceeded
        << ", \"sessions_rejected\": " << shard.sessions_rejected
        << ", \"chunks_fed\": " << shard.chunks_fed << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace earsonar::net
