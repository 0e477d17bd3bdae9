#include "net/client.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/interpolate.hpp"

namespace earsonar::net {

namespace {
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}
}  // namespace

void RetryPolicy::validate() const {
  require(max_attempts >= 1, "RetryPolicy: max_attempts must be >= 1");
  require(initial_backoff_ms > 0.0,
          "RetryPolicy: initial_backoff_ms must be positive");
  require(max_backoff_ms >= initial_backoff_ms,
          "RetryPolicy: max_backoff_ms must be >= initial_backoff_ms");
  require(multiplier >= 1.0, "RetryPolicy: multiplier must be >= 1");
  require(jitter >= 0.0 && jitter < 1.0,
          "RetryPolicy: jitter must be in [0, 1)");
  require(budget_ms >= 0.0, "RetryPolicy: budget_ms must be >= 0");
}

NetClient::NetClient(const std::string& host, std::uint16_t port,
                     int connect_timeout_ms, int read_timeout_ms)
    : host_(host),
      port_(port),
      connect_timeout_ms_(connect_timeout_ms),
      read_timeout_ms_(read_timeout_ms),
      stream_(TcpStream::connect(host, port, connect_timeout_ms)) {
  if (read_timeout_ms_ > 0) stream_.set_read_timeout_ms(read_timeout_ms_);
}

void NetClient::reconnect() {
  stream_.close();
  stream_ = TcpStream::connect(host_, port_, connect_timeout_ms_);
  if (read_timeout_ms_ > 0) stream_.set_read_timeout_ms(read_timeout_ms_);
}

SessionOutcome NetClient::run_session(const audio::Waveform& recording,
                                      const SessionOptions& options) {
  SessionOutcome outcome;
  const auto start = Clock::now();

  // Client-side resampling to the pipeline rate — the exact transform
  // EarSonar::analyze applies first, moved to the device so the server only
  // ever sees pipeline-rate samples (and the wire carries the same doubles
  // the batch path would compute on).
  std::span<const double> samples = recording.view();
  std::vector<double> resampled;
  if (recording.sample_rate() != expected_rate_) {
    resampled = dsp::resample_to_rate(samples, recording.sample_rate(),
                                      expected_rate_);
    samples = resampled;
  }

  const auto fail_transport = [&](const std::string& message) {
    outcome.kind = SessionOutcome::Kind::kTransport;
    outcome.message = message;
    outcome.rtt_ms = ms_since(start);
    return outcome;
  };

  // Reads frames until one terminates this session; true when `outcome` is
  // final. Connection-scoped frames (stray Pong etc.) are skipped.
  const auto read_terminal = [&]() -> bool {
    for (;;) {
      const ReadFrameResult read = read_frame(stream_, arena_);
      if (read.kind == ReadFrameResult::Kind::kEof) {
        fail_transport("connection closed by server");
        return true;
      }
      if (read.kind == ReadFrameResult::Kind::kMalformed) {
        fail_transport(std::string("malformed server frame: ") +
                       to_string(read.status));
        return true;
      }
      if (read.kind == ReadFrameResult::Kind::kIoError) {
        fail_transport(read.io_error);
        return true;
      }
      const FrameHeader& header = read.header;
      if (header.session_id != options.session_id) continue;
      const std::span<const std::uint8_t> payload = payload_bytes(arena_, header);
      switch (header.type) {
        case FrameType::kHelloAck: {
          const std::optional<HelloAckPayload> ack = decode_hello_ack(payload);
          if (!ack) {
            fail_transport("malformed HelloAck");
            return true;
          }
          outcome.admitted = true;
          outcome.shard = ack->shard;
          expected_rate_ = ack->sample_rate;
          return false;  // session continues
        }
        case FrameType::kResult: {
          std::optional<ResultPayload> result = decode_result(payload);
          if (!result) {
            fail_transport("malformed Result");
            return true;
          }
          outcome.kind = SessionOutcome::Kind::kResult;
          outcome.result = std::move(*result);
          outcome.rtt_ms = ms_since(start);
          return true;
        }
        case FrameType::kReject: {
          const std::optional<StatusPayload> status = decode_status(payload);
          outcome.kind = SessionOutcome::Kind::kRejected;
          outcome.code = status ? status->code : 0;
          outcome.message = status ? status->message : "";
          outcome.rtt_ms = ms_since(start);
          return true;
        }
        case FrameType::kError: {
          const std::optional<StatusPayload> status = decode_status(payload);
          outcome.kind = SessionOutcome::Kind::kError;
          outcome.code = status ? status->code : 0;
          outcome.message = status ? status->message : "";
          outcome.rtt_ms = ms_since(start);
          return true;
        }
        default:
          continue;  // not a terminal frame for this session
      }
    }
  };

  try {
    HelloPayload hello;
    hello.sample_rate = expected_rate_;
    hello.deadline_ms = options.deadline_ms;
    write_frame(stream_, FrameType::kHello, options.session_id,
                encode_hello(hello));
  } catch (const std::exception& e) {
    return fail_transport(e.what());
  }
  if (read_terminal()) return outcome;  // rejected or transport-failed at Hello

  // Stream the audio. kMaxPayload bounds a frame, so cap the chunk size at
  // what one frame can carry.
  const std::size_t chunk =
      std::min(std::max<std::size_t>(options.chunk_samples, 1),
               kMaxPayload / sizeof(double));
  try {
    for (std::size_t pos = 0; pos < samples.size(); pos += chunk) {
      if (pos > 0 && options.chunk_period_s > 0.0) {
        // Real-time pacing: the device has not captured the next chunk yet.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options.chunk_period_s));
      }
      const std::size_t len = std::min(chunk, samples.size() - pos);
      write_chunk_frame(stream_, options.session_id, samples.subspan(pos, len));
    }
    write_frame(stream_, FrameType::kFinish, options.session_id, {});
  } catch (const std::exception& e) {
    // The server may have ended the session mid-stream (overflow, deadline)
    // — its terminal frame explains the failed write better than EPIPE.
    const std::string transport_error = e.what();
    if (read_terminal()) {
      if (outcome.kind == SessionOutcome::Kind::kTransport)
        outcome.message = transport_error;
      return outcome;
    }
    return fail_transport(transport_error);
  }
  read_terminal();
  return outcome;
}

bool NetClient::retryable(const SessionOutcome& outcome) {
  switch (outcome.kind) {
    case SessionOutcome::Kind::kResult:
      return false;
    case SessionOutcome::Kind::kTransport:
      // Connection died or timed out: reconnect and resend. The session
      // never completed server-side (a session terminates in exactly one
      // frame, which we did not receive), so a resend cannot double-count.
      return true;
    case SessionOutcome::Kind::kRejected:
      switch (static_cast<RejectCode>(outcome.code)) {
        case RejectCode::kShardSessionsFull:
        case RejectCode::kQueueFull:
        case RejectCode::kTooManyConnections:
          return true;  // load-shedding: pressure drains
        case RejectCode::kShardDraining:
        case RejectCode::kShardRestarting:
          return true;  // lifecycle: the key remaps / the shard comes back
        case RejectCode::kStopped:
          return false;  // the server is going away; retrying is futile
        default:
          return false;
      }
    case SessionOutcome::Kind::kError:
      // kShardRestart is the one transient error: the shard that held the
      // session died and its replacement is healthy. Everything else
      // (bad rate, protocol, processing) is deterministic.
      return static_cast<ErrorCode>(outcome.code) == ErrorCode::kShardRestart;
  }
  return false;
}

SessionOutcome NetClient::run_session_with_retry(
    const audio::Waveform& recording, const SessionOptions& options,
    const RetryPolicy& policy) {
  policy.validate();
  const auto start = Clock::now();
  // Jitter stream is per-call and seeded: a fleet of clients with distinct
  // seeds desynchronizes, while one client replays its exact sleep sequence.
  Rng jitter_rng(splitmix64(policy.seed ^ options.session_id));

  SessionOutcome outcome;
  double backoff_ms = policy.initial_backoff_ms;
  bool connected = true;
  for (std::size_t attempt = 1;; ++attempt) {
    if (!connected) {
      try {
        reconnect();
        connected = true;
      } catch (const std::exception& e) {
        // A failed dial is this attempt's (transport) outcome — the server
        // may still be restarting its listener; keep backing off.
        outcome = SessionOutcome{};
        outcome.kind = SessionOutcome::Kind::kTransport;
        outcome.message = e.what();
      }
    }
    if (connected) {
      outcome = run_session(recording, options);
      if (outcome.kind == SessionOutcome::Kind::kTransport) connected = false;
    }
    outcome.attempts = attempt;
    if (!retryable(outcome)) return outcome;
    if (attempt >= policy.max_attempts) return outcome;

    // Budget check before sleeping: a retry that cannot finish inside the
    // deadline is worse than an honest failure now.
    double sleep_ms = backoff_ms;
    if (policy.jitter > 0.0)
      sleep_ms *= 1.0 + jitter_rng.uniform(-policy.jitter, policy.jitter);
    if (policy.budget_ms > 0.0) {
      const double remaining = policy.budget_ms - ms_since(start);
      if (remaining <= 0.0) return outcome;
      sleep_ms = std::min(sleep_ms, remaining);
    }
    if (sleep_ms > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
    backoff_ms = std::min(backoff_ms * policy.multiplier, policy.max_backoff_ms);
  }
}

std::optional<double> NetClient::ping(std::size_t payload_size) {
  std::vector<std::uint8_t> pattern(payload_size);
  for (std::size_t i = 0; i < pattern.size(); ++i)
    pattern[i] = static_cast<std::uint8_t>(i * 131 + 7);
  const auto start = Clock::now();
  try {
    write_frame(stream_, FrameType::kPing, 0, pattern);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  const ReadFrameResult read = read_frame(stream_, arena_);
  if (read.kind != ReadFrameResult::Kind::kFrame ||
      read.header.type != FrameType::kPong)
    return std::nullopt;
  const std::span<const std::uint8_t> echoed = payload_bytes(arena_, read.header);
  if (echoed.size() != pattern.size() ||
      (!pattern.empty() &&
       std::memcmp(echoed.data(), pattern.data(), pattern.size()) != 0))
    return std::nullopt;
  return ms_since(start);
}

std::optional<StatsPayload> NetClient::fetch_stats() {
  try {
    write_frame(stream_, FrameType::kStats, 0, {});
  } catch (const std::exception&) {
    return std::nullopt;
  }
  const ReadFrameResult read = read_frame(stream_, arena_);
  if (read.kind != ReadFrameResult::Kind::kFrame ||
      read.header.type != FrameType::kStatsReply)
    return std::nullopt;
  return decode_stats(payload_bytes(arena_, read.header));
}

std::optional<AdminReplyPayload> NetClient::admin(AdminOp op,
                                                  std::uint32_t shard) {
  AdminPayload request;
  request.op = op;
  request.shard = shard;
  try {
    write_frame(stream_, FrameType::kAdmin, 0, encode_admin(request));
  } catch (const std::exception&) {
    return std::nullopt;
  }
  const ReadFrameResult read = read_frame(stream_, arena_);
  if (read.kind != ReadFrameResult::Kind::kFrame ||
      read.header.type != FrameType::kAdminReply)
    return std::nullopt;
  return decode_admin_reply(payload_bytes(arena_, read.header));
}

}  // namespace earsonar::net
