// perfbench_driver: the repository benchmark's measuring program.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1 --work-dir D
//
// Drives EarSonar from outside through its public entry points and prints,
// as its last stdout line, one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer split with
// --trace 1 (perfbench/README.md has the definitions and the reasons for
// each workload). Inputs are synthesised from --seed before any timer
// starts; every served output is checked bit-for-bit against in-process
// core::EarSonar::analyze computed at run time. Exits nonzero on any
// mismatch or broken accounting.
#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "core/detector.hpp"
#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "eval/experiment.hpp"
#include "harness.hpp"
#include "ml/crossval.hpp"
#include "ml/kmeans.hpp"
#include "ml/laplacian.hpp"
#include "ml/metrics.hpp"
#include "ml/outlier.hpp"
#include "ml/scaler.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "serve/engine.hpp"
#include "serve/streaming.hpp"
#include "sim/dataset.hpp"
#include "sim/effusion.hpp"
#include "sim/probe.hpp"
#include "sim/subject.hpp"

namespace {

using namespace earsonar;
using perfbench::Accounting;
using perfbench::MetricSet;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kChirps = 30;
constexpr std::size_t kChunkSamples = 480;   // 10 ms at 48 kHz
constexpr std::size_t kPopulationSubjects = 64;
constexpr std::size_t kTrainSubjects = 32;
// One connection keeps a session a serial chain that needs about one core
// at a time; with two, other tenants' load on the shared cores moved the
// session p50 by up to 50% while one connection stayed within a few %.
constexpr std::size_t kNetClients = 1;
constexpr std::size_t kBurst = 16;           // = engine batch_max
constexpr std::size_t kServerLaunches = 15;
constexpr std::size_t kSegments = 10;          // engine-burst timed segments
constexpr std::size_t kSetupsPerSegment = 11;
constexpr std::size_t kDatasetBuilds = 5;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build";
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--work-dir") o.work_dir = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (argc % 2 == 0) throw std::invalid_argument("options come in --key value pairs");
  const auto names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end())
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

/// The configuration serving runs: causal band-pass (serve-net sets the
/// same on its shards).
core::PipelineConfig serving_pipeline() {
  core::PipelineConfig config;
  config.preprocess.zero_phase = false;
  return config;
}

// ------------------------------------------------------------------ inputs

struct Capture {
  audio::Waveform waveform;
  std::size_t state = 0;
};

/// 64 seeded subjects, each captured once in each of the four states.
std::vector<Capture> build_population(std::uint64_t seed) {
  const sim::SubjectFactory factory(static_cast<std::uint32_t>(seed));
  sim::ProbeConfig probe_config;
  probe_config.chirp_count = kChirps;
  const sim::EarProbe probe(probe_config);
  const auto states = sim::all_effusion_states();
  std::vector<Capture> population;
  for (std::size_t i = 0; i < kPopulationSubjects; ++i) {
    const sim::Subject subject = factory.make(static_cast<std::uint32_t>(i));
    for (std::size_t s = 0; s < states.size(); ++s) {
      Rng rng(seed * 1000003ULL + i * states.size() + s);
      population.push_back({probe.record_state(subject, states[s],
                                               sim::reference_earphone(), {}, rng),
                            sim::state_index(states[s])});
    }
  }
  return population;
}

/// Trains the serving model on a seeded cohort disjoint from the population
/// and round-trips it through the model file serve-net loads.
core::DetectorModel train_model(std::uint64_t seed, const std::string& path) {
  sim::CohortConfig cohort;
  cohort.subject_count = kTrainSubjects;
  cohort.sessions_per_state = 1;
  cohort.probe.chirp_count = kChirps;
  cohort.seed = seed ^ 0x7a11'5eedULL;
  const eval::EvalDataset data = eval::build_earsonar_dataset(
      sim::CohortGenerator(cohort).generate(), core::EarSonar(serving_pipeline()));
  core::MeeDetector detector;
  detector.fit(data.features, data.labels);
  core::save_detector_file(detector, path);
  return core::load_detector_file(path);
}

/// What in-process analyze() says about one capture under the serving config.
struct Reference {
  bool usable = false;
  std::vector<double> features;
  std::optional<core::Diagnosis> diagnosis;
};

std::vector<Reference> build_references(const std::vector<Capture>& population,
                                        const core::DetectorModel& model) {
  const core::EarSonar pipeline(serving_pipeline());
  std::vector<Reference> refs(population.size());
  parallel_for(population.size(), [&](std::size_t i) {
    core::EchoAnalysis analysis = pipeline.analyze(population[i].waveform);
    refs[i].usable = analysis.usable();
    if (refs[i].usable) refs[i].diagnosis = model.predict(analysis.features);
    refs[i].features = std::move(analysis.features);
  });
  return refs;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_features(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The served diagnoses' macro F1 against ground truth. Every served result
/// is checked equal to its reference, so this is computed once from those.
double population_macro_f1(const std::vector<Capture>& population,
                           const std::vector<Reference>& refs) {
  ml::ConfusionMatrix cm(core::kMeeStateCount);
  for (std::size_t i = 0; i < population.size(); ++i)
    if (refs[i].diagnosis) cm.add(population[i].state, refs[i].diagnosis->state);
  return cm.macro_f1();
}

bool same_counts(const ml::ConfusionMatrix& a, const ml::ConfusionMatrix& b) {
  for (std::size_t t = 0; t < a.classes(); ++t)
    for (std::size_t p = 0; p < a.classes(); ++p)
      if (a.at(t, p) != b.at(t, p)) return false;
  return true;
}

/// Returns the freed input-synthesis heap to the kernel, then restarts the
/// peak-RSS watermark there: peak_rss_mb of an in-process workload is growth
/// above the loaded inputs. Returns the baseline RSS in MiB.
double rss_baseline() {
  malloc_trim(0);
  if (!perfbench::reset_peak_rss())
    throw std::runtime_error("cannot reset the peak-RSS watermark");
  return perfbench::status_mib("self", "VmRSS").value_or(0.0);
}

double peak_growth_mb(double baseline_mib) {
  const double peak = perfbench::status_mib("self", "VmHWM").value_or(0.0);
  return (peak - baseline_mib) * 1.048576;
}

/// Everything a workload reports besides the result line.
struct RunResult {
  Accounting accounting;
  bool consistent = true;  ///< workload-specific checks beyond per-op outputs
  MetricSet metrics;
};

void print_latency(const char* name, const std::vector<double>& samples) {
  const auto p50 = perfbench::median(samples);
  const auto tail = perfbench::tail_percentile(samples);
  std::printf("%s p50=%s ms", name, perfbench::json_number(p50.value_or(NAN)).c_str());
  for (const double p : {10.0, 25.0, 75.0, 90.0})
    std::printf(" p%g=%.4f", p, perfbench::percentile(samples, p).value_or(NAN));
  if (tail)
    std::printf(" p%g=%s ms", tail->percentile, perfbench::json_number(tail->value).c_str());
  else
    std::printf(" tail=null");
  std::printf(" samples=%zu\n", samples.size());
}

// -------------------------------------------------------------- net-stream

/// One spawned `earsonar serve-net`; stopped (SIGTERM + wait) on destruction.
class ServerProcess {
 public:
  explicit ServerProcess(const std::string& model_path) {
    std::vector<std::string> args{PERFBENCH_CLI, "serve-net", "--port", "0",
                                  "--shards", "2", "--shard-workers", "1",
                                  "--batch-max", "1", "--model", model_path};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const auto start = Clock::now();
    pid_ = fork();
    if (pid_ == 0) {
      // Only async-signal-safe calls until exec. The server dies with this
      // thread, so a driver killed on timeout leaves no server behind.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(fds[1], STDOUT_FILENO);
      const int null_fd = open("/dev/null", O_WRONLY);
      if (null_fd >= 0) dup2(null_fd, STDERR_FILENO);
      close(fds[0]);
      close(fds[1]);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    try {
      if (pid_ < 0) throw std::runtime_error("cannot fork serve-net");
      port_ = wait_for_listening_line();
    } catch (...) {
      stop();  // the destructor does not run for a throwing constructor
      throw;
    }
    setup_s_ = ms_since(start) / 1e3;
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] double setup_s() const { return setup_s_; }

 private:
  void stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

  std::uint16_t wait_for_listening_line() {
    std::string out;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (Clock::now() < deadline) {
      pollfd p{out_fd_, POLLIN, 0};
      if (poll(&p, 1, 1000) <= 0) continue;
      char buf[512];
      const ssize_t n = read(out_fd_, buf, sizeof buf);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
      const std::size_t at = out.find("listening on ");
      if (at == std::string::npos) continue;
      const std::size_t eol = out.find('\n', at);
      if (eol == std::string::npos) continue;
      const std::size_t colon = out.find(':', at);
      return static_cast<std::uint16_t>(std::stoul(out.substr(colon + 1)));
    }
    throw std::runtime_error("serve-net never printed its listening line");
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  double setup_s_ = 0.0;
};

struct NetSample {
  double rtt_ms = 0.0;
  double queue_ms = 0.0;
  double server_total_ms = 0.0;
  double at_s = 0.0;  ///< completion, seconds into the phase
};

struct NetPhase {
  Accounting accounting;
  std::vector<NetSample> samples;
  double wall_s = 0.0;
  double server_cpu_ms = 0.0;
  double client_cpu_ms = 0.0;
};

/// Classifies one session outcome against its reference.
void account_session(const net::SessionOutcome& outcome, const Reference& ref,
                     Accounting& acc) {
  ++acc.attempted;
  using Kind = net::SessionOutcome::Kind;
  if (outcome.kind == Kind::kRejected) {
    ++acc.rejected;
  } else if (outcome.kind == Kind::kError) {
    ++acc.errored;
  } else if (outcome.kind == Kind::kTransport) {
    ++acc.transport;
  } else {
    const net::ResultPayload& r = outcome.result;
    const bool match =
        r.usable == ref.usable && same_features(r.features, ref.features) &&
        r.has_diagnosis == ref.diagnosis.has_value() &&
        (!ref.diagnosis || (r.state == ref.diagnosis->state &&
                            same_bits(r.confidence, ref.diagnosis->confidence)));
    ++(match ? acc.ok : acc.mismatched);
  }
}

/// Closed loop: kNetClients connections, each running sessions back to back
/// until `seconds` pass. With `tracers`, each client wraps its sessions in a
/// span and adds the server-reported total as a child.
NetPhase run_net_phase(const ServerProcess& server, const std::vector<Capture>& population,
                       const std::vector<Reference>& refs, double seconds,
                       std::atomic<std::uint64_t>& next_session,
                       std::vector<Tracer>* tracers = nullptr) {
  NetPhase phase;
  std::vector<Accounting> accounting(kNetClients);
  std::vector<std::vector<NetSample>> samples(kNetClients);
  const double server_cpu0 = perfbench::process_cpu_ms(server.pid()).value_or(NAN);
  const double client_cpu0 = perfbench::self_cpu_ms();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kNetClients; ++c) {
    clients.emplace_back([&, c] {
      std::optional<net::NetClient> client;
      while (Clock::now() < deadline) {
        net::SessionOptions options;
        options.session_id = next_session.fetch_add(1) + 1;
        const std::size_t idx = options.session_id % population.size();
        options.chunk_samples = kChunkSamples;
        net::SessionOutcome outcome;
        try {
          if (!client) client.emplace("127.0.0.1", server.port(), 5000, 30000);
          if (tracers) {
            Tracer& tracer = (*tracers)[c];
            const auto span = tracer.span("net.session", options.session_id);
            outcome = client->run_session(population[idx].waveform, options);
            tracer.record_child("serve.server_total", outcome.result.total_ms,
                                options.session_id);
          } else {
            outcome = client->run_session(population[idx].waveform, options);
          }
        } catch (const std::exception& e) {
          outcome.kind = net::SessionOutcome::Kind::kTransport;
          outcome.message = e.what();
        }
        account_session(outcome, refs[idx], accounting[c]);
        if (outcome.kind == net::SessionOutcome::Kind::kTransport) {
          client.reset();  // reconnect for the next session
          continue;
        }
        samples[c].push_back(
            {outcome.rtt_ms, outcome.result.queue_ms, outcome.result.total_ms,
             ms_since(start) / 1e3});
      }
    });
  }
  for (std::thread& t : clients) t.join();
  phase.wall_s = ms_since(start) / 1e3;
  phase.server_cpu_ms =
      perfbench::process_cpu_ms(server.pid()).value_or(NAN) - server_cpu0;
  phase.client_cpu_ms = perfbench::self_cpu_ms() - client_cpu0;
  for (std::size_t c = 0; c < kNetClients; ++c) {
    phase.accounting.merge(accounting[c]);
    phase.samples.insert(phase.samples.end(), samples[c].begin(), samples[c].end());
  }
  return phase;
}

std::vector<double> rtts(const NetPhase& phase) {
  std::vector<double> out;
  for (const NetSample& s : phase.samples) out.push_back(s.rtt_ms);
  return out;
}

/// Lower quartile of the session medians of the phase's quarter seconds
/// (a few hundred sessions each at the closed loop's rate). Over eight
/// seeded runs on a 4-vCPU VM with host steal, its quartile spread was 5% of
/// its median, against 5.5% for the whole-phase median and 14% for the
/// quietest window's. Unlike the whole-phase median, it ignores contention
/// that covers up to three quarters of the run.
double window_p50(const NetPhase& phase) {
  std::vector<perfbench::TimedSample> timed;
  for (const NetSample& s : phase.samples) timed.push_back({s.at_s, s.rtt_ms});
  return perfbench::window_median_percentile(timed, 0.25, 30, 25.0).value_or(NAN);
}

/// The traced replay of one networked session on this thread: the client's
/// frame encoding, the server's frame decoding, StreamingSession feed and
/// finish, inference, and the result frame back, each in its own span.
struct ReplayTotals {
  std::size_t frames = 0;
  std::size_t bytes = 0;
};

void replay_net_session(Tracer& tracer, std::uint64_t sid, const Capture& capture,
                        const Reference& ref, const core::DetectorModel& model,
                        ReplayTotals& totals, Accounting& acc) {
  const auto root = tracer.span("session", sid);
  std::vector<std::uint8_t> wire;  // client -> server bytes
  const auto append = [&](const std::vector<std::uint8_t>& frame) {
    wire.insert(wire.end(), frame.begin(), frame.end());
    ++totals.frames;
  };
  {
    const auto span = tracer.span("net.frame.encode", sid);
    append(net::encode_frame(net::FrameType::kHello, sid,
                             net::encode_hello({capture.waveform.sample_rate(), 0.0, 0})));
    const std::span<const double> samples = capture.waveform.view();
    for (std::size_t pos = 0; pos < samples.size(); pos += kChunkSamples) {
      const std::span<const double> chunk =
          samples.subspan(pos, std::min(kChunkSamples, samples.size() - pos));
      const std::span<const std::uint8_t> payload(
          reinterpret_cast<const std::uint8_t*>(chunk.data()), chunk.size_bytes());
      std::vector<std::uint8_t> frame(net::kHeaderSize);
      net::encode_header(frame, net::FrameType::kChunk, sid, payload);
      frame.insert(frame.end(), payload.begin(), payload.end());
      append(frame);
    }
    append(net::encode_frame(net::FrameType::kFinish, sid, {}));
  }
  totals.bytes += wire.size();

  std::vector<net::Frame> frames;
  {
    const auto span = tracer.span("net.frame.decode", sid);
    net::FrameDecoder decoder;
    decoder.push(wire);
    while (std::optional<net::Frame> frame = decoder.next()) frames.push_back(std::move(*frame));
    if (frames.empty() || !net::decode_hello(frames.front().payload))
      throw std::runtime_error("replay: hello did not decode");
  }
  std::vector<std::uint8_t> reply;  // server -> client bytes
  {
    const auto span = tracer.span("net.frame.encode", sid);
    reply = net::encode_frame(net::FrameType::kHelloAck, sid,
                              net::encode_hello_ack({0, capture.waveform.sample_rate()}));
    ++totals.frames;
  }
  serve::StreamingConfig session_config;
  session_config.pipeline = serving_pipeline();
  serve::StreamingSession session(session_config);
  std::vector<double> arena;
  for (const net::Frame& frame : frames) {
    if (frame.header.type != net::FrameType::kChunk) continue;
    arena.resize(frame.payload.size() / sizeof(double));
    std::memcpy(arena.data(), frame.payload.data(), frame.payload.size());
    const auto span = tracer.span("serve.stream.feed", sid);
    (void)session.feed(arena);
  }
  core::EchoAnalysis analysis;
  {
    const auto span = tracer.span("serve.stream.finish", sid);
    analysis = session.finish();
    tracer.record_child("core.event_detect", analysis.timings.event_detect_ms, sid);
    tracer.record_child("core.segment", analysis.timings.segment_ms, sid);
    tracer.record_child("core.features", analysis.timings.feature_ms, sid);
  }
  net::ResultPayload result;
  result.usable = analysis.usable();
  result.events = static_cast<std::uint32_t>(analysis.events.size());
  result.echoes = static_cast<std::uint32_t>(analysis.echoes.size());
  if (result.usable) {
    const auto span = tracer.span("core.inference", sid);
    const core::Diagnosis diagnosis = model.predict(analysis.features);
    result.has_diagnosis = true;
    result.state = static_cast<std::uint8_t>(diagnosis.state);
    result.confidence = diagnosis.confidence;
  }
  result.features = std::move(analysis.features);
  {
    const auto span = tracer.span("net.frame.encode", sid);
    const std::vector<std::uint8_t> frame =
        net::encode_frame(net::FrameType::kResult, sid, net::encode_result(result));
    reply.insert(reply.end(), frame.begin(), frame.end());
    ++totals.frames;
  }
  totals.bytes += reply.size();

  net::SessionOutcome outcome;
  {
    const auto span = tracer.span("net.frame.decode", sid);
    const std::span<const std::uint8_t> bytes(reply);
    std::size_t at = 0;
    while (at < bytes.size()) {
      net::FrameHeader header;
      if (net::parse_header(bytes.subspan(at), header) != net::DecodeStatus::kOk)
        throw std::runtime_error("replay: bad reply header");
      const auto head = bytes.subspan(at, net::kHeaderSize);
      const auto payload = bytes.subspan(at + net::kHeaderSize, header.payload_len);
      {
        const auto crc_span = tracer.span("net.frame.check_crc", sid);
        if (!net::check_crc(head, payload, header))
          throw std::runtime_error("replay: reply CRC mismatch");
      }
      if (header.type == net::FrameType::kResult) {
        const std::optional<net::ResultPayload> decoded = net::decode_result(payload);
        if (!decoded) throw std::runtime_error("replay: result did not decode");
        outcome.kind = net::SessionOutcome::Kind::kResult;
        outcome.result = *decoded;
      }
      at += net::kHeaderSize + header.payload_len;
    }
  }
  account_session(outcome, ref, acc);
}

RunResult run_net_stream(const Options& opt) {
  const std::string model_path =
      opt.work_dir + "/perfbench-model-" + std::to_string(getpid()) + ".txt";
  const std::vector<Capture> population = build_population(opt.seed);
  const core::DetectorModel model = train_model(opt.seed, model_path);
  const std::vector<Reference> refs = build_references(population, model);

  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (std::size_t i = 0; i < kServerLaunches; ++i) {
    server.reset();
    server = std::make_unique<ServerProcess>(model_path);
    setups.push_back(server->setup_s());
  }
  std::filesystem::remove(model_path);

  std::atomic<std::uint64_t> next_session{0};
  const double warmup_s = std::max(1.0, 0.1 * opt.seconds);
  Accounting acc = run_net_phase(*server, population, refs, warmup_s, next_session).accounting;
  const double timed_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const std::uint64_t switches0 = perfbench::self_involuntary_switches();
  const NetPhase timed = run_net_phase(*server, population, refs, timed_s, next_session);
  acc.merge(timed.accounting);
  const std::vector<double> latencies = rtts(timed);
  const double sessions = static_cast<double>(timed.samples.size());
  const double p50 = window_p50(timed);

  std::printf("net-stream sessions=%zu wall_s=%.3f sessions_per_s=%.1f\n",
              timed.samples.size(), timed.wall_s, sessions / timed.wall_s);
  print_latency("session", latencies);
  std::printf("e2e session_p50_ms=%s (window quartile; whole phase %s) cpu_ms_per_session=%s "
              "client_cpu_ms_per_session=%s\n",
              perfbench::json_number(p50).c_str(),
              perfbench::json_number(perfbench::median(latencies).value_or(NAN)).c_str(),
              perfbench::json_number(timed.server_cpu_ms / sessions).c_str(),
              perfbench::json_number(timed.client_cpu_ms / sessions).c_str());
  std::printf("client involuntary_switches_per_session=%.3f\n",
              static_cast<double>(perfbench::self_involuntary_switches() - switches0) /
                  sessions);

  RunResult run{Accounting{}, true,
                MetricSet(opt.trace ? perfbench::per_layer_metrics()
                                    : perfbench::end_to_end_metrics())};
  if (!opt.trace) {
    run.metrics.set("setup_s", perfbench::median(setups).value_or(NAN));
    run.metrics.set("latency_ms", p50);
    run.metrics.set("cpu_ms_per_op", timed.server_cpu_ms / sessions);
    run.metrics.set("peak_rss_mb",
                    perfbench::status_mib(std::to_string(server->pid()), "VmHWM")
                            .value_or(NAN) * 1.048576);
    run.metrics.set("ok_ratio", acc.ok_ratio());
    run.metrics.set("macro_f1", population_macro_f1(population, refs));
    run.accounting = acc;
    return run;
  }

  // Traced: the same closed loop with client-side session spans (the
  // overhead), then a single-thread replay of every capture through the
  // public layer calls (the split).
  std::vector<Tracer> tracers(kNetClients);
  const NetPhase traced =
      run_net_phase(*server, population, refs, opt.seconds / 2.0, next_session, &tracers);
  acc.merge(traced.accounting);
  std::vector<double> queue_ms, server_total_ms;
  for (const NetSample& s : traced.samples) {
    queue_ms.push_back(s.queue_ms);
    server_total_ms.push_back(s.server_total_ms);
  }
  const double traced_p50 = window_p50(traced);

  Tracer tracer;
  ReplayTotals totals;
  for (std::size_t i = 0; i < population.size(); ++i)
    replay_net_session(tracer, next_session.fetch_add(1) + 1, population[i], refs[i],
                       model, totals, acc);
  const double n = static_cast<double>(population.size());
  auto self = tracer.self_ms_by_name();
  const auto layer = [&](const char* name) { return self[name] / n; };
  const double encode = layer("net.frame.encode");
  const double decode = layer("net.frame.decode") + layer("net.frame.check_crc");
  const double finish = layer("serve.stream.finish") + layer("core.event_detect") +
                        layer("core.segment") + layer("core.features");
  const double attributed = encode + decode + layer("serve.stream.feed") + finish +
                            layer("core.inference");
  MetricSet& m = run.metrics;
  m.set("net.frame.encode_us_per_session", encode * 1e3);
  m.set("net.frame.decode_us_per_session", decode * 1e3);
  m.set("net.frames_per_session", static_cast<double>(totals.frames) / n);
  m.set("net.bytes_per_session", static_cast<double>(totals.bytes) / n);
  m.set("net.client.cpu_ms_per_session", timed.client_cpu_ms / sessions);
  m.set("net.unattributed_ms", p50 - attributed);
  m.set("net.session_p99_ms", perfbench::percentile(latencies, 99.0).value_or(NAN));
  m.set("net.session_samples", sessions);
  m.set("net.trace_overhead_ms", traced_p50 - p50);
  m.set("serve.stream.feed_ms_per_session", layer("serve.stream.feed"));
  m.set("serve.stream.finish_ms_per_session", finish);
  m.set("serve.queue_ms_p50", perfbench::median(queue_ms).value_or(NAN));
  m.set("serve.server_total_ms_p50", perfbench::median(server_total_ms).value_or(NAN));
  m.set("core.event_detect_ms", layer("core.event_detect"));
  m.set("core.segment_ms", layer("core.segment"));
  m.set("core.features_ms", layer("core.features"));
  m.set("core.inference_ms", layer("core.inference"));
  std::printf("trace traced_session_p50_ms=%s untraced_session_p50_ms=%s spans=%zu\n",
              perfbench::json_number(traced_p50).c_str(),
              perfbench::json_number(p50).c_str(), tracer.records().size());
  tracer.write(opt.work_dir + "/perfbench-trace-net-stream.jsonl");
  run.accounting = acc;
  return run;
}

// ------------------------------------------------------------ engine-burst

serve::EngineConfig burst_engine_config() {
  serve::EngineConfig config;
  config.workers = 1;
  config.batch_max = kBurst;
  config.session.pipeline = serving_pipeline();
  return config;
}

void account_serve(const serve::ServeResult& r, const Reference& ref, Accounting& acc) {
  if (r.deadline_exceeded || !r.error.empty()) {
    ++acc.errored;
    return;
  }
  const bool match =
      r.usable == ref.usable && same_features(r.features, ref.features) &&
      r.diagnosis.has_value() == ref.diagnosis.has_value() &&
      (!ref.diagnosis || (r.diagnosis->state == ref.diagnosis->state &&
                          same_bits(r.diagnosis->distance, ref.diagnosis->distance) &&
                          same_bits(r.diagnosis->confidence, ref.diagnosis->confidence)));
  ++(match ? acc.ok : acc.mismatched);
}

/// Submits one burst of whole uploads and waits for all of them; returns
/// first submit -> last result in milliseconds.
double run_burst(serve::ServingEngine& engine, const std::vector<Capture>& population,
                 const std::vector<Reference>& refs, std::size_t first, Accounting& acc) {
  std::vector<serve::ServeRequest> requests(kBurst);
  std::vector<std::size_t> index(kBurst);
  for (std::size_t j = 0; j < kBurst; ++j) {
    index[j] = (first + j) % population.size();
    requests[j].id = std::to_string(index[j]);
    requests[j].recording = population[index[j]].waveform;
    requests[j].chunk_samples = kChunkSamples;
  }
  std::vector<std::optional<std::future<serve::ServeResult>>> futures(kBurst);
  const auto start = Clock::now();
  for (std::size_t j = 0; j < kBurst; ++j) {
    serve::Submission submission = engine.submit(std::move(requests[j]));
    if (submission.accepted) futures[j] = std::move(submission.result);
  }
  std::vector<serve::ServeResult> results(kBurst);
  for (std::size_t j = 0; j < kBurst; ++j)
    if (futures[j]) results[j] = futures[j]->get();
  const double elapsed = ms_since(start);
  for (std::size_t j = 0; j < kBurst; ++j) {
    if (!futures[j]) {
      ++acc.attempted;
      ++acc.rejected;
      continue;
    }
    ++acc.attempted;
    account_serve(results[j], refs[index[j]], acc);
  }
  return elapsed;
}

/// The engine's batched pass replayed on this thread: feed_many rounds,
/// finish_many and inference per request, each in its own span.
void replay_burst(Tracer& tracer, std::uint64_t burst, const std::vector<Capture>& population,
                  const std::vector<Reference>& refs, std::size_t first,
                  const core::DetectorModel& model, Accounting& acc) {
  serve::StreamingConfig lane_config = burst_engine_config().session;
  lane_config.defer_event_detection = true;  // as the engine's own lanes
  std::vector<std::unique_ptr<serve::StreamingSession>> owned;
  std::vector<serve::StreamingSession*> sessions;
  std::vector<std::size_t> index;
  for (std::size_t j = 0; j < kBurst; ++j) {
    owned.push_back(std::make_unique<serve::StreamingSession>(lane_config));
    sessions.push_back(owned.back().get());
    index.push_back((first + j) % population.size());
  }
  const auto root = tracer.span("burst", burst);
  for (std::size_t pos = 0;; pos += kChunkSamples) {
    std::vector<serve::StreamingSession*> round;
    std::vector<std::span<const double>> chunks;
    for (std::size_t j = 0; j < kBurst; ++j) {
      const std::span<const double> samples = population[index[j]].waveform.view();
      if (pos >= samples.size()) continue;
      round.push_back(sessions[j]);
      chunks.push_back(samples.subspan(pos, std::min(kChunkSamples, samples.size() - pos)));
    }
    if (round.empty()) break;
    const auto span = tracer.span("serve.stream.feed_many", burst);
    (void)serve::StreamingSession::feed_many(round, chunks);
  }
  std::vector<pipeline::BatchOutcome> outcomes;
  {
    const std::vector<CancelToken> cancels(kBurst);
    const auto span = tracer.span("serve.stream.finish_many", burst);
    outcomes = serve::StreamingSession::finish_many(sessions, cancels);
  }
  for (std::size_t j = 0; j < kBurst; ++j) {
    serve::ServeResult r;
    if (!outcomes[j].ok()) {
      r.error = "finish_many failed";
    } else {
      r.usable = outcomes[j].analysis.usable();
      if (r.usable) {
        const auto span = tracer.span("core.inference", burst);
        r.diagnosis = model.predict(outcomes[j].analysis.features);
      }
      r.features = std::move(outcomes[j].analysis.features);
    }
    ++acc.attempted;
    account_serve(r, refs[index[j]], acc);
  }
}

RunResult run_engine_burst(const Options& opt) {
  const std::string model_path =
      opt.work_dir + "/perfbench-model-" + std::to_string(getpid()) + ".txt";
  const std::vector<Capture> population = build_population(opt.seed);
  const core::DetectorModel model = train_model(opt.seed, model_path);
  const std::vector<Reference> refs = build_references(population, model);
  const double baseline_mib = rss_baseline();

  // Counters summed over every engine the run builds.
  struct Served {
    double batches = 0.0, batched = 0.0, completed = 0.0;
    std::array<double, pipeline::kStageCount> busy_us{};
  } served;
  std::unique_ptr<serve::ServingEngine> engine;
  const auto retire = [&] {
    if (!engine) return;
    engine->stop();
    const serve::ServeMetrics& sm = engine->metrics();
    served.batches += static_cast<double>(sm.batches.load());
    served.batched += static_cast<double>(sm.batched_requests.load());
    served.completed += static_cast<double>(sm.completed.load());
    for (std::size_t s = 0; s < pipeline::kStageCount; ++s)
      served.busy_us[s] += static_cast<double>(
          engine->stage_graph().stats(static_cast<pipeline::StageId>(s)).busy_us.load());
    engine.reset();
  };
  // Set-up is sampled before every timed segment rather than in one stretch
  // at the start, so no single fast or slow stretch of the host sets the
  // median.
  std::vector<double> setups;
  const auto rebuild = [&] {
    for (std::size_t i = 0; i < kSetupsPerSegment; ++i) {
      retire();
      const auto start = Clock::now();
      engine = std::make_unique<serve::ServingEngine>(burst_engine_config());
      engine->registry().load_file(model_path);  // as `earsonar serve --model`
      engine->start();
      setups.push_back(ms_since(start) / 1e3);
    }
  };

  Accounting acc;
  std::size_t next = 0;
  const auto burst_until = [&](double seconds, std::vector<double>* latencies) {
    const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
    do {
      const double ms = run_burst(*engine, population, refs, next, acc);
      next += kBurst;
      if (latencies) latencies->push_back(ms);
    } while (Clock::now() < deadline);
  };
  rebuild();
  burst_until(std::max(1.0, 0.1 * opt.seconds), nullptr);
  std::vector<double> latencies;
  double cpu_ms = 0.0, wall_s = 0.0, switches = 0.0;
  const double segment_s = (opt.trace ? opt.seconds / 2.0 : opt.seconds) / kSegments;
  for (std::size_t segment = 0; segment < kSegments; ++segment) {
    rebuild();
    burst_until(0.0, nullptr);  // one untimed burst warms the fresh engine
    const double cpu0 = perfbench::self_cpu_ms();
    const std::uint64_t switches0 = perfbench::self_involuntary_switches();
    const auto start = Clock::now();
    burst_until(segment_s, &latencies);
    wall_s += ms_since(start) / 1e3;
    cpu_ms += perfbench::self_cpu_ms() - cpu0;
    switches += static_cast<double>(perfbench::self_involuntary_switches() - switches0);
  }
  const double peak_mb = peak_growth_mb(baseline_mib);
  retire();
  std::filesystem::remove(model_path);
  const double requests = static_cast<double>(latencies.size() * kBurst);
  const double cpu_per_request = cpu_ms / requests;
  const double p50 = perfbench::median(latencies).value_or(NAN);

  const double batches = served.batches;
  const double batched = served.batched;
  std::printf("engine-burst bursts=%zu requests=%.0f wall_s=%.3f requests_per_s=%.1f "
              "batch_size_mean=%.3f\n",
              latencies.size(), requests, wall_s, requests / wall_s,
              batches > 0 ? batched / batches : 0.0);
  print_latency("burst", latencies);
  std::printf("e2e burst_p50_ms=%s cpu_ms_per_session=%s\n",
              perfbench::json_number(p50).c_str(),
              perfbench::json_number(cpu_per_request).c_str());
  std::printf("process involuntary_switches_per_request=%.3f\n", switches / requests);

  RunResult run{Accounting{}, true,
                MetricSet(opt.trace ? perfbench::per_layer_metrics()
                                    : perfbench::end_to_end_metrics())};
  if (!opt.trace) {
    run.metrics.set("setup_s", perfbench::median(setups).value_or(NAN));
    run.metrics.set("latency_ms", p50);
    run.metrics.set("cpu_ms_per_op", cpu_per_request);
    run.metrics.set("peak_rss_mb", peak_mb);
    run.metrics.set("ok_ratio", acc.ok_ratio());
    run.metrics.set("macro_f1", population_macro_f1(population, refs));
    run.accounting = acc;
    return run;
  }

  // Stage occupancy straight from the engines' stage graphs.
  for (std::size_t s = 0; s < pipeline::kStageCount; ++s)
    run.metrics.set(std::string("pipeline.stage.") +
                        pipeline::stage_name(static_cast<pipeline::StageId>(s)) +
                        ".busy_ms_per_request",
                    served.busy_us[s] / 1e3 / served.completed);
  run.metrics.set("pipeline.batch_size_mean", batches > 0 ? batched / batches : 0.0);

  Tracer tracer;
  const std::size_t replay_bursts = population.size() / kBurst;
  for (std::size_t b = 0; b < replay_bursts; ++b)
    replay_burst(tracer, b + 1, population, refs, b * kBurst, model, acc);
  const double n = static_cast<double>(replay_bursts * kBurst);
  auto self = tracer.self_ms_by_name();
  run.metrics.set("serve.stream.feed_many_ms_per_session", self["serve.stream.feed_many"] / n);
  run.metrics.set("serve.stream.finish_many_ms_per_session",
                  self["serve.stream.finish_many"] / n);
  run.metrics.set("core.inference_ms", self["core.inference"] / n);
  tracer.write(opt.work_dir + "/perfbench-trace-engine-burst.jsonl");
  run.accounting = acc;
  return run;
}

// ------------------------------------------------------------------- loocv

/// MeeDetector::fit's ml:: calls, composed in its order, one span each.
void replay_fit(Tracer& tracer, std::uint64_t fold, const ml::Matrix& features,
                const std::vector<std::size_t>& labels) {
  const core::DetectorConfig config;
  const auto root = tracer.span("fold", fold);
  ml::StandardScaler scaler;
  ml::Matrix scaled;
  {
    const auto span = tracer.span("ml.scaler", fold);
    scaler.fit(features);
    scaled = scaler.transform(features);
  }
  ml::Matrix reduced;
  {
    const auto span = tracer.span("ml.laplacian_scores", fold);
    const std::vector<double> scores = ml::laplacian_scores(scaled, config.laplacian);
    reduced = ml::project_matrix(
        scaled, ml::select_best_features(scores, config.selected_features));
  }
  const ml::KMeans kmeans(config.kmeans);
  std::vector<std::size_t> kept(reduced.size());
  for (std::size_t i = 0; i < kept.size(); ++i) kept[i] = i;
  {
    const auto span = tracer.span("ml.outlier", fold);
    const ml::OutlierResult pruned =
        ml::remove_outliers_by_distance(reduced, kmeans, config.outlier);
    if (pruned.kept.size() >= core::kMeeStateCount) kept = pruned.kept;
  }
  {
    const auto span = tracer.span("ml.kmeans", fold);
    ml::Matrix training;
    for (std::size_t idx : kept) training.push_back(reduced[idx]);
    ml::Matrix means(core::kMeeStateCount, std::vector<double>(training.front().size()));
    std::vector<double> counts(core::kMeeStateCount, 0.0);
    for (std::size_t i = 0; i < kept.size(); ++i) {
      counts[labels[kept[i]]] += 1.0;
      for (std::size_t j = 0; j < training[i].size(); ++j)
        means[labels[kept[i]]][j] += training[i][j];
    }
    for (std::size_t c = 0; c < core::kMeeStateCount; ++c)
      for (double& v : means[c]) v /= counts[c];
    (void)kmeans.fit_with_init(training, means);
  }
}

RunResult run_loocv(const Options& opt) {
  sim::CohortConfig cohort;
  cohort.subject_count = 112;
  cohort.sessions_per_state = 2;
  cohort.probe.chirp_count = kChirps;
  cohort.seed = opt.seed;
  const std::vector<sim::SessionRecording> recordings =
      sim::CohortGenerator(cohort).generate();
  const double baseline_mib = rss_baseline();

  const core::EarSonar pipeline;  // the paper's offline (zero-phase) front half
  std::vector<double> setups;
  std::optional<eval::EvalDataset> built;
  for (std::size_t i = 0; i < kDatasetBuilds; ++i) {
    const auto setup_start = Clock::now();
    built = eval::build_earsonar_dataset(recordings, pipeline);
    setups.push_back(ms_since(setup_start) / 1e3);
  }
  const eval::EvalDataset& dataset = *built;
  const double setup_s = perfbench::median(setups).value_or(NAN);
  const std::size_t folds = ml::leave_one_group_out(dataset.groups).size();

  Accounting acc;
  std::vector<double> jobs_ms;
  std::optional<ml::ConfusionMatrix> first;
  bool consistent = true;
  const double cpu0 = perfbench::self_cpu_ms();
  const std::uint64_t switches0 = perfbench::self_involuntary_switches();
  const auto start = Clock::now();
  // Whole jobs only: another one starts while it is expected to end within
  // the measuring window (at least one job always runs).
  while (jobs_ms.empty() ||
         ms_since(start) + jobs_ms.back() <= opt.seconds * 1e3) {
    const auto job_start = Clock::now();
    acc.attempted += folds;
    try {
      const ml::ConfusionMatrix cm = eval::loocv_earsonar(dataset, {});
      jobs_ms.push_back(ms_since(job_start));
      // Every fold completed: each usable recording was predicted once, and
      // a repeat of the job reproduces the first exactly.
      consistent = consistent && cm.total() == dataset.size() &&
                   (!first || same_counts(cm, *first));
      if (!first) first = cm;
      acc.ok += folds;
    } catch (const std::exception& e) {
      std::printf("loocv job failed: %s\n", e.what());
      acc.errored += folds;
      break;
    }
    if (opt.trace) break;
  }
  const double cpu_ms = perfbench::self_cpu_ms() - cpu0;
  const double fold_runs = static_cast<double>(jobs_ms.size() * folds);
  // Best of the run's jobs: host preemption only ever adds time.
  const double job_ms = *std::min_element(jobs_ms.begin(), jobs_ms.end());
  const double f1 = first ? first->macro_f1() : NAN;
  std::printf("loocv recordings=%zu skipped=%zu folds=%zu jobs=%zu threads=%zu\n",
              dataset.size(), dataset.skipped, folds, jobs_ms.size(),
              resolved_parallel_threads());
  std::printf("e2e setup_s=%s job_s=%s cpu_ms_per_fold=%s macro_f1=%s\n",
              perfbench::json_number(setup_s).c_str(),
              perfbench::json_number(job_ms / 1e3).c_str(),
              perfbench::json_number(cpu_ms / fold_runs).c_str(),
              perfbench::json_number(f1).c_str());
  std::printf("process involuntary_switches_per_fold=%.3f\n",
              static_cast<double>(perfbench::self_involuntary_switches() - switches0) /
                  fold_runs);

  RunResult run{Accounting{}, consistent,
                MetricSet(opt.trace ? perfbench::per_layer_metrics()
                                    : perfbench::end_to_end_metrics())};
  run.accounting = acc;
  if (!opt.trace) {
    run.metrics.set("setup_s", setup_s);
    run.metrics.set("latency_ms", job_ms);
    run.metrics.set("cpu_ms_per_op", cpu_ms / fold_runs);
    run.metrics.set("peak_rss_mb", peak_growth_mb(baseline_mib));
    run.metrics.set("ok_ratio", acc.ok_ratio());
    run.metrics.set("macro_f1", f1);
    return run;
  }

  // Traced: the offline front half per recording, then the fit's ml::
  // calls and MeeDetector::fit itself on a few folds' training matrices.
  Tracer tracer;
  for (std::size_t i = 0; i < recordings.size(); ++i) {
    const auto span = tracer.span("core.analyze", i + 1);
    const core::EchoAnalysis analysis = pipeline.analyze(recordings[i].waveform);
    tracer.record_child("core.bandpass", analysis.timings.bandpass_ms, i + 1);
    tracer.record_child("core.event_detect", analysis.timings.event_detect_ms, i + 1);
    tracer.record_child("core.segment", analysis.timings.segment_ms, i + 1);
    tracer.record_child("core.features", analysis.timings.feature_ms, i + 1);
  }
  constexpr std::size_t kTracedFolds = 8;
  const std::vector<ml::Split> splits = ml::leave_one_group_out(dataset.groups);
  std::size_t predictions = 0;
  for (std::size_t f = 0; f < kTracedFolds; ++f) {
    const ml::Split& split = splits[f * splits.size() / kTracedFolds];
    ml::Matrix features;
    std::vector<std::size_t> labels;
    for (std::size_t idx : split.train) {
      features.push_back(dataset.features[idx]);
      labels.push_back(dataset.labels[idx]);
    }
    core::MeeDetector detector;
    {
      const auto span = tracer.span("core.detector_fit", f + 1);
      detector.fit(features, labels);
    }
    for (std::size_t idx : split.test) {
      const auto span = tracer.span("core.inference", f + 1);
      (void)detector.predict(dataset.features[idx]);
      ++predictions;
    }
    replay_fit(tracer, f + 1, features, labels);
  }
  const double n = static_cast<double>(recordings.size());
  const double nf = static_cast<double>(kTracedFolds);
  auto self = tracer.self_ms_by_name();
  MetricSet& m = run.metrics;
  m.set("core.analyze_ms_per_recording",
        (self["core.analyze"] + self["core.bandpass"] + self["core.event_detect"] +
         self["core.segment"] + self["core.features"]) / n);
  m.set("core.bandpass_ms", self["core.bandpass"] / n);
  m.set("core.event_detect_ms", self["core.event_detect"] / n);
  m.set("core.segment_ms", self["core.segment"] / n);
  m.set("core.features_ms", self["core.features"] / n);
  m.set("core.inference_ms", self["core.inference"] / static_cast<double>(predictions));
  const double fit_ms = self["core.detector_fit"] / nf;
  m.set("core.detector_fit_ms_per_fold", fit_ms);
  m.set("ml.scaler_ms_per_fold", self["ml.scaler"] / nf);
  m.set("ml.laplacian_scores_ms_per_fold", self["ml.laplacian_scores"] / nf);
  m.set("ml.outlier_ms_per_fold", self["ml.outlier"] / nf);
  m.set("ml.kmeans_ms_per_fold", self["ml.kmeans"] / nf);
  // Serial fold work over the parallel job's thread-seconds: 1.0 is perfect
  // scaling of the folds across the pool.
  m.set("common.parallel_efficiency",
        fit_ms * static_cast<double>(folds) /
            (job_ms * static_cast<double>(resolved_parallel_threads())));
  tracer.write(opt.work_dir + "/perfbench-trace-loocv.jsonl");
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  std::printf("%s\n", perfbench::host_context(PERFBENCH_BUILD_TYPE).c_str());
  if (!perfbench::benchmarkable_build(PERFBENCH_BUILD_TYPE)) {
    std::fprintf(stderr, "perfbench_driver: refusing a '%s' build; configure Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::fflush(stdout);
  try {
    RunResult run = opt.workload == "net-stream"     ? run_net_stream(opt)
                    : opt.workload == "engine-burst" ? run_engine_burst(opt)
                                                     : run_loocv(opt);
    // Layers outside this workload's path did no work on it (README).
    if (opt.trace) run.metrics.fill_unset(0.0);
    const Accounting& acc = run.accounting;
    const bool correct = acc.balanced() && acc.failed() == 0 && run.consistent;
    std::printf("accounting attempted=%llu ok=%llu rejected=%llu errored=%llu "
                "transport=%llu mismatched=%llu balanced=%d consistent=%d\n",
                static_cast<unsigned long long>(acc.attempted),
                static_cast<unsigned long long>(acc.ok),
                static_cast<unsigned long long>(acc.rejected),
                static_cast<unsigned long long>(acc.errored),
                static_cast<unsigned long long>(acc.transport),
                static_cast<unsigned long long>(acc.mismatched), acc.balanced() ? 1 : 0,
                run.consistent ? 1 : 0);
    std::printf("%s\n", perfbench::result_line(correct, acc, run.metrics).c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
