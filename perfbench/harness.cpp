#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

constexpr std::array<const char*, 3> kWorkloads{"net-stream", "engine-burst", "loocv"};

constexpr std::array<MetricSpec, 6> kEndToEnd{{
    {"setup_s", "s"},
    {"latency_ms", "ms"},
    {"cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},
    {"macro_f1", "ratio"},
}};

constexpr std::array<MetricSpec, 34> kPerLayer{{
    {"net.frame.encode_us_per_session", "us"},
    {"net.frame.decode_us_per_session", "us"},
    {"net.frames_per_session", "count"},
    {"net.bytes_per_session", "B"},
    {"net.client.cpu_ms_per_session", "ms"},
    {"net.unattributed_ms", "ms"},
    {"net.session_p99_ms", "ms"},
    {"net.session_samples", "count"},
    {"net.trace_overhead_ms", "ms"},
    {"serve.stream.feed_ms_per_session", "ms"},
    {"serve.stream.finish_ms_per_session", "ms"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.server_total_ms_p50", "ms"},
    {"serve.stream.feed_many_ms_per_session", "ms"},
    {"serve.stream.finish_many_ms_per_session", "ms"},
    {"pipeline.batch_size_mean", "count"},
    {"pipeline.stage.filter.busy_ms_per_request", "ms"},
    {"pipeline.stage.event_detect.busy_ms_per_request", "ms"},
    {"pipeline.stage.segment.busy_ms_per_request", "ms"},
    {"pipeline.stage.echo_psd.busy_ms_per_request", "ms"},
    {"pipeline.stage.features.busy_ms_per_request", "ms"},
    {"pipeline.stage.inference.busy_ms_per_request", "ms"},
    {"core.analyze_ms_per_recording", "ms"},
    {"core.bandpass_ms", "ms"},
    {"core.event_detect_ms", "ms"},
    {"core.segment_ms", "ms"},
    {"core.features_ms", "ms"},
    {"core.inference_ms", "ms"},
    {"core.detector_fit_ms_per_fold", "ms"},
    {"ml.scaler_ms_per_fold", "ms"},
    {"ml.laplacian_scores_ms_per_fold", "ms"},
    {"ml.outlier_ms_per_fold", "ms"},
    {"ml.kmeans_ms_per_fold", "ms"},
    {"common.parallel_efficiency", "ratio"},
}};

std::vector<double> sorted_copy(std::span<const double> samples) {
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// 1-based nearest rank of percentile p among n samples. The epsilon keeps
/// p * n / 100 that is whole in exact arithmetic (99.9 of 10000) from
/// rounding up a rank.
std::size_t rank_of(double p, std::size_t n) {
  return static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}

double nearest_rank(const std::vector<double>& sorted, double p) {
  const std::size_t rank = std::clamp<std::size_t>(rank_of(p, sorted.size()), 1, sorted.size());
  return sorted[rank - 1];
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

std::span<const char* const> workload_names() { return kWorkloads; }
std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricSpec> per_layer_metrics() { return kPerLayer; }

std::optional<double> percentile(std::span<const double> samples, double p) {
  if (samples.empty()) return std::nullopt;
  return nearest_rank(sorted_copy(samples), p);
}

std::optional<double> median(std::span<const double> samples) {
  if (samples.empty()) return std::nullopt;
  const std::vector<double> sorted = sorted_copy(samples);
  const std::size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid] : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

std::optional<TailPercentile> tail_percentile(std::span<const double> samples) {
  constexpr std::array<double, 5> kLadder{99.99, 99.9, 99.0, 90.0, 50.0};
  const std::vector<double> sorted = sorted_copy(samples);
  for (const double p : kLadder) {
    const std::size_t rank = rank_of(p, sorted.size());
    if (rank == 0 || sorted.size() - rank < 10) continue;
    return TailPercentile{p, sorted[rank - 1], sorted.size()};
  }
  return std::nullopt;
}

std::optional<double> window_median_percentile(std::span<const TimedSample> samples,
                                               double window_s, std::size_t min_samples,
                                               double p) {
  std::map<long long, std::vector<double>> windows;
  for (const TimedSample& s : samples)
    windows[static_cast<long long>(std::floor(s.at_s / window_s))].push_back(s.value);
  std::vector<double> medians;
  for (const auto& [index, values] : windows)
    if (values.size() >= min_samples) medians.push_back(*median(values));
  return percentile(medians, p);
}

double Accounting::ok_ratio() const {
  return attempted == 0 ? 0.0 : static_cast<double>(ok) / static_cast<double>(attempted);
}

void Accounting::merge(const Accounting& other) {
  attempted += other.attempted;
  ok += other.ok;
  rejected += other.rejected;
  errored += other.errored;
  transport += other.transport;
  mismatched += other.mismatched;
}

void MetricSet::set(std::string_view name, double value) {
  const bool known = std::any_of(table_.begin(), table_.end(),
                                 [&](const MetricSpec& m) { return name == m.name; });
  if (!known) throw std::logic_error("metric not in table: " + std::string(name));
  values_[std::string(name)] = value;
}

void MetricSet::fill_unset(double value) {
  for (const MetricSpec& m : table_) values_.try_emplace(m.name, value);
}

std::string MetricSet::json() const {
  std::string out = "{";
  for (const MetricSpec& m : table_) {
    const auto it = values_.find(m.name);
    if (it == values_.end())
      throw std::logic_error(std::string("metric never set: ") + m.name);
    if (out.size() > 1) out += ", ";
    out.append("\"").append(m.name).append("\": {\"value\": ");
    out.append(json_number(it->second)).append(", \"unit\": \"").append(m.unit).append("\"}");
  }
  return out + "}";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string result_line(bool correct, const Accounting& accounting,
                        const MetricSet& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(accounting.attempted) +
         ", \"failed\": " + std::to_string(accounting.failed()) +
         ", \"metrics\": " + metrics.json() + "}";
}

double self_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

std::optional<double> process_cpu_ms(int pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int i = 3; i <= 13 && rest >> field; ++i) {
  }
  if (!(rest >> utime >> stime)) return std::nullopt;
  return (utime + stime) * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::optional<double> status_mib(const std::string& pid, const std::string& key) {
  std::istringstream status(read_file("/proc/" + pid + "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) != 0) continue;
    std::istringstream value(line.substr(key.size() + 1));
    double kib = 0.0;
    if (value >> kib) return kib / 1024.0;
  }
  return std::nullopt;
}

std::uint64_t self_involuntary_switches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_nivcsw);
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

std::string host_context(const char* build_type) {
  std::string loadavg = read_file("/proc/loadavg");
  if (!loadavg.empty() && loadavg.back() == '\n') loadavg.pop_back();
  return "host nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " loadavg=\"" + loadavg + "\" build=" + build_type;
}

bool benchmarkable_build(std::string_view build_type) {
  return build_type == "Release" || build_type == "RelWithDebInfo" ||
         build_type == "MinSizeRel";
}

Tracer::Scope Tracer::span(std::string name, std::uint64_t session) {
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  records_.push_back({std::move(name), now_ns(), 0, parent, session});
  open_.push_back(records_.size() - 1);
  return Scope(*this, records_.size() - 1);
}

void Tracer::record_child(std::string name, double duration_ms, std::uint64_t session) {
  const std::int64_t end = now_ns();
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  records_.push_back({std::move(name), end - static_cast<std::int64_t>(duration_ms * 1e6),
                      end, parent, session});
}

void Tracer::close(std::size_t index) {
  records_[index].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  std::vector<std::int64_t> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i)
    self[i] = records_[i].end_ns - records_[i].start_ns;
  for (const Record& r : records_)
    if (r.parent >= 0) self[static_cast<std::size_t>(r.parent)] -= r.end_ns - r.start_ns;
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i)
    by_name[records_[i].name] += static_cast<double>(self[i]) / 1e6;
  return by_name;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Record& r : records_)
    out << "{\"name\": \"" << r.name << "\", \"start_ns\": " << r.start_ns
        << ", \"end_ns\": " << r.end_ns << ", \"parent\": " << r.parent
        << ", \"session\": " << r.session << "}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
