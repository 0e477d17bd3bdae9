// Benchmark-side helpers for perfbench_driver: the metric tables that
// BENCHMARK.json mirrors, percentile and median helpers, the exact
// accounting identity, the result-line JSON, host context, and the span
// recorder the traced run uses. Nothing here touches the EarSonar program:
// spans are recorded around calls into its public functions from the
// benchmark's own files.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Workload names, in BENCHMARK.json order.
std::span<const char* const> workload_names();
/// Printed with --trace 0 (BENCHMARK.json "end_to_end").
std::span<const MetricSpec> end_to_end_metrics();
/// Printed with --trace 1 (BENCHMARK.json "per_layer").
std::span<const MetricSpec> per_layer_metrics();

/// Nearest-rank percentile (p in (0, 100]); nullopt for an empty sample.
std::optional<double> percentile(std::span<const double> samples, double p);
/// Midpoint median; nullopt for an empty sample.
std::optional<double> median(std::span<const double> samples);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that has at
/// least 10 samples beyond it, with the sample count it rests on.
struct TailPercentile {
  double percentile = 0.0;  ///< e.g. 99.0
  double value = 0.0;
  std::size_t samples = 0;
};
/// nullopt when even the median has fewer than 10 samples beyond it
/// (including the empty sample): a tail that cannot be estimated is null,
/// never 0.
std::optional<TailPercentile> tail_percentile(std::span<const double> samples);

/// One per-operation measurement and when, in seconds from the start of
/// its phase, the operation finished.
struct TimedSample {
  double at_s = 0.0;
  double value = 0.0;
};

/// The nearest-rank `p`-th percentile (p in (0, 100]) of the medians of
/// consecutive `window_s`-second windows holding at least `min_samples`
/// samples each. Host preemption arrives in bursts and only ever adds time;
/// a low percentile of the window medians reads the phase's less disturbed
/// stretches without resting on its single quietest one. nullopt when no
/// window has enough samples.
std::optional<double> window_median_percentile(std::span<const TimedSample> samples,
                                               double window_s, std::size_t min_samples,
                                               double p);

/// Per-operation outcome tally. Every attempted operation lands in exactly
/// one bucket; balanced() is the identity the benchmark gates on.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errored = 0;
  std::uint64_t transport = 0;
  std::uint64_t mismatched = 0;  ///< completed, but output != reference

  [[nodiscard]] bool balanced() const {
    return attempted == ok + rejected + errored + transport + mismatched;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return rejected + errored + transport + mismatched;
  }
  /// ok / attempted; 0 when nothing was attempted.
  [[nodiscard]] double ok_ratio() const;
  void merge(const Accounting& other);
};

/// The metric values of one run, restricted to one table. set() refuses a
/// name outside the table; json() refuses a table with unset names.
class MetricSet {
 public:
  explicit MetricSet(std::span<const MetricSpec> table) : table_(table) {}
  void set(std::string_view name, double value);
  /// Sets every still-unset table metric to `value`.
  void fill_unset(double value);
  /// `{"name": {"value": v, "unit": "u"}, ...}` in table order.
  [[nodiscard]] std::string json() const;

 private:
  std::span<const MetricSpec> table_;
  std::map<std::string, double, std::less<>> values_;
};

/// The benchmark's last stdout line.
std::string result_line(bool correct, const Accounting& accounting,
                        const MetricSet& metrics);

/// A JSON number with all its digits; non-finite values become null.
std::string json_number(double value);

/// Process CPU (user + system) of the calling process, in milliseconds,
/// including threads that already exited.
double self_cpu_ms();
/// utime + stime of another process from /proc/<pid>/stat, in
/// milliseconds (clock-tick resolution); nullopt when unreadable.
std::optional<double> process_cpu_ms(int pid);
/// A "Key:   N kB" field of /proc/<pid>/status ("self" for this process),
/// in MiB; nullopt when unreadable.
std::optional<double> status_mib(const std::string& pid, const std::string& key);
/// Involuntary context switches of the calling process so far.
std::uint64_t self_involuntary_switches();
/// Resets this process's peak-RSS watermark to the current RSS (writes
/// "5" to /proc/self/clear_refs); false when the kernel refuses.
bool reset_peak_rss();

/// One `host ...` line: nproc, loadavg, build type.
std::string host_context(const char* build_type);
/// Release, RelWithDebInfo and MinSizeRel are benchmarkable; the rest
/// (Debug, empty) are refused.
bool benchmarkable_build(std::string_view build_type);

/// Single-thread span recorder for the traced run. Spans are kept in
/// memory; self time is a span's duration minus its direct children's.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index into records(), -1 for a root
    std::uint64_t session = 0;
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::size_t index) : tracer_(&tracer), index_(index) {}
    ~Scope() { tracer_->close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span under the innermost open span.
  [[nodiscard]] Scope span(std::string name, std::uint64_t session);
  /// Adds an already-measured child of the innermost open span (a stage
  /// timing the program reports about its own call), ending now.
  void record_child(std::string name, double duration_ms, std::uint64_t session);

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  /// Sum of self time per span name, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;
  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  void close(std::size_t index);
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point epoch_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
