// Tests for the benchmark's own helpers: the tail-percentile rule, the
// accounting identity, the result line, the span recorder's self time, and
// that the metric and workload names the driver prints are exactly the ones
// BENCHMARK.json declares.
#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(TailPercentile, EmptySampleIsNullNotZero) {
  EXPECT_FALSE(perfbench::tail_percentile({}).has_value());
  EXPECT_FALSE(perfbench::percentile({}, 50.0).has_value());
  EXPECT_FALSE(perfbench::median({}).has_value());
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  // 19 samples: the median leaves 9 beyond it, too few for any tail.
  EXPECT_FALSE(perfbench::tail_percentile(ramp(19)).has_value());
  const auto p50 = perfbench::tail_percentile(ramp(20));
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->percentile, 50.0);
  EXPECT_EQ(p50->value, 10.0);
  EXPECT_EQ(p50->samples, 20u);
}

TEST(TailPercentile, ReportsHighestQualifyingPercentileAndCount) {
  const auto p90 = perfbench::tail_percentile(ramp(999));
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(p90->percentile, 90.0);  // p99 would leave only 9 beyond
  EXPECT_EQ(p90->samples, 999u);

  const auto p99 = perfbench::tail_percentile(ramp(1000));
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->percentile, 99.0);
  EXPECT_EQ(p99->value, 990.0);

  const auto p999 = perfbench::tail_percentile(ramp(10000));
  ASSERT_TRUE(p999.has_value());
  EXPECT_EQ(p999->percentile, 99.9);
  EXPECT_EQ(p999->value, 9990.0);
}

TEST(TailPercentile, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = ramp(1000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(perfbench::tail_percentile(v)->value, 990.0);
  EXPECT_EQ(*perfbench::median(std::vector<double>{3.0, 1.0, 2.0, 4.0}), 2.5);
}

TEST(WindowMedianPercentile, RanksTheMediansOfFullWindows) {
  std::vector<perfbench::TimedSample> samples;
  for (int w = 0; w < 4; ++w)  // window w has median 4 - w
    for (int i = 0; i < 30; ++i)
      samples.push_back({w + 0.05 + 0.001 * i, 4.0 - w + (i % 3 - 1) * 0.1});
  samples.push_back({4.5, 0.5});  // a lone fast sample is too few to count
  EXPECT_EQ(perfbench::window_median_percentile(samples, 1.0, 20, 25.0), 1.0);
  EXPECT_EQ(perfbench::window_median_percentile(samples, 1.0, 20, 50.0), 2.0);
  EXPECT_EQ(perfbench::window_median_percentile(samples, 1.0, 20, 100.0), 4.0);
  EXPECT_FALSE(perfbench::window_median_percentile(samples, 1.0, 31, 25.0).has_value());
  EXPECT_FALSE(perfbench::window_median_percentile({}, 1.0, 1, 25.0).has_value());
}

TEST(Accounting, IdentityHoldsOnlyWhenEveryAttemptIsInOneBucket) {
  perfbench::Accounting acc;
  acc.attempted = 10;
  acc.ok = 6;
  acc.rejected = 1;
  acc.errored = 1;
  acc.transport = 1;
  acc.mismatched = 1;
  EXPECT_TRUE(acc.balanced());
  EXPECT_EQ(acc.failed(), 4u);
  EXPECT_DOUBLE_EQ(acc.ok_ratio(), 0.6);

  perfbench::Accounting lost = acc;
  lost.attempted = 11;  // an attempt that never got an outcome
  EXPECT_FALSE(lost.balanced());
  perfbench::Accounting doubled = acc;
  doubled.ok = 7;  // an outcome counted twice
  EXPECT_FALSE(doubled.balanced());
}

TEST(Accounting, MergeKeepsTheIdentity) {
  perfbench::Accounting a, b;
  a.attempted = a.ok = 3;
  b.attempted = 2;
  b.mismatched = 2;
  a.merge(b);
  EXPECT_TRUE(a.balanced());
  EXPECT_EQ(a.attempted, 5u);
  EXPECT_EQ(a.failed(), 2u);
  EXPECT_EQ(perfbench::Accounting{}.ok_ratio(), 0.0);
}

TEST(MetricSet, RefusesUnknownAndUnsetNames) {
  perfbench::MetricSet set(perfbench::end_to_end_metrics());
  EXPECT_THROW(set.set("no_such_metric", 1.0), std::logic_error);
  set.set("setup_s", 0.5);
  EXPECT_THROW((void)set.json(), std::logic_error);
  set.fill_unset(0.0);
  EXPECT_NE(set.json().find("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"),
            std::string::npos);
}

TEST(ResultLine, HasExactlyTheContractKeys) {
  perfbench::MetricSet set(perfbench::end_to_end_metrics());
  set.fill_unset(1.25);
  perfbench::Accounting acc;
  acc.attempted = 4;
  acc.ok = 3;
  acc.errored = 1;
  const std::string line = perfbench::result_line(false, acc, set);
  EXPECT_EQ(line.rfind("{\"correct\": false, \"attempted\": 4, \"failed\": 1, "
                       "\"metrics\": {",
                       0),
            0u);
  EXPECT_EQ(perfbench::json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(perfbench::json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(Tracer, SelfTimeSubtractsDirectChildren) {
  perfbench::Tracer tracer;
  {
    const auto root = tracer.span("root", 7);
    {
      const auto child = tracer.span("child", 7);
      tracer.record_child("grandchild", 0.0, 7);
    }
    tracer.record_child("reported", 0.0, 7);
  }
  const auto& records = tracer.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].parent, -1);
  EXPECT_EQ(records[1].parent, 0);
  EXPECT_EQ(records[2].parent, 1);
  EXPECT_EQ(records[3].parent, 0);
  for (const auto& r : records) EXPECT_EQ(r.session, 7u);
  const auto self = tracer.self_ms_by_name();
  const double root_ms = (records[0].end_ns - records[0].start_ns) / 1e6;
  const double child_ms = (records[1].end_ns - records[1].start_ns) / 1e6;
  EXPECT_NEAR(self.at("root"), root_ms - child_ms, 1e-9);
  EXPECT_GE(self.at("root"), 0.0);
}

TEST(BuildGate, RefusesDebugAndUnsetBuildTypes) {
  EXPECT_TRUE(perfbench::benchmarkable_build("Release"));
  EXPECT_TRUE(perfbench::benchmarkable_build("RelWithDebInfo"));
  EXPECT_FALSE(perfbench::benchmarkable_build("Debug"));
  EXPECT_FALSE(perfbench::benchmarkable_build(""));
}

/// The "name" (and "unit") values inside one top-level array of
/// BENCHMARK.json.
std::vector<std::string> declared(const std::string& json, const std::string& key,
                                  const std::string& field) {
  const std::size_t at = json.find("\"" + key + "\"");
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t open = json.find('[', at);
  const std::size_t close = json.find(']', open);
  const std::string body = json.substr(open, close - open);
  const std::regex pattern("\"" + field + "\"\\s*:\\s*\"([^\"]+)\"");
  std::vector<std::string> out;
  for (std::sregex_iterator it(body.begin(), body.end(), pattern), end; it != end; ++it)
    out.push_back((*it)[1]);
  return out;
}

TEST(BenchmarkJson, PrintedNamesMatchTheDeclaration) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in) << PERFBENCH_JSON;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  std::vector<std::string> names, units;
  for (const auto& m : perfbench::end_to_end_metrics()) {
    names.emplace_back(m.name);
    units.emplace_back(m.unit);
  }
  EXPECT_EQ(declared(json, "end_to_end", "name"), names);
  EXPECT_EQ(declared(json, "end_to_end", "unit"), units);

  names.clear();
  units.clear();
  for (const auto& m : perfbench::per_layer_metrics()) {
    names.emplace_back(m.name);
    units.emplace_back(m.unit);
  }
  EXPECT_EQ(declared(json, "per_layer", "name"), names);
  EXPECT_EQ(declared(json, "per_layer", "unit"), units);

  const auto workloads = perfbench::workload_names();
  EXPECT_EQ(declared(json, "workloads", "name"),
            std::vector<std::string>(workloads.begin(), workloads.end()));
}

}  // namespace
