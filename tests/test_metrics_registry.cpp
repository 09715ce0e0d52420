// Covers src/util/metrics.{hpp,cpp}: the telemetry registry (tentpole of
// the observability PR). NOT to be confused with tests/test_metrics.cpp,
// which tests moo-quality metrics (hypervolume etc.).
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace moela::util {
namespace {

TEST(MetricsRegistry, GoldenPrometheusText) {
  MetricsRegistry registry;
  registry.counter("t_requests_total", "Requests seen", {{"verb", "ping"}})
      .add(2);
  registry.counter("t_requests_total", "Requests seen", {{"verb", "run"}})
      .add();
  // Empty help suppresses the # HELP line; no observations keep the sum an
  // exact 0, so the whole exposition is byte-stable.
  registry.histogram("t_wait_seconds", "", {0.25, 1.0, 4.0});

  const std::string expected =
      "# HELP t_requests_total Requests seen\n"
      "# TYPE t_requests_total counter\n"
      "t_requests_total{verb=\"ping\"} 2\n"
      "t_requests_total{verb=\"run\"} 1\n"
      "# TYPE t_wait_seconds histogram\n"
      "t_wait_seconds_bucket{le=\"0.25\"} 0\n"
      "t_wait_seconds_bucket{le=\"1\"} 0\n"
      "t_wait_seconds_bucket{le=\"4\"} 0\n"
      "t_wait_seconds_bucket{le=\"+Inf\"} 0\n"
      "t_wait_seconds_sum 0\n"
      "t_wait_seconds_count 0\n";
  EXPECT_EQ(registry.prometheus_text(), expected);
}

TEST(MetricsRegistry, HistogramBucketEdgesAreLeInclusive) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);     // below every bound -> first bucket
  h.observe(1.0);     // ON a bound: le-semantics put it IN that bucket
  h.observe(1.0001);  // just past -> next bucket
  h.observe(10.0);
  h.observe(100.0);
  h.observe(100.5);  // above the last finite bound -> +Inf
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(counts[1], 2u);  // 1.0001, 10.0
  EXPECT_EQ(counts[2], 1u);  // 100.0
  EXPECT_EQ(counts[3], 1u);  // 100.5
  EXPECT_EQ(h.count(), 6u);
}

TEST(MetricsRegistry, HistogramCumulativeBucketsInText) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("t_h", "", {1.0, 10.0});
  h.observe(0.5);
  h.observe(1.0);
  h.observe(5.0);
  h.observe(50.0);
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("t_h_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("t_h_bucket{le=\"10\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("t_h_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("t_h_count 4\n"), std::string::npos);
}

TEST(MetricsRegistry, HistogramSumIsExactNanocount) {
  Histogram h({1.0});
  h.observe(0.5);
  h.observe(0.25);
  EXPECT_EQ(h.sum_nano(), 750000000);
}

TEST(MetricsRegistry, HistogramRejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, ExponentialBoundsByRepeatedMultiply) {
  const std::vector<double> bounds = exponential_bounds(0.001, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  // Exactly the repeated-multiply sequence, so every build agrees
  // bit-for-bit (guards against a pow()-based rewrite).
  EXPECT_EQ(bounds[0], 0.001);
  EXPECT_EQ(bounds[1], 0.001 * 2.0);
  EXPECT_EQ(bounds[2], 0.001 * 2.0 * 2.0);
  EXPECT_EQ(bounds[3], 0.001 * 2.0 * 2.0 * 2.0);
  EXPECT_THROW(exponential_bounds(0.0, 2.0, 4), std::invalid_argument);
  EXPECT_THROW(exponential_bounds(0.1, 1.0, 4), std::invalid_argument);
}

TEST(MetricsRegistry, SameNameAndLabelsResolveToOneSeries) {
  MetricsRegistry registry;
  Counter& a = registry.counter("t_c", "h", {{"x", "1"}, {"y", "2"}});
  // Label order must not matter: sets are canonicalized by sorting.
  Counter& b = registry.counter("t_c", "h", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
  Counter& other = registry.counter("t_c", "h", {{"x", "9"}});
  EXPECT_NE(&a, &other);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("t_dual", "h");
  EXPECT_THROW(registry.histogram("t_dual", "h", {1.0}), std::logic_error);
}

TEST(MetricsRegistry, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.counter("t_esc", "", {{"path", "a\\b\"c\nd"}}).add();
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("t_esc{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(MetricsRegistry, SnapshotJsonShape) {
  MetricsRegistry registry;
  registry.counter("t_c", "counts things", {{"k", "v"}}).add(7);
  registry.histogram("t_h", "", {1.0}).observe(0.5);
  const Json snapshot = registry.snapshot_json();
  const Json* counter = snapshot.find("t_c");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->find("type")->as_string(), "counter");
  EXPECT_EQ(counter->find("help")->as_string(), "counts things");
  const Json& series = counter->find("series")->as_array().front();
  EXPECT_EQ(series.find("labels")->find("k")->as_string(), "v");
  EXPECT_EQ(series.find("value")->as_u64(), 7u);
  const Json& hist = snapshot.find("t_h")->find("series")->as_array().front();
  EXPECT_EQ(hist.find("count")->as_u64(), 1u);
  EXPECT_EQ(hist.find("buckets")->as_array().size(), 2u);
}

// Threads hammer one counter and one histogram; totals must be EXACT (the
// whole point of atomic counts and the integer nanocount sum). The TSan
// ctest leg additionally proves the increment path is race-free.
TEST(MetricsRegistry, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("t_conc", "");
  Histogram& hist = registry.histogram("t_conc_h", "", {1.0, 10.0});
  constexpr int kThreads = 8;
  constexpr int kIterations = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &hist] {
      for (int i = 0; i < kIterations; ++i) {
        counter.add();
        hist.observe(0.5);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) *
                                 kIterations);
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kIterations);
  // 0.5 s = 500,000,000 nanounits; integer adds commute exactly, so the
  // sum is deterministic whatever the interleaving.
  EXPECT_EQ(hist.sum_nano(),
            static_cast<std::int64_t>(kThreads) * kIterations * 500000000);
  EXPECT_EQ(hist.bucket_counts()[0],
            static_cast<std::uint64_t>(kThreads) * kIterations);
}

TEST(MetricsRegistry, MintTraceIdShapeAndUniqueness) {
  std::set<std::string> seen;
  for (int i = 0; i < 200; ++i) {
    const std::string id = mint_trace_id();
    ASSERT_EQ(id.size(), 16u);
    for (char c : id) {
      EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)) &&
                  !std::isupper(static_cast<unsigned char>(c)))
          << "trace id must be lowercase hex, got: " << id;
    }
    seen.insert(id);
  }
  // The per-process counter term guarantees distinct ids within a process.
  EXPECT_EQ(seen.size(), 200u);
}

}  // namespace
}  // namespace moela::util
