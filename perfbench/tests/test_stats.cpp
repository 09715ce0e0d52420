// Tests for the benchmark's own statistics: percentile selection and sample
// counts, failure accounting, and PHV scoring against pinned bounds.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so selection must not rely on input order
}

TEST(Percentile, NearestRank) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.9), 90.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(median(one_to(7)), 4.0);
  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_EQ(percentile(one_to(10), 0.9), 9.0);
}

TEST(Percentile, RejectsEmptyAndBadQuantile) {
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 1.5), std::invalid_argument);
}

TEST(Percentile, SamplesBeyondAndSupportedPercentile) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(99, 0.9), 9u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
  // The highest percentile that still has >= 10 samples beyond it.
  EXPECT_EQ(highest_supported_percentile(1000).value(), 0.99);
  EXPECT_EQ(highest_supported_percentile(200).value(), 0.95);
  EXPECT_EQ(highest_supported_percentile(100).value(), 0.9);
  EXPECT_EQ(highest_supported_percentile(99).value(), 0.75);
  EXPECT_EQ(highest_supported_percentile(20).value(), 0.5);
  EXPECT_FALSE(highest_supported_percentile(19).has_value());
  EXPECT_FALSE(highest_supported_percentile(7).has_value());
}

TEST(Percentile, SummaryStatesSampleCount) {
  const Summary s = summarize(one_to(128));
  EXPECT_EQ(s.n, 128u);
  EXPECT_EQ(s.p50, 64.0);
  EXPECT_EQ(s.p90, 116.0);  // rank ceil(0.9 * 128) = 116
  EXPECT_EQ(s.supported, 0.9);
  const Summary few = summarize(one_to(7));
  EXPECT_EQ(few.n, 7u);
  EXPECT_EQ(few.supported, 0.0);
  EXPECT_EQ(summarize({}).n, 0u);
}

TEST(Tally, FailedFraction) {
  Tally t;
  EXPECT_EQ(t.failed_frac(), 0.0);  // nothing attempted is not a failure
  for (int i = 0; i < 6; ++i) t.record(true);
  t.record(false);
  t.record(false);
  EXPECT_EQ(t.attempted, 8u);
  EXPECT_EQ(t.failed, 2u);
  EXPECT_EQ(t.failed_frac(), 0.25);
}

TEST(Phv, NormalizedAgainstPinnedBounds) {
  const moela::exp::ObjectiveBounds bounds{{0.0, 0.0}, {2.0, 4.0}};
  // The ideal point dominates the whole 1.1 x 1.1 reference box.
  EXPECT_DOUBLE_EQ(normalized_phv({{0.0, 0.0}}, bounds), 1.21);
  // The nadir maps to (1, 1): a 0.1 x 0.1 corner remains.
  EXPECT_NEAR(normalized_phv({{2.0, 4.0}}, bounds), 0.01, 1e-12);
  // The midpoint maps to (0.5, 0.5).
  EXPECT_NEAR(normalized_phv({{1.0, 2.0}}, bounds), 0.36, 1e-12);
  // Points beyond the reference box contribute nothing.
  EXPECT_EQ(normalized_phv({{3.0, 8.0}}, bounds), 0.0);
  // Points better than the pinned ideal count as the ideal.
  EXPECT_DOUBLE_EQ(normalized_phv({{-5.0, -1.0}}, bounds), 1.21);
  // A dominated point adds nothing to its dominator.
  EXPECT_NEAR(normalized_phv({{1.0, 2.0}, {1.5, 3.0}}, bounds), 0.36, 1e-12);
}

TEST(Phv, CurvesAreSampledAtBudgetShares) {
  const moela::exp::ObjectiveBounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  // PHV 0.01 after 10 of 40 evaluations, 0.36 after 20, 1.21 after 40.
  const std::vector<moela::core::ArchiveSnapshot> snaps = {
      {10, 1.0, {{1.0, 1.0}}}, {20, 2.0, {{0.5, 0.5}}}, {40, 4.0, {{0.0, 0.0}}}};
  const TargetCurve c = target_curve(snaps, bounds, 0.36, 40);
  ASSERT_EQ(c.share_of_target.size(), kCurvePoints);
  // 1/40 of the budget lies before the first snapshot: its state counts.
  EXPECT_NEAR(c.share_of_target.front(), 0.01 / 0.36, 1e-12);
  EXPECT_NEAR(c.seconds.front(), 1.0, 1e-12);
  // Half the budget is the second snapshot exactly.
  EXPECT_NEAR(c.share_of_target[kCurvePoints / 2 - 1], 1.0, 1e-12);
  EXPECT_NEAR(c.seconds[kCurvePoints / 2 - 1], 2.0, 1e-12);
  // Three quarters interpolate between the last two snapshots.
  EXPECT_NEAR(c.share_of_target[3 * kCurvePoints / 4 - 1],
              (0.36 + 1.21) / 2 / 0.36, 1e-12);
  EXPECT_NEAR(c.seconds.back(), 4.0, 1e-12);
}

TEST(Phv, PooledTimeToTargetAveragesCurvesFirst) {
  TargetCurve fast, slow;
  for (std::size_t k = 1; k <= kCurvePoints; ++k) {
    const double at = static_cast<double>(k) / kCurvePoints;
    fast.share_of_target.push_back(2.0 * at);  // reaches 1 at half budget
    fast.seconds.push_back(10.0 * at);
    slow.share_of_target.push_back(0.5 * at);  // never reaches 1 alone
    slow.seconds.push_back(30.0 * at);
  }
  // Mean share 1.25 * at reaches 1 at 0.8 of the budget, where the mean
  // elapsed time is 20 * 0.8 = 16 s.
  EXPECT_NEAR(pooled_time_to_target({fast, slow}).value(), 16.0, 1e-9);
  EXPECT_NEAR(pooled_time_to_target({fast}).value(), 5.0, 1e-9);
  EXPECT_FALSE(pooled_time_to_target({slow}).has_value());
  EXPECT_FALSE(pooled_time_to_target({}).has_value());
}

TEST(Percentile, Mean) {
  EXPECT_EQ(mean({1.0, 2.0, 6.0}), 3.0);
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(Percentile, GeometricMean) {
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geometric_mean({0.5, 2.0, 1.0}), 1.0, 1e-12);
  EXPECT_THROW(geometric_mean({}), std::invalid_argument);
  EXPECT_THROW(geometric_mean({1.0, 0.0}), std::invalid_argument);
}

TEST(Trace, SelfTimeSubtractsChildCoverageOnce) {
  SpanRecorder r;
  r.add("run", 0, 100, -1, 0);
  r.add("a", 10, 30, 0, 0);
  r.add("b", 20, 40, 0, 0);   // overlaps a: [10, 40) covered once
  r.add("c", 90, 120, 0, 0);  // clipped to the parent: [90, 100)
  r.add("d", 12, 18, 1, 0);   // grandchild: only a's self time shrinks
  const auto self = r.self_ns();
  EXPECT_EQ(self[0], 100 - 30 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 20);
}

TEST(Trace, FeatureBurstsAreNotTrainingSamples) {
  TraceSink sink;
  sink.population = 4;
  // A prediction burst over the population, then one local-search start.
  sink.features_streak = 5;
  sink.end_features_streak();
  EXPECT_EQ(sink.tally.training_samples, 1u);
  // Accepted local-search steps arrive one at a time.
  for (int i = 0; i < 3; ++i) {
    sink.features_streak = 1;
    sink.end_features_streak();
  }
  EXPECT_EQ(sink.tally.training_samples, 4u);
}

}  // namespace
}  // namespace perfbench
