// Statistics the benchmark reports: nearest-rank percentiles with their
// sample counts, failure accounting, and PHV/EDP scoring against the
// normalization pinned in perfbench/pins.json.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/eval_context.hpp"
#include "exp/analysis.hpp"
#include "moo/objective.hpp"

namespace perfbench {

namespace moo = moela::moo;

/// Nearest-rank percentile: the value at 1-based rank ceil(q * n) of the
/// sorted samples, q in (0, 1]. Throws std::invalid_argument on an empty
/// sample or q outside (0, 1].
double percentile(std::vector<double> samples, double q);

/// percentile(samples, 0.5).
double median(std::vector<double> samples);

/// Arithmetic mean; throws std::invalid_argument on an empty sample.
double mean(const std::vector<double>& samples);

/// Geometric mean; throws std::invalid_argument on an empty sample or a
/// value that is not positive.
double geometric_mean(const std::vector<double>& samples);

/// How many of `n` samples lie strictly above the nearest-rank q-th
/// percentile: n - ceil(q * n).
std::size_t samples_beyond(std::size_t n, double q);

/// The highest of the percentiles {0.99, 0.95, 0.9, 0.75, 0.5} that keeps at
/// least `min_tail` samples beyond it; nullopt when even the median does not.
std::optional<double> highest_supported_percentile(std::size_t n,
                                                   std::size_t min_tail = 10);

/// A timing summary as the benchmark prints it: median and p90 plus the
/// sample count and the highest percentile the count supports.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  /// 0 when fewer than 10 samples lie beyond even the median.
  double supported = 0.0;
};
Summary summarize(const std::vector<double>& samples);

/// Runs attempted vs. runs that failed, were refused, or whose outputs did
/// not match their reference.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// failed / attempted; 0 for an empty tally.
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Final normalized PHV of `front` under pinned `bounds` (reference point
/// 1.1 per objective after mapping ideal..nadir onto 0..1).
double normalized_phv(const std::vector<moo::ObjectiveVector>& front,
                      const moela::exp::ObjectiveBounds& bounds);

/// One run's anytime normalized PHV as a share of its target, and its
/// elapsed seconds, sampled at kCurvePoints even shares of its evaluation
/// budget (linear interpolation between snapshots).
inline constexpr std::size_t kCurvePoints = 40;
struct TargetCurve {
  std::vector<double> share_of_target;
  std::vector<double> seconds;
};
TargetCurve target_curve(
    const std::vector<moela::core::ArchiveSnapshot>& snapshots,
    const moela::exp::ObjectiveBounds& bounds, double target,
    std::size_t max_evaluations);

/// Seconds until the mean of `curves` first reaches its target (share 1),
/// read off the mean elapsed seconds at that point of the budget. Averaging
/// the runs' curves first keeps one slow search from deciding the result.
/// Nullopt when the mean curve never gets there (or there are no curves).
std::optional<double> pooled_time_to_target(
    const std::vector<TargetCurve>& curves);

}  // namespace perfbench
