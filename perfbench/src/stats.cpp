#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {
namespace {

/// 1-based nearest rank of the q-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Points better than the pinned ideal count as the ideal, so a front from
/// an instance the pins never saw still scores within [0, 1.1^M].
std::vector<moo::ObjectiveVector> clamp_to_ideal(
    std::vector<moo::ObjectiveVector> front,
    const moela::exp::ObjectiveBounds& bounds) {
  for (auto& point : front) {
    for (std::size_t i = 0; i < point.size(); ++i) {
      point[i] = std::max(point[i], bounds.ideal[i]);
    }
  }
  return front;
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile: no samples");
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile: q must be in (0, 1]");
  }
  const std::size_t rank = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("mean: no samples");
  double total = 0.0;
  for (double v : samples) total += v;
  return total / static_cast<double>(samples.size());
}

double geometric_mean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("geometric_mean: no samples");
  double log_total = 0.0;
  for (double v : samples) {
    if (!(v > 0.0)) throw std::invalid_argument("geometric_mean: value <= 0");
    log_total += std::log(v);
  }
  return std::exp(log_total / static_cast<double>(samples.size()));
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::optional<double> highest_supported_percentile(std::size_t n,
                                                   std::size_t min_tail) {
  for (double q : {0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (samples_beyond(n, q) >= min_tail) return q;
  }
  return std::nullopt;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = percentile(samples, 0.5);
  s.p90 = percentile(samples, 0.9);
  s.supported = highest_supported_percentile(s.n).value_or(0.0);
  return s;
}

double normalized_phv(const std::vector<moo::ObjectiveVector>& front,
                      const moela::exp::ObjectiveBounds& bounds) {
  return moela::exp::final_phv(clamp_to_ideal(front, bounds), bounds);
}

TargetCurve target_curve(
    const std::vector<moela::core::ArchiveSnapshot>& snapshots,
    const moela::exp::ObjectiveBounds& bounds, double target,
    std::size_t max_evaluations) {
  TargetCurve curve;
  std::vector<double> share, phv, secs;
  for (const auto& snapshot : snapshots) {
    share.push_back(static_cast<double>(snapshot.evaluations) /
                    static_cast<double>(max_evaluations));
    phv.push_back(normalized_phv(snapshot.front, bounds) / target);
    secs.push_back(snapshot.seconds);
  }
  std::size_t j = 0;
  for (std::size_t k = 1; k <= kCurvePoints; ++k) {
    const double at = static_cast<double>(k) / kCurvePoints;
    while (j + 1 < share.size() && share[j + 1] < at) ++j;
    // Before its first snapshot a run counts that snapshot's state; past
    // its last one (a run that stopped short of its budget) it keeps its
    // final state.
    double w = 0.0;
    std::size_t lo = j, hi = j;
    if (j + 1 < share.size() && share[j] < at) {
      hi = j + 1;
      w = (at - share[lo]) / (share[hi] - share[lo]);
    }
    curve.share_of_target.push_back(phv[lo] + w * (phv[hi] - phv[lo]));
    curve.seconds.push_back(secs[lo] + w * (secs[hi] - secs[lo]));
  }
  return curve;
}

std::optional<double> pooled_time_to_target(
    const std::vector<TargetCurve>& curves) {
  if (curves.empty()) return std::nullopt;
  const double n = static_cast<double>(curves.size());
  double prev_share = 0.0, prev_secs = 0.0;
  for (std::size_t k = 0; k < kCurvePoints; ++k) {
    double share = 0.0, secs = 0.0;
    for (const auto& c : curves) {
      share += c.share_of_target[k] / n;
      secs += c.seconds[k] / n;
    }
    if (share >= 1.0) {
      if (k == 0 || share <= prev_share) return secs;
      const double w = (1.0 - prev_share) / (share - prev_share);
      return prev_secs + w * (secs - prev_secs);
    }
    prev_share = share;
    prev_secs = secs;
  }
  return std::nullopt;
}

}  // namespace perfbench
