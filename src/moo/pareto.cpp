#include "moo/pareto.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace moela::moo {

std::vector<std::size_t> pareto_filter(
    const std::vector<ObjectiveVector>& points) {
  std::vector<std::size_t> result;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool keep = true;
    for (std::size_t j = 0; j < points.size() && keep; ++j) {
      if (i == j) continue;
      const Dominance d = compare(points[j], points[i]);
      if (d == Dominance::kDominates) keep = false;
      // For exact duplicates keep only the first occurrence.
      if (d == Dominance::kEqual && j < i) keep = false;
    }
    if (keep) result.push_back(i);
  }
  return result;
}

std::vector<std::vector<std::size_t>> non_dominated_sort(
    const std::vector<ObjectiveVector>& points) {
  const std::size_t n = points.size();
  // Row i has bit j set iff i dominates j: ceil(n/64) words a row.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> dominated(n * words, 0);
  std::vector<std::size_t> dom_count(n, 0);  // # dominating i

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const Dominance d = compare(points[i], points[j]);
      if (d == Dominance::kDominates) {
        dominated[i * words + j / 64] |= std::uint64_t{1} << (j % 64);
        ++dom_count[j];
      } else if (d == Dominance::kDominatedBy) {
        dominated[j * words + i / 64] |= std::uint64_t{1} << (i % 64);
        ++dom_count[i];
      }
    }
  }

  // Peel the fronts, walking each row's set bits in ascending order: the
  // order in which the pair loop above would fill per-point lists, so the
  // fronts and the order within each are the textbook sort's.
  std::vector<std::vector<std::size_t>> fronts;
  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i) {
    if (dom_count[i] == 0) current.push_back(i);
  }
  while (!current.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t i : current) {
      const std::uint64_t* row = dominated.data() + i * words;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
          const std::size_t j =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          if (--dom_count[j] == 0) next.push_back(j);
        }
      }
    }
    fronts.push_back(std::move(current));
    current = std::move(next);
  }
  return fronts;
}

std::vector<double> crowding_distance(
    const std::vector<ObjectiveVector>& points,
    const std::vector<std::size_t>& front) {
  const std::size_t n = front.size();
  std::vector<double> dist(n, 0.0);
  if (n == 0) return dist;
  if (n <= 2) {
    std::fill(dist.begin(), dist.end(),
              std::numeric_limits<double>::infinity());
    return dist;
  }
  const std::size_t m = points[front[0]].size();
  std::vector<std::size_t> order(n);
  for (std::size_t obj = 0; obj < m; ++obj) {
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return points[front[a]][obj] < points[front[b]][obj];
    });
    const double lo = points[front[order.front()]][obj];
    const double hi = points[front[order.back()]][obj];
    dist[order.front()] = std::numeric_limits<double>::infinity();
    dist[order.back()] = std::numeric_limits<double>::infinity();
    if (hi <= lo) continue;  // degenerate objective: no interior spread
    for (std::size_t k = 1; k + 1 < n; ++k) {
      dist[order[k]] += (points[front[order[k + 1]]][obj] -
                         points[front[order[k - 1]]][obj]) /
                        (hi - lo);
    }
  }
  return dist;
}

ObjectiveVector ideal_point(const std::vector<ObjectiveVector>& points) {
  if (points.empty()) throw std::invalid_argument("ideal_point: empty set");
  ObjectiveVector ideal = points.front();
  for (const auto& p : points) {
    for (std::size_t i = 0; i < ideal.size(); ++i) {
      ideal[i] = std::min(ideal[i], p[i]);
    }
  }
  return ideal;
}

ObjectiveVector nadir_point(const std::vector<ObjectiveVector>& points) {
  if (points.empty()) throw std::invalid_argument("nadir_point: empty set");
  ObjectiveVector nadir = points.front();
  for (const auto& p : points) {
    for (std::size_t i = 0; i < nadir.size(); ++i) {
      nadir[i] = std::max(nadir[i], p[i]);
    }
  }
  return nadir;
}

std::vector<ObjectiveVector> normalize(
    const std::vector<ObjectiveVector>& points, const ObjectiveVector& ideal,
    const ObjectiveVector& nadir) {
  std::vector<ObjectiveVector> out = points;
  for (auto& p : out) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double range = nadir[i] - ideal[i];
      p[i] = range > 0.0 ? (p[i] - ideal[i]) / range : 0.0;
    }
  }
  return out;
}

}  // namespace moela::moo
