// Pareto archive of objective vectors.
//
// Algorithms use the archive to track every non-dominated point seen over a
// run. The harness computes anytime-PHV from archive snapshots and reports
// the final archive as the run's front.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "moo/objective.hpp"

namespace moela::moo {

/// An unbounded non-dominated set, kept in insertion order. The members
/// live row-major in one flat buffer, so an insert allocates only when the
/// buffer grows.
class ParetoArchive {
 public:
  /// Inserts `objectives` unless a member dominates or equals it; returns
  /// true iff it entered. Members it dominates are removed; the others keep
  /// their order. The first insert fixes the number of objectives: an empty
  /// vector, or one of any other size later, throws std::invalid_argument.
  bool insert(const ObjectiveVector& objectives);

  std::size_t size() const { return m_ == 0 ? 0 : values_.size() / m_; }
  bool empty() const { return values_.empty(); }

  /// All members' objective vectors, in insertion order.
  std::vector<ObjectiveVector> objective_set() const;

 private:
  std::span<const double> member(std::size_t k) const {
    return {values_.data() + k * m_, m_};
  }

  std::size_t m_ = 0;           // objectives per member; 0 until the first
  std::vector<double> values_;  // members, m_ values each
  std::vector<std::size_t> dominated_;  // insert's scratch: members it beats
};

}  // namespace moela::moo
