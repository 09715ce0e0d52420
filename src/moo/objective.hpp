// Objective vectors and Pareto-dominance relations.
//
// Convention used throughout the library: ALL objectives are minimized.
// Problems that naturally maximize a quantity negate it at the problem
// boundary.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace moela::moo {

/// An objective vector; index i is the value of the i-th (minimized)
/// objective.
using ObjectiveVector = std::vector<double>;

/// Dominance relation between two equal-length objective vectors.
enum class Dominance {
  kDominates,     // a is <= b everywhere and < somewhere
  kDominatedBy,   // b dominates a
  kNonDominated,  // neither dominates (incomparable or equal)
  kEqual,         // identical vectors
};

/// Computes the Pareto-dominance relation between `a` and `b` (minimization).
/// Sets both flags over every component, with no early exit, and then
/// classifies once. A comparison with NaN is false both ways.
inline Dominance compare(std::span<const double> a, std::span<const double> b) {
  bool a_better = false;
  bool b_better = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a_better |= a[i] < b[i];
    b_better |= b[i] < a[i];
  }
  if (a_better == b_better) {
    return a_better ? Dominance::kNonDominated : Dominance::kEqual;
  }
  return a_better ? Dominance::kDominates : Dominance::kDominatedBy;
}

/// True iff `a` Pareto-dominates `b` (minimization, strict).
inline bool dominates(std::span<const double> a, std::span<const double> b) {
  return compare(a, b) == Dominance::kDominates;
}

/// True iff `a` weakly dominates `b` (a <= b component-wise).
inline bool weakly_dominates(std::span<const double> a,
                             std::span<const double> b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

}  // namespace moela::moo
