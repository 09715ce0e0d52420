// Pareto-set utilities: non-dominated filtering, fast non-dominated sorting
// (Deb et al., NSGA-II), and crowding distance.
#pragma once

#include <cstddef>
#include <vector>

#include "moo/objective.hpp"

namespace moela::moo {

/// Returns the indices of the non-dominated members of `points`
/// (minimization). Duplicated vectors: the first occurrence is kept.
std::vector<std::size_t> pareto_filter(
    const std::vector<ObjectiveVector>& points);

/// Fast non-dominated sort. Returns fronts of indices; fronts[0] is the
/// Pareto-optimal set, fronts[1] the set that becomes non-dominated once
/// fronts[0] is removed, and so on. O(M N^2). The order within each front
/// is pinned: NSGA-II's survival and tournament read it.
std::vector<std::vector<std::size_t>> non_dominated_sort(
    const std::vector<ObjectiveVector>& points);

/// Crowding distance of each member of a single front (NSGA-II). Boundary
/// points of each objective get +infinity. `front` indexes into `points`.
std::vector<double> crowding_distance(
    const std::vector<ObjectiveVector>& points,
    const std::vector<std::size_t>& front);

/// Component-wise minimum of a set of objective vectors (the ideal point).
/// Requires a non-empty set.
ObjectiveVector ideal_point(const std::vector<ObjectiveVector>& points);

/// Component-wise maximum of a set of objective vectors (the nadir proxy).
/// Requires a non-empty set.
ObjectiveVector nadir_point(const std::vector<ObjectiveVector>& points);

/// Min-max normalizes `points` into [0, 1]^M using the given ideal/nadir.
/// Degenerate dimensions (ideal == nadir) map to 0.
std::vector<ObjectiveVector> normalize(
    const std::vector<ObjectiveVector>& points, const ObjectiveVector& ideal,
    const ObjectiveVector& nadir);

}  // namespace moela::moo
