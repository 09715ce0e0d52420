#include "moo/pareto.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "moo/objective.hpp"
#include "util/rng.hpp"

namespace moela::moo {
namespace {

TEST(Dominance, BasicRelations) {
  const ObjectiveVector a{1.0, 1.0};
  const ObjectiveVector b{2.0, 2.0};
  const ObjectiveVector c{0.5, 3.0};
  EXPECT_EQ(compare(a, b), Dominance::kDominates);
  EXPECT_EQ(compare(b, a), Dominance::kDominatedBy);
  EXPECT_EQ(compare(a, c), Dominance::kNonDominated);
  EXPECT_EQ(compare(a, a), Dominance::kEqual);
}

TEST(Dominance, WeakDominanceIncludesEqual) {
  const ObjectiveVector a{1.0, 2.0};
  EXPECT_TRUE(weakly_dominates(a, a));
  EXPECT_TRUE(weakly_dominates(a, ObjectiveVector{1.0, 3.0}));
  EXPECT_FALSE(weakly_dominates(a, ObjectiveVector{0.9, 3.0}));
}

TEST(Dominance, StrictRequiresOneStrictImprovement) {
  EXPECT_FALSE(dominates(ObjectiveVector{1.0, 2.0}, ObjectiveVector{1.0, 2.0}));
  EXPECT_TRUE(dominates(ObjectiveVector{1.0, 1.9}, ObjectiveVector{1.0, 2.0}));
}

TEST(ParetoFilter, KeepsOnlyNonDominated) {
  const std::vector<ObjectiveVector> points{
      {1.0, 4.0}, {2.0, 3.0}, {3.0, 3.5}, {4.0, 1.0}, {2.5, 2.5}};
  const auto keep = pareto_filter(points);
  // {3.0, 3.5} is dominated by {2.5, 2.5}; others are non-dominated.
  EXPECT_EQ(keep.size(), 4u);
  for (auto i : keep) EXPECT_NE(i, 2u);
}

TEST(ParetoFilter, DuplicatesKeepFirstOnly) {
  const std::vector<ObjectiveVector> points{{1.0, 1.0}, {1.0, 1.0}};
  const auto keep = pareto_filter(points);
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(keep[0], 0u);
}

TEST(NonDominatedSort, FrontsAreOrderedLayers) {
  // Three clear layers along the diagonal.
  const std::vector<ObjectiveVector> points{
      {1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}, {1.5, 0.5}};
  const auto fronts = non_dominated_sort(points);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0].size(), 2u);  // {1,1} and {1.5,0.5}
  EXPECT_EQ(fronts[1].size(), 1u);
  EXPECT_EQ(fronts[2].size(), 1u);
}

TEST(NonDominatedSort, AllIncomparableIsOneFront) {
  const std::vector<ObjectiveVector> points{
      {1.0, 4.0}, {2.0, 3.0}, {3.0, 2.0}, {4.0, 1.0}};
  const auto fronts = non_dominated_sort(points);
  ASSERT_EQ(fronts.size(), 1u);
  EXPECT_EQ(fronts[0].size(), 4u);
}

TEST(NonDominatedSort, CoversEveryIndexExactlyOnce) {
  util::Rng rng(3);
  std::vector<ObjectiveVector> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  const auto fronts = non_dominated_sort(points);
  std::vector<int> seen(points.size(), 0);
  for (const auto& f : fronts) {
    for (auto i : f) ++seen[i];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(NonDominatedSort, NoMemberDominatedWithinItsFront) {
  util::Rng rng(5);
  std::vector<ObjectiveVector> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back({rng.uniform(), rng.uniform()});
  }
  const auto fronts = non_dominated_sort(points);
  for (const auto& f : fronts) {
    for (auto i : f) {
      for (auto j : f) {
        EXPECT_FALSE(dominates(points[j], points[i]));
      }
    }
  }
}

/// A seeded 48-point set on a coarse grid (eight levels a component), so
/// ties in one objective and exact duplicates occur, plus two forced
/// duplicates and one NaN component.
std::vector<ObjectiveVector> grid_points(std::uint64_t seed, std::size_t m) {
  util::Rng rng(seed);
  std::vector<ObjectiveVector> points;
  for (int i = 0; i < 48; ++i) {
    ObjectiveVector p(m);
    for (double& x : p) x = 0.25 * static_cast<double>(rng.below(8));
    points.push_back(std::move(p));
  }
  points[45] = points[2];
  points[46] = points[20];
  points[30][0] = std::numeric_limits<double>::quiet_NaN();
  return points;
}

/// Fronts as text: indices in front order, fronts separated by '|'.
std::string fronts_text(const std::vector<std::vector<std::size_t>>& fronts) {
  std::string out;
  for (const auto& front : fronts) {
    if (!out.empty()) out += '|';
    for (std::size_t k = 0; k < front.size(); ++k) {
      if (k > 0) out += ' ';
      out += std::to_string(front[k]);
    }
  }
  return out;
}

// The exact fronts, and the order within each, that NSGA-II's survival and
// tournament read. Generated by the straightforward pair-list sort; a
// faster sort must reproduce every index in place.
TEST(NonDominatedSortPins, ExactFrontsInTwoAndThreeObjectives) {
  const auto points2 = grid_points(11, 2);
  ASSERT_TRUE(std::isnan(points2[30][0]));
  EXPECT_EQ(fronts_text(non_dominated_sort(points2)),
            "8 29|0 17 38 41 43|44 2 5 13 45|4 6 21|16|24|12 30|1|10 32 37|"
            "9 40 31 36|19 23 39 26 27|7 42 22 35 47|11 18 25|3 28 34|"
            "14 15 20 46|33");
  EXPECT_EQ(fronts_text(non_dominated_sort(grid_points(12, 3))),
            "6 32 35|16 17 33 15 37|14 19 20 27 42 46 4 26 36 18|"
            "7 41 21 23 5 40 11|12 3 34 1|9 22 47 30|29 8 24 39 44|"
            "10 2 45 0 28 43|38 31|13|25");
}

TEST(CrowdingDistance, BoundaryPointsInfinite) {
  const std::vector<ObjectiveVector> points{
      {0.0, 4.0}, {1.0, 3.0}, {2.0, 2.0}, {4.0, 0.0}};
  std::vector<std::size_t> front{0, 1, 2, 3};
  const auto d = crowding_distance(points, front);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(d[0], inf);
  EXPECT_EQ(d[3], inf);
  EXPECT_GT(d[1], 0.0);
  EXPECT_LT(d[1], inf);
}

TEST(CrowdingDistance, TwoOrFewerAllInfinite) {
  const std::vector<ObjectiveVector> points{{0.0, 1.0}, {1.0, 0.0}};
  const auto d = crowding_distance(points, {0, 1});
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(d[0], inf);
  EXPECT_EQ(d[1], inf);
}

TEST(CrowdingDistance, DenserRegionsScoreLower) {
  // Points 1 and 2 are close together; point 3 is isolated.
  const std::vector<ObjectiveVector> points{
      {0.0, 10.0}, {1.0, 9.0}, {1.2, 8.8}, {5.0, 5.0}, {10.0, 0.0}};
  const auto d = crowding_distance(points, {0, 1, 2, 3, 4});
  EXPECT_LT(d[1], d[3]);
  EXPECT_LT(d[2], d[3]);
}

TEST(IdealNadir, ComponentWiseExtremes) {
  const std::vector<ObjectiveVector> points{{1.0, 5.0}, {3.0, 2.0}};
  EXPECT_EQ(ideal_point(points), (ObjectiveVector{1.0, 2.0}));
  EXPECT_EQ(nadir_point(points), (ObjectiveVector{3.0, 5.0}));
}

TEST(IdealNadir, EmptyThrows) {
  EXPECT_THROW(ideal_point({}), std::invalid_argument);
  EXPECT_THROW(nadir_point({}), std::invalid_argument);
}

TEST(Normalize, MapsIntoUnitBox) {
  const std::vector<ObjectiveVector> points{{1.0, 10.0}, {3.0, 20.0},
                                            {2.0, 15.0}};
  const auto ideal = ideal_point(points);
  const auto nadir = nadir_point(points);
  const auto norm = normalize(points, ideal, nadir);
  EXPECT_DOUBLE_EQ(norm[0][0], 0.0);
  EXPECT_DOUBLE_EQ(norm[1][0], 1.0);
  EXPECT_DOUBLE_EQ(norm[2][0], 0.5);
  EXPECT_DOUBLE_EQ(norm[2][1], 0.5);
}

TEST(Normalize, DegenerateDimensionMapsToZero) {
  const std::vector<ObjectiveVector> points{{5.0, 1.0}, {5.0, 2.0}};
  const auto norm =
      normalize(points, ideal_point(points), nadir_point(points));
  EXPECT_DOUBLE_EQ(norm[0][0], 0.0);
  EXPECT_DOUBLE_EQ(norm[1][0], 0.0);
}

class ParetoFilterSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParetoFilterSweep, FilterResultIsMutuallyNonDominated) {
  util::Rng rng(GetParam());
  std::vector<ObjectiveVector> points;
  for (int i = 0; i < 50; ++i) {
    ObjectiveVector p;
    for (std::size_t m = 0; m < 2 + GetParam() % 4; ++m) {
      p.push_back(rng.uniform());
    }
    points.push_back(p);
  }
  const auto keep = pareto_filter(points);
  EXPECT_FALSE(keep.empty());
  for (auto i : keep) {
    for (auto j : keep) {
      EXPECT_FALSE(dominates(points[i], points[j]) && i != j &&
                   dominates(points[j], points[i]));
      EXPECT_FALSE(dominates(points[j], points[i]));
    }
  }
  // Every dropped point is dominated by (or equal to) some kept point.
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (std::find(keep.begin(), keep.end(), i) != keep.end()) continue;
    bool covered = false;
    for (auto j : keep) {
      if (weakly_dominates(points[j], points[i])) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "dropped point " << i << " not covered";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoFilterSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace moela::moo
