#include "moo/archive.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "moo/pareto.hpp"
#include "util/rng.hpp"

namespace moela::moo {
namespace {

TEST(ParetoArchive, AcceptsFirstPoint) {
  ParetoArchive a;
  EXPECT_TRUE(a.insert({1.0, 2.0}));
  EXPECT_EQ(a.size(), 1u);
}

TEST(ParetoArchive, RejectsDominatedAndEqual) {
  ParetoArchive a;
  a.insert({1.0, 1.0});
  EXPECT_FALSE(a.insert({2.0, 2.0}));  // dominated
  EXPECT_FALSE(a.insert({1.0, 1.0}));  // duplicate
  EXPECT_EQ(a.size(), 1u);
}

TEST(ParetoArchive, RemovesNewlyDominated) {
  ParetoArchive a;
  a.insert({2.0, 2.0});
  a.insert({3.0, 1.0});
  EXPECT_TRUE(a.insert({1.0, 1.0}));  // dominates both
  EXPECT_EQ(a.objective_set(), (std::vector<ObjectiveVector>{{1.0, 1.0}}));
}

TEST(ParetoArchive, KeepsIncomparablePoints) {
  ParetoArchive a;
  EXPECT_TRUE(a.insert({1.0, 3.0}));
  EXPECT_TRUE(a.insert({3.0, 1.0}));
  EXPECT_TRUE(a.insert({2.0, 2.0}));
  EXPECT_EQ(a.size(), 3u);
}

TEST(ParetoArchive, MismatchedSizeInsertThrows) {
  ParetoArchive a;
  EXPECT_THROW(a.insert({}), std::invalid_argument);
  a.insert({1.0, 2.0});
  EXPECT_THROW(a.insert({0.5}), std::invalid_argument);
  EXPECT_THROW(a.insert({0.5, 0.5, 0.5}), std::invalid_argument);
  EXPECT_EQ(a.objective_set(), (std::vector<ObjectiveVector>{{1.0, 2.0}}));
}

TEST(ParetoArchive, ContentAlwaysMutuallyNonDominated) {
  util::Rng rng(3);
  ParetoArchive a;
  for (int i = 0; i < 500; ++i) {
    a.insert({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  const auto points = a.objective_set();
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(dominates(points[i], points[j]));
    }
  }
}

/// The archive's members as text, in objective_set() order.
std::string members_text(const ParetoArchive& a) {
  std::string out;
  for (const ObjectiveVector& p : a.objective_set()) {
    out += '(';
    for (std::size_t i = 0; i < p.size(); ++i) {
      char buffer[32];
      const auto end = std::to_chars(buffer, buffer + sizeof(buffer), p[i]).ptr;
      if (i > 0) out += ' ';
      out.append(buffer, end);
    }
    out += ')';
  }
  return out;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Folds a seeded stream into `a`, shaped like a search converging on the
/// plane where the components sum to 7 (2 objectives) or 14 (3): grid
/// points in steps of 0.25, so duplicates and weak-dominance ties occur,
/// that drift inward as the stream goes on, every 37th with a NaN
/// component. Returns the accepted count and an FNV-1a digest of the
/// member list after every insert, so a change in any intermediate set or
/// its order shows.
std::pair<std::size_t, std::uint64_t> fold_stream(ParetoArchive& a,
                                                  std::uint64_t seed,
                                                  std::size_t m) {
  util::Rng rng(seed);
  std::size_t accepted = 0;
  std::uint64_t digest = 1469598103934665603ull;
  for (std::size_t i = 0; i < 400; ++i) {
    ObjectiveVector p(m);
    std::uint64_t rest = 7 * (m - 1) + rng.below(3) + (399 - i) / 40;
    for (std::size_t k = 0; k + 1 < m; ++k) {
      const std::uint64_t x = rng.below(8);
      p[k] = 0.25 * static_cast<double>(x);
      rest -= x;
    }
    p[m - 1] = 0.25 * static_cast<double>(rest);
    if (i % 37 == 36) {
      p[rng.below(m)] = std::numeric_limits<double>::quiet_NaN();
    }
    if (a.insert(p)) ++accepted;
    digest = fnv1a(digest, members_text(a) + ';');
  }
  return {accepted, digest};
}

// A point with a NaN component can dominate one member and still be
// rejected by a later one (dominance is not transitive across NaN): the
// rejected point must leave the archive untouched.
TEST(ParetoArchivePins, RejectedNanPointErasesNothing) {
  ParetoArchive a;
  a.insert({0.25, 1.75});
  a.insert({1.75, 0.25});
  const ObjectiveVector p{std::numeric_limits<double>::quiet_NaN(), 1.0};
  ASSERT_EQ(compare(p, ObjectiveVector{0.25, 1.75}), Dominance::kDominates);
  ASSERT_EQ(compare(ObjectiveVector{1.75, 0.25}, p), Dominance::kDominates);
  EXPECT_FALSE(a.insert(p));
  EXPECT_EQ(members_text(a), "(0.25 1.75)(1.75 0.25)");
}

// The member list, in order, after seeded streams in 2 and 3 objectives.
// Generated by the straightforward two-pass insert.
TEST(ParetoArchivePins, ObjectiveSetAfterSeededStreams) {
  ParetoArchive a2;
  const auto [accepted2, digest2] = fold_stream(a2, 21, 2);
  EXPECT_EQ(accepted2, 76u);
  EXPECT_EQ(digest2, 13411849071201567849ull);
  EXPECT_EQ(members_text(a2),
            "(0.75 1)(1 0.75)(1.75 0)(0.5 1.25)(1.5 0.25)(0 1.75)");

  ParetoArchive a3;
  const auto [accepted3, digest3] = fold_stream(a3, 22, 3);
  EXPECT_EQ(accepted3, 197u);
  EXPECT_EQ(a3.size(), 28u);
  EXPECT_EQ(digest3, 3914391777551814626ull);
}

}  // namespace
}  // namespace moela::moo
