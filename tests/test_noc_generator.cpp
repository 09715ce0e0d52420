#include "noc/generator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "noc/constraints.hpp"
#include "noc/io.hpp"
#include "util/rng.hpp"

namespace moela::noc {
namespace {

struct GenCase {
  const char* name;
  PlatformSpec (*make)();
};

class GeneratorSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  PlatformSpec make_spec() const {
    return std::get<0>(GetParam()) == 0 ? PlatformSpec::small_3x3x3()
                                        : PlatformSpec::paper_4x4x4();
  }
  std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(GeneratorSweep, RandomDesignIsFeasible) {
  const auto spec = make_spec();
  DesignOps ops(spec);
  util::Rng rng(seed());
  for (int i = 0; i < 5; ++i) {
    const NocDesign d = ops.random_design(rng);
    const auto report = validate(spec, d);
    EXPECT_TRUE(report.ok())
        << (report.violations.empty() ? "ok" : report.violations.front());
  }
}

TEST_P(GeneratorSweep, NeighborsAreFeasibleAndUsuallyDifferent) {
  const auto spec = make_spec();
  DesignOps ops(spec);
  util::Rng rng(seed() + 100);
  const NocDesign d = ops.random_design(rng);
  int different = 0;
  for (int i = 0; i < 20; ++i) {
    const NocDesign n = ops.random_neighbor(d, rng);
    EXPECT_TRUE(is_feasible(spec, n));
    if (!(n == d)) ++different;
  }
  EXPECT_GE(different, 18);
}

TEST_P(GeneratorSweep, CrossoverIsFeasible) {
  const auto spec = make_spec();
  DesignOps ops(spec);
  util::Rng rng(seed() + 200);
  const NocDesign a = ops.random_design(rng);
  const NocDesign b = ops.random_design(rng);
  for (int i = 0; i < 10; ++i) {
    const NocDesign child = ops.crossover(a, b, rng);
    const auto report = validate(spec, child);
    EXPECT_TRUE(report.ok());
  }
}

TEST_P(GeneratorSweep, MutateIsFeasible) {
  const auto spec = make_spec();
  DesignOps ops(spec);
  util::Rng rng(seed() + 300);
  NocDesign d = ops.random_design(rng);
  for (int i = 0; i < 10; ++i) {
    d = ops.mutate(d, rng);
    EXPECT_TRUE(is_feasible(spec, d));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlatformsAndSeeds, GeneratorSweep,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(1u, 2u, 3u, 17u, 91u)));

TEST(Generator, RandomDesignsDiffer) {
  const auto spec = PlatformSpec::small_3x3x3();
  DesignOps ops(spec);
  util::Rng rng(5);
  const NocDesign a = ops.random_design(rng);
  const NocDesign b = ops.random_design(rng);
  EXPECT_FALSE(a == b);
}

TEST(Generator, DeterministicGivenSeed) {
  const auto spec = PlatformSpec::small_3x3x3();
  DesignOps ops(spec);
  util::Rng r1(7), r2(7);
  EXPECT_EQ(ops.random_design(r1), ops.random_design(r2));
}

TEST(Generator, SwapCoresPreservesPermutationAndLlcRule) {
  const auto spec = PlatformSpec::paper_4x4x4();
  DesignOps ops(spec);
  util::Rng rng(11);
  NocDesign d = ops.random_design(rng);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ops.swap_cores(d, rng));
    const auto report = validate(spec, d);
    ASSERT_TRUE(report.placement_is_permutation);
    ASSERT_TRUE(report.llcs_on_edge);
  }
}

TEST(Generator, MovePlanarLinkKeepsBudgetAndConnectivity) {
  const auto spec = PlatformSpec::paper_4x4x4();
  DesignOps ops(spec);
  util::Rng rng(13);
  NocDesign d = ops.random_design(rng);
  int moved = 0;
  for (int i = 0; i < 50; ++i) {
    if (ops.move_planar_link(d, rng)) {
      ++moved;
      ASSERT_TRUE(is_feasible(spec, d));
    }
  }
  EXPECT_GT(moved, 40);  // the move should almost always succeed
}

TEST(Generator, MoveVerticalLinkNoopWhenSaturated) {
  // paper_4x4x4 uses all 48 TSV slots; vertical moves must be rejected.
  const auto spec = PlatformSpec::paper_4x4x4();
  DesignOps ops(spec);
  util::Rng rng(17);
  NocDesign d = ops.random_design(rng);
  const NocDesign before = d;
  EXPECT_FALSE(ops.move_vertical_link(d, rng));
  EXPECT_EQ(d, before);
}

TEST(Generator, MoveVerticalLinkWorksWhenUnsaturated) {
  // A platform with TSV budget below the candidate count.
  std::vector<PeType> cores;
  cores.insert(cores.end(), 4, PeType::kCpu);
  cores.insert(cores.end(), 15, PeType::kGpu);
  cores.insert(cores.end(), 8, PeType::kLlc);
  const PlatformSpec spec(3, 3, 3, std::move(cores), 36, 12);
  DesignOps ops(spec);
  util::Rng rng(19);
  NocDesign d = ops.random_design(rng);
  int moved = 0;
  for (int i = 0; i < 30; ++i) {
    if (ops.move_vertical_link(d, rng)) {
      ++moved;
      ASSERT_TRUE(is_feasible(spec, d));
    }
  }
  EXPECT_GT(moved, 15);
}

TEST(Generator, CrossoverInheritsParentStructure) {
  const auto spec = PlatformSpec::small_3x3x3();
  DesignOps ops(spec);
  util::Rng rng(23);
  const NocDesign a = ops.random_design(rng);
  const NocDesign b = ops.random_design(rng);
  const NocDesign child = ops.crossover(a, b, rng);
  // Every placement position comes from one of the parents (CX property).
  for (TileId t = 0; t < spec.num_tiles(); ++t) {
    EXPECT_TRUE(child.placement[t] == a.placement[t] ||
                child.placement[t] == b.placement[t])
        << "tile " << t;
  }
  // The link crossover draws from the parents' union without preferring
  // links common to both (generator.hpp). Count the common links that the
  // child holds anyway.
  std::vector<Link> common;
  std::set_intersection(a.links.begin(), a.links.end(), b.links.begin(),
                        b.links.end(), std::back_inserter(common));
  std::size_t kept = 0;
  for (const Link& l : common) {
    if (std::binary_search(child.links.begin(), child.links.end(), l)) ++kept;
  }
  // At least 80% of the common links survive in the child.
  EXPECT_GE(kept * 10, common.size() * 8);
}

TEST(Generator, CrossoverOfIdenticalParentsKeepsPlacement) {
  const auto spec = PlatformSpec::small_3x3x3();
  DesignOps ops(spec);
  util::Rng rng(29);
  const NocDesign a = ops.random_design(rng);
  const NocDesign child = ops.crossover(a, a, rng);
  EXPECT_EQ(child.placement, a.placement);
  EXPECT_EQ(child.links, a.links);  // all links are "common"
}

// Byte pins for the variation operators themselves, which whole-run pins
// see only through everything else a run does. Per platform, a seeded
// chain of random_neighbor, crossover and mutate calls is folded into one
// FNV-1a digest of the designs' v1 text form (placement and links), and
// the generator's next output after the chain is pinned too, so a rewrite
// that consumes a different number of draws fails even where the designs
// agree. The expected values were produced by the straightforward
// operators; any speedup of them must reproduce these bit for bit.
std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

// Both canonical platforms use every TSV slot, so their chains never move a
// vertical link; this tall stack (8 of 12 slots used) draws from all three
// move kinds of random_neighbor.
PlatformSpec tall_stack_2x2x4() {
  std::vector<PeType> cores;
  cores.insert(cores.end(), 2, PeType::kCpu);
  cores.insert(cores.end(), 10, PeType::kGpu);
  cores.insert(cores.end(), 4, PeType::kLlc);
  return PlatformSpec(2, 2, 4, std::move(cores), 12, 8);
}

TEST(GeneratorBytePins, SeededOperatorChain) {
  struct Pin {
    const char* platform;
    PlatformSpec (*make)();
    const char* digest;
    const char* next_draw;
  };
  const Pin pins[] = {
      {"paper_4x4x4", &PlatformSpec::paper_4x4x4, "1d54ff51cd8f71b1",
       "afdc0acc669bdcb9"},
      {"small_3x3x3", &PlatformSpec::small_3x3x3, "0a6296c4e0d5ab11",
       "2ac95919b5d74b85"},
      {"tall_stack_2x2x4", &tall_stack_2x2x4, "393a39e39c32f715",
       "9676def1facca46f"},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.platform);
    const PlatformSpec spec = pin.make();
    DesignOps ops(spec);
    util::Rng rng(4242);
    NocDesign current = ops.random_design(rng);
    NocDesign mate = ops.random_design(rng);
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (int step = 0; step < 40; ++step) {
      current = ops.random_neighbor(current, rng);
      digest = fnv1a(digest, design_to_string(current));
      const NocDesign child = ops.crossover(current, mate, rng);
      digest = fnv1a(digest, design_to_string(child));
      mate = ops.mutate(child, rng);
      digest = fnv1a(digest, design_to_string(mate));
    }
    EXPECT_EQ(hex64(digest), pin.digest);
    EXPECT_EQ(hex64(rng()), pin.next_draw);
  }
}

}  // namespace
}  // namespace moela::noc
