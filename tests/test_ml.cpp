#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace moela::ml {
namespace {

TEST(Dataset, StoresAndRetrieves) {
  Dataset d(2);
  d.add({1.0, 2.0}, 3.0);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.features(0)[0], 1.0);
  EXPECT_EQ(d.target(0), 3.0);
}

TEST(Dataset, WidthMismatchThrows) {
  Dataset d(3);
  EXPECT_THROW(d.add({1.0}, 0.0), std::invalid_argument);
}

TEST(Dataset, SlidingWindowEvictsOldest) {
  Dataset d(1, 3);
  for (int i = 0; i < 5; ++i) {
    d.add({static_cast<double>(i)}, static_cast<double>(i));
  }
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.target(0), 2.0);  // 0 and 1 evicted
  EXPECT_EQ(d.target(2), 4.0);
}

Dataset make_linear_dataset(std::size_t n, util::Rng& rng) {
  Dataset d(2);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform();
    d.add({x0, x1}, 2.0 * x0 - 3.0 * x1 + 1.0);
  }
  return d;
}

TEST(DecisionTree, FitsConstantTarget) {
  Dataset d(1);
  for (int i = 0; i < 20; ++i) d.add({static_cast<double>(i)}, 7.0);
  util::Rng rng(1);
  DecisionTree tree;
  tree.fit(d, {}, rng);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{5.0}), 7.0);
  EXPECT_EQ(tree.node_count(), 1u);  // constant target -> single leaf
}

TEST(DecisionTree, FitsStepFunctionExactly) {
  Dataset d(1);
  for (int i = 0; i < 50; ++i) {
    const double x = i / 50.0;
    d.add({x}, x < 0.5 ? 0.0 : 1.0);
  }
  util::Rng rng(2);
  DecisionTree tree;
  tree.fit(d, {}, rng);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.2}), 0.0, 1e-9);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.8}), 1.0, 1e-9);
}

TEST(DecisionTree, RespectsMaxDepth) {
  util::Rng rng(3);
  Dataset d = make_linear_dataset(200, rng);
  TreeConfig config;
  config.max_depth = 3;
  DecisionTree tree;
  tree.fit(d, config, rng);
  EXPECT_LE(tree.depth(), 4u);  // depth counts nodes; root at depth 1
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTree tree;
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}), std::logic_error);
}

TEST(DecisionTree, EmptyFitThrows) {
  Dataset d(1);
  util::Rng rng(4);
  DecisionTree tree;
  EXPECT_THROW(tree.fit(d, {}, rng), std::invalid_argument);
}

TEST(DecisionTree, ReducesErrorVsMeanPredictor) {
  util::Rng rng(5);
  Dataset d = make_linear_dataset(300, rng);
  DecisionTree tree;
  tree.fit(d, {}, rng);
  double mean = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) mean += d.target(i);
  mean /= static_cast<double>(d.size());
  double tree_err = 0.0, mean_err = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double p = tree.predict(d.features(i));
    tree_err += (p - d.target(i)) * (p - d.target(i));
    mean_err += (mean - d.target(i)) * (mean - d.target(i));
  }
  EXPECT_LT(tree_err, 0.2 * mean_err);
}

TEST(RandomForest, FitsLinearFunctionWell) {
  util::Rng rng(6);
  Dataset d = make_linear_dataset(500, rng);
  ForestConfig config;
  config.num_trees = 20;
  RandomForest forest(config);
  forest.fit(d, rng);
  EXPECT_GT(RandomForest::r_squared(forest, d), 0.9);
}

TEST(RandomForest, GeneralizesOnHeldOut) {
  util::Rng rng(7);
  Dataset train = make_linear_dataset(800, rng);
  ForestConfig config;
  config.num_trees = 24;
  RandomForest forest(config);
  forest.fit(train, rng);
  // Held-out points from the same function.
  double err = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform();
    const double y = 2.0 * x0 - 3.0 * x1 + 1.0;
    const double p = forest.predict(std::vector<double>{x0, x1});
    err += (p - y) * (p - y);
  }
  EXPECT_LT(err / 100.0, 0.05);
}

TEST(RandomForest, DeterministicGivenSeed) {
  util::Rng rng1(8), rng2(8);
  Dataset d = make_linear_dataset(200, rng1);
  util::Rng fit1(99), fit2(99);
  RandomForest f1, f2;
  f1.fit(d, fit1);
  f2.fit(d, fit2);
  util::Rng probe(100);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> x{probe.uniform(), probe.uniform()};
    EXPECT_DOUBLE_EQ(f1.predict(x), f2.predict(x));
  }
}

TEST(RandomForest, EmptyDatasetThrows) {
  Dataset d(2);
  util::Rng rng(9);
  RandomForest f;
  EXPECT_THROW(f.fit(d, rng), std::invalid_argument);
}

TEST(RandomForest, PredictBeforeFitThrows) {
  RandomForest f;
  EXPECT_THROW(f.predict(std::vector<double>{1.0, 2.0}), std::logic_error);
}

TEST(RandomForest, RSquaredPerfectOnConstant) {
  Dataset d(1);
  for (int i = 0; i < 30; ++i) d.add({static_cast<double>(i)}, 5.0);
  util::Rng rng(10);
  RandomForest f;
  f.fit(d, rng);
  EXPECT_DOUBLE_EQ(RandomForest::r_squared(f, d), 1.0);
}

// Property sweep: the forest must beat the mean predictor on a variety of
// nonlinear targets (the Eval function's job is exactly this kind of
// regression).
class ForestTargetSweep : public ::testing::TestWithParam<int> {};

TEST_P(ForestTargetSweep, BeatsMeanPredictor) {
  const int kind = GetParam();
  util::Rng rng(50 + kind);
  Dataset d(3);
  for (int i = 0; i < 400; ++i) {
    const double x0 = rng.uniform(), x1 = rng.uniform(), x2 = rng.uniform();
    double y = 0.0;
    switch (kind) {
      case 0: y = x0 * x1; break;
      case 1: y = std::sin(6.28 * x0) + x2; break;
      case 2: y = (x0 > 0.5 ? 1.0 : 0.0) * (x1 > 0.5 ? 1.0 : 0.0); break;
      case 3: y = std::abs(x0 - x1) + 0.1 * x2; break;
    }
    d.add({x0, x1, x2}, y);
  }
  ForestConfig config;
  config.num_trees = 16;
  RandomForest forest(config);
  forest.fit(d, rng);
  EXPECT_GT(RandomForest::r_squared(forest, d), 0.5) << "kind=" << kind;
}

INSTANTIATE_TEST_SUITE_P(Targets, ForestTargetSweep,
                         ::testing::Values(0, 1, 2, 3));

// A tie-heavy dataset shaped like MOELA's NoC features: a one-hot block, a
// complementary one-hot pair, small-integer counts, a two-level column and
// two columns that never vary. With bootstrap duplicates on top, nearly
// every split candidate sits among equal keys, so the order in which the
// split search visits tied samples decides every prefix sum, and the
// complementary pair ties exactly in real arithmetic, so rounding alone
// picks between them.
Dataset make_tie_heavy_dataset(std::size_t n, util::Rng& rng) {
  Dataset d(12);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(12, 0.0);
    x[rng.below(4)] = 1.0;
    x[4 + rng.below(2)] = 1.0;
    x[6] = static_cast<double>(rng.below(5));
    x[7] = static_cast<double>(rng.below(3));
    x[8] = 1.0;
    x[10] = 0.5 * static_cast<double>(rng.below(2));
    x[11] = static_cast<double>(rng.below(4));
    const double y = 3.0 * x[0] + x[4] - 0.25 * x[6] + x[7] * x[10] +
                     0.1 * static_cast<double>(rng.below(4));
    d.add(std::move(x), y);
  }
  return d;
}

TEST(RandomForest, TieOrderPinnedOnTieHeavyData) {
  // Generated by the straightforward index-sorting split search; a faster
  // split search must reproduce every bit.
  const std::vector<std::string> expected = {
      "0x1.25c28f5c28f5dp-1",
      "0x1.6b528a6528a65p+0",
      "0x1.affa9c4b73df9p+1",
      "-0x1.069536202ecfbp-1",
      "0x1.97b1b1b1b1b1bp+1",
      "-0x1.251eb851eb852p-1",
      "0x1.622bc55ef8923p+1",
      "0x1.39a04fdad3831p+1",
      "0x1.6b528a6528a65p+0",
      "0x1.f6639b7639b78p+0",
  };
  util::Rng data_rng(41);
  const Dataset d = make_tie_heavy_dataset(160, data_rng);
  ForestConfig config;
  config.num_trees = 8;
  RandomForest forest(config);
  util::Rng fit_rng(42);
  forest.fit(d, fit_rng);
  const Dataset probes = make_tie_heavy_dataset(10, data_rng);
  std::vector<std::string> actual;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    actual.push_back(util::hexfloat(forest.predict(probes.features(i))));
  }
  EXPECT_EQ(actual, expected);
}

// A training window laid out like MOELA's Eval samples on a 10-tile
// platform: a one-hot PE-type block, router degrees 1-7, link counts, then
// continuous objective columns and few-valued weight columns. About a fifth
// of the rows repeat an earlier row's features. The base target g lies in
// roughly [0, 6]; `shape` maps it onto values whose sums are hard on
// rounding.
enum class TargetShape {
  kPlain,      // g
  kOffset,     // 1e9 + 1e-4 g: a huge common offset, a tiny spread
  kMixedSign,  // 1e3 (g - 3): sums cancel
  kTiny,       // 1e-140 g: squares underflow
};

Dataset make_noc_shaped_dataset(std::size_t n, TargetShape shape,
                                util::Rng& rng) {
  constexpr std::size_t kTiles = 10;
  constexpr std::size_t kDegrees = 3 * kTiles;
  constexpr std::size_t kCounts = kDegrees + kTiles;
  constexpr std::size_t kObjectives = kCounts + 3;
  constexpr std::size_t kWeights = kObjectives + 3;
  constexpr std::size_t kWidth = kWeights + 3;
  Dataset d(kWidth);
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(kWidth, 0.0);
    if (!rows.empty() && rng.chance(0.2)) {
      x = rows[rng.below(rows.size())];
    } else {
      for (std::size_t t = 0; t < kTiles; ++t) x[3 * t + rng.below(3)] = 1.0;
      for (std::size_t t = 0; t < kTiles; ++t) {
        x[kDegrees + t] = static_cast<double>(1 + rng.below(7));
      }
      for (std::size_t k = kCounts; k < kObjectives; ++k) {
        x[k] = static_cast<double>(rng.below(6));
      }
      for (std::size_t k = kObjectives; k < kWeights; ++k) {
        x[k] = rng.uniform(0.2, 1.5);
      }
      for (std::size_t k = kWeights; k < kWidth; ++k) {
        x[k] = 0.25 * static_cast<double>(rng.below(5));
      }
    }
    rows.push_back(x);
    const double g = x[0] + 0.3 * x[kDegrees + 2] - 0.2 * x[kCounts] +
                     x[kObjectives] * x[kWeights] + x[kObjectives + 1] +
                     0.05 * static_cast<double>(rng.below(8));
    double y = g;
    switch (shape) {
      case TargetShape::kPlain: break;
      case TargetShape::kOffset: y = 1e9 + 1e-4 * g; break;
      case TargetShape::kMixedSign: y = 1e3 * (g - 3.0); break;
      case TargetShape::kTiny: y = 1e-140 * g; break;
    }
    d.add(std::move(x), y);
  }
  return d;
}

TEST(RandomForest, SplitSearchPinnedOnRoundingHostileData) {
  // Generated by the sort-every-sampled-feature split search; a faster
  // split search must reproduce every bit. One line per case: the hexfloat
  // predictions at six probe rows.
  struct Case {
    TargetShape shape;
    std::size_t min_samples_leaf;
    bool all_features;
  };
  const std::vector<Case> cases = {
      {TargetShape::kPlain, 2, false},     {TargetShape::kPlain, 1, true},
      {TargetShape::kPlain, 3, false},     {TargetShape::kOffset, 2, false},
      {TargetShape::kOffset, 1, true},     {TargetShape::kMixedSign, 1, false},
      {TargetShape::kMixedSign, 3, true},  {TargetShape::kTiny, 2, false},
  };
  const std::vector<std::string> expected = {
      "0x1.af671ba447216p+1 0x1.dab57132891dfp+0 0x1.2e1b28abd06f8p+1 "
      "0x1.f516c26838d23p+0 0x1.199f55da986e2p+1 0x1.199f55da986e2p+1",
      "0x1.1ea069d34489dp+1 0x1.1ea069d34489dp+1 0x1.68886ffc9239p+1 "
      "0x1.e6603b36e9904p+1 0x1.e9351b4615a78p+0 0x1.0b5e9cfcc4bdcp+1",
      "0x1.9a18d2acfef89p+1 0x1.e41ebfa13e02fp+0 0x1.addbff1531a55p+1 "
      "0x1.6c6a6df21d6a7p+1 0x1.34bd1aaef6fb3p+1 0x1.69ad611cf20bfp+1",
      "0x1.dcd650000094cp+29 0x1.dcd6500000874p+29 0x1.dcd6500000874p+29 "
      "0x1.dcd6500000874p+29 0x1.dcd6500000705p+29 0x1.dcd65000006eap+29",
      "0x1.dcd65000008dp+29 0x1.dcd6500000a19p+29 0x1.dcd65000008dp+29 "
      "0x1.dcd65000008dp+29 0x1.dcd65000005c8p+29 0x1.dcd6500000764p+29",
      "-0x1.485f68abcf053p+10 -0x1.a908b5437b9a3p+9 -0x1.a908b5437b9a3p+9 "
      "-0x1.a908b5437b9a3p+9 0x1.fde5d07ca03a2p+4 -0x1.1ee9a61282c26p+7",
      "0x1.2c5d8c6aa5ea1p+8 -0x1.c21e71e65536bp+8 0x1.15147362de71fp+7 "
      "0x1.c69d29df51394p+9 -0x1.8f2b26a43f64dp+4 -0x1.00837fb88eef3p+8",
      "0x1.1beb208ec4c01p-464 0x1.1beb208ec4c01p-464 0x1.1beb208ec4c01p-464 "
      "0x1.1beb208ec4c01p-464 0x1.1beb208ec4c01p-464 0x1.1beb208ec4c01p-464",
  };
  std::vector<std::string> actual;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    util::Rng data_rng(70 + c);
    const Dataset d = make_noc_shaped_dataset(330, cases[c].shape, data_rng);
    const Dataset probes = make_noc_shaped_dataset(6, cases[c].shape, data_rng);
    ForestConfig config;
    config.num_trees = 4;
    config.min_samples_leaf = cases[c].min_samples_leaf;
    if (cases[c].all_features) config.max_features = d.num_features();
    RandomForest forest(config);
    util::Rng fit_rng(80 + c);
    forest.fit(d, fit_rng);
    std::string line;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      if (!line.empty()) line += ' ';
      line += util::hexfloat(forest.predict(probes.features(i)));
    }
    actual.push_back(line);
  }
  EXPECT_EQ(actual, expected);
}

TEST(DecisionTree, AllColumnsConstantAtRootGivesSingleLeaf) {
  Dataset d(3);
  double sum = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double y = 0.5 * static_cast<double>(i % 7);
    sum += y;
    d.add({1.0, 0.0, 4.0}, y);
  }
  util::Rng rng(11);
  DecisionTree tree;
  tree.fit(d, {}, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{1.0, 0.0, 4.0}), sum / 20.0);
  EXPECT_EQ(tree.predict(std::vector<double>{9.0, 9.0, 9.0}), sum / 20.0);
}

}  // namespace
}  // namespace moela::ml
