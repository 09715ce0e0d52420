// Random-forest regression: bagged CART trees with per-node feature
// subsampling (Breiman 2001).
//
// This is the model behind MOELA's learned evaluation function Eval
// (Sec. IV.B: "we employ a random forest model, which is an ensemble model
// that uses the average output from a collection of decision trees").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "util/rng.hpp"

namespace moela::ml {

struct ForestConfig {
  std::size_t num_trees = 24;
  /// Features per split; 0 = max(1, num_features / 3), the regression
  /// default.
  std::size_t max_features = 0;
  std::size_t max_depth = 16;
  std::size_t min_samples_leaf = 2;
  std::size_t min_samples_split = 4;
  /// Bootstrap-sample fraction of the training set per tree.
  double subsample = 1.0;
};

class RandomForest {
 public:
  explicit RandomForest(ForestConfig config = {}) : config_(config) {}

  /// Fits all trees on bootstrap samples of `data`.
  void fit(const Dataset& data, util::Rng& rng);

  /// Mean prediction across trees.
  double predict(std::span<const double> features) const;

  bool trained() const { return !trees_.empty(); }
  std::size_t num_trees() const { return trees_.size(); }

  /// Training-set R^2 (coefficient of determination); a quick sanity signal
  /// used by tests and diagnostics.
  static double r_squared(const RandomForest& model, const Dataset& data);

 private:
  ForestConfig config_;
  std::vector<DecisionTree> trees_;
};

}  // namespace moela::ml
