#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace moela::ml {

void RandomForest::fit(const Dataset& data, util::Rng& rng) {
  if (data.empty()) {
    throw std::invalid_argument("RandomForest::fit: empty dataset");
  }
  trees_.clear();
  trees_.reserve(config_.num_trees);

  TreeConfig tree_config;
  tree_config.max_depth = config_.max_depth;
  tree_config.min_samples_leaf = config_.min_samples_leaf;
  tree_config.min_samples_split = config_.min_samples_split;
  tree_config.max_features =
      config_.max_features != 0
          ? config_.max_features
          : std::max<std::size_t>(1, data.num_features() / 3);

  const auto n = data.size();
  const auto sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             config_.subsample * static_cast<double>(n))));

  // One column-major copy of the window serves every tree's split search.
  const DecisionTree::Columns columns(data);
  std::vector<std::size_t> bootstrap(sample_size);
  for (std::size_t t = 0; t < config_.num_trees; ++t) {
    for (auto& b : bootstrap) b = rng.below(n);  // with replacement
    DecisionTree tree;
    tree.fit(columns, bootstrap, tree_config, rng);
    trees_.push_back(std::move(tree));
  }
}

double RandomForest::predict(std::span<const double> features) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForest::predict before fit");
  }
  double s = 0.0;
  for (const auto& t : trees_) s += t.predict(features);
  return s / static_cast<double>(trees_.size());
}

double RandomForest::r_squared(const RandomForest& model,
                               const Dataset& data) {
  if (data.empty()) return 0.0;
  double mean = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) mean += data.target(i);
  mean /= static_cast<double>(data.size());
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double y = data.target(i);
    const double pred = model.predict(data.features(i));
    ss_res += (y - pred) * (y - pred);
    ss_tot += (y - mean) * (y - mean);
  }
  if (ss_tot <= 0.0) return ss_res <= 1e-12 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace moela::ml
