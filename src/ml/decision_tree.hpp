// CART regression tree: axis-aligned binary splits minimizing the sum of
// squared errors, grown depth-first with the usual stopping rules.
//
// The tree is the base learner of the random forest that implements MOELA's
// (and MOO-STAGE's) learned evaluation function. Exact split search over all
// candidate thresholds of a random feature subset per node. The search reads
// a column-major copy of the training window, made once per fit (once per
// forest when a RandomForest drives the fit). Each node first bounds every
// sampled feature's best SSE with an order-free bucket estimate, then runs
// the exact sorted scan only on the features that could still win
// (docs/correctness.md, "Rules that keep the split search exact").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace moela::ml {

struct TreeConfig {
  std::size_t max_depth = 16;
  std::size_t min_samples_leaf = 2;
  std::size_t min_samples_split = 4;
  /// Number of features examined per node; 0 means all features
  /// (set by the forest to ~f/3 for regression, the standard default).
  std::size_t max_features = 0;
};

class DecisionTree {
 public:
  /// Fits the tree to `data` restricted to `sample_indices` (the forest
  /// passes a bootstrap sample; pass all indices for a plain tree).
  void fit(const Dataset& data, std::span<const std::size_t> sample_indices,
           const TreeConfig& config, util::Rng& rng);

  /// Convenience overload over the full dataset.
  void fit(const Dataset& data, const TreeConfig& config, util::Rng& rng);

  double predict(std::span<const double> features) const;

  bool trained() const { return !nodes_.empty(); }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const;

 private:
  struct Node {
    // Leaf iff feature == kLeaf; then `value` is the prediction.
    static constexpr std::size_t kLeaf = static_cast<std::size_t>(-1);
    std::size_t feature = kLeaf;
    double threshold = 0.0;  // go left if x[feature] <= threshold
    double value = 0.0;
    std::size_t left = 0;
    std::size_t right = 0;
  };

  friend class RandomForest;

  /// Column-major copy of a Dataset window: feature f of sample i is
  /// x[f * rows + i]. Each node's split search gathers from one contiguous
  /// column instead of chasing one heap row per sample. rank[f * rows + i]
  /// is sample i's position among column f's distinct values (values equal
  /// under == share a rank) and distinct[f] their count; a column holding
  /// a NaN has no ranks (distinct[f] == 0).
  struct Columns {
    explicit Columns(const Dataset& data);
    const double* feature(std::size_t f) const { return x.data() + f * rows; }
    const std::uint32_t* ranks(std::size_t f) const {
      return rank.data() + f * rows;
    }

    std::size_t rows;
    std::size_t num_features;
    std::vector<double> x;
    std::vector<double> y;
    std::vector<std::uint32_t> rank;
    std::vector<std::uint32_t> distinct;
  };

  /// One fit's working state (defined in decision_tree.cpp).
  struct Grower;

  void fit(const Columns& data, std::span<const std::size_t> sample_indices,
           const TreeConfig& config, util::Rng& rng);

  std::vector<Node> nodes_;
};

}  // namespace moela::ml
