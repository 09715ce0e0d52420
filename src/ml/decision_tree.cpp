#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace moela::ml {

namespace {

/// One sample of a node as its split search sees it: the candidate feature's
/// value and the target, gathered side by side.
struct KeyTarget {
  double x;
  double y;
};

double mean_target(const std::vector<double>& targets,
                   std::span<const std::size_t> idx) {
  double s = 0.0;
  for (std::size_t i : idx) s += targets[i];
  return idx.empty() ? 0.0 : s / static_cast<double>(idx.size());
}

/// Finds the best (threshold, SSE) split of `idx` on `feature`. Returns
/// infinity SSE when no valid split exists (all values equal or leaf bound).
struct SplitResult {
  double sse = std::numeric_limits<double>::infinity();
  double threshold = 0.0;
};

SplitResult best_split_on_feature(const double* feature, const double* targets,
                                  std::span<const std::size_t> idx,
                                  std::size_t min_samples_leaf,
                                  std::vector<KeyTarget>& pairs) {
  // Gather in `idx` order (never empty: nodes are built on non-empty
  // ranges). std::sort's permutation depends only on its input order and
  // its comparison outcomes, so sorting the gathered pairs by x alone visits
  // tied samples exactly as sorting the indices would.
  const double first = feature[idx.front()];
  bool constant = true;
  pairs.resize(idx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const std::size_t i = idx[k];
    pairs[k] = {feature[i], targets[i]};
    constant &= feature[i] == first;
  }
  // No boundary between distinct values: the scan below would find none.
  if (constant) return {};
  std::sort(pairs.begin(), pairs.end(),
            [](const KeyTarget& a, const KeyTarget& b) { return a.x < b.x; });

  const std::size_t n = pairs.size();
  // Prefix sums allow O(1) SSE of each side:
  //   SSE = sum(y^2) - (sum y)^2 / n.
  double left_sum = 0.0, left_sq = 0.0;
  double total_sum = 0.0, total_sq = 0.0;
  for (const KeyTarget& p : pairs) {
    total_sum += p.y;
    total_sq += p.y * p.y;
  }

  SplitResult best;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double y = pairs[k].y;
    left_sum += y;
    left_sq += y * y;
    const double xk = pairs[k].x;
    const double xn = pairs[k + 1].x;
    if (xk == xn) continue;  // cannot split between equal values
    const std::size_t nl = k + 1;
    const std::size_t nr = n - nl;
    if (nl < min_samples_leaf || nr < min_samples_leaf) continue;
    const double right_sum = total_sum - left_sum;
    const double right_sq = total_sq - left_sq;
    const double sse_l = left_sq - left_sum * left_sum / static_cast<double>(nl);
    const double sse_r =
        right_sq - right_sum * right_sum / static_cast<double>(nr);
    const double sse = sse_l + sse_r;
    if (sse < best.sse) {
      best.sse = sse;
      best.threshold = 0.5 * (xk + xn);
    }
  }
  return best;
}

}  // namespace

DecisionTree::Columns::Columns(const Dataset& data)
    : rows(data.size()),
      num_features(data.num_features()),
      x(rows * num_features),
      y(rows) {
  for (std::size_t i = 0; i < rows; ++i) {
    const auto row = data.features(i);
    for (std::size_t f = 0; f < num_features; ++f) x[f * rows + i] = row[f];
    y[i] = data.target(i);
  }
}

/// The columns and settings of one fit, the sample indices its nodes
/// partition in place, and the gather buffer every node's split search
/// reuses.
struct DecisionTree::Grower {
  const Columns& data;
  const TreeConfig& config;
  util::Rng& rng;
  std::vector<Node>& nodes;
  std::vector<std::size_t> indices;
  std::vector<KeyTarget> pairs;

  std::size_t grow(std::size_t begin, std::size_t end, std::size_t depth);
};

void DecisionTree::fit(const Dataset& data,
                       std::span<const std::size_t> sample_indices,
                       const TreeConfig& config, util::Rng& rng) {
  fit(Columns(data), sample_indices, config, rng);
}

void DecisionTree::fit(const Dataset& data, const TreeConfig& config,
                       util::Rng& rng) {
  std::vector<std::size_t> all(data.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  fit(data, all, config, rng);
}

void DecisionTree::fit(const Columns& data,
                       std::span<const std::size_t> sample_indices,
                       const TreeConfig& config, util::Rng& rng) {
  if (sample_indices.empty()) {
    throw std::invalid_argument("DecisionTree::fit: no samples");
  }
  nodes_.clear();
  Grower grower{data, config, rng, nodes_,
                  {sample_indices.begin(), sample_indices.end()}, {}};
  grower.grow(0, grower.indices.size(), 0);
}

std::size_t DecisionTree::Grower::grow(std::size_t begin, std::size_t end,
                                         std::size_t depth) {
  const std::size_t node_id = nodes.size();
  nodes.emplace_back();
  std::span<const std::size_t> idx(indices.data() + begin, end - begin);
  const double value = mean_target(data.y, idx);
  nodes[node_id].value = value;

  const std::size_t n = end - begin;
  bool make_leaf = depth >= config.max_depth || n < config.min_samples_split;
  if (!make_leaf) {
    // Leaf if targets are (numerically) constant.
    bool constant = true;
    for (std::size_t i : idx) {
      if (std::abs(data.y[i] - value) > 1e-12) {
        constant = false;
        break;
      }
    }
    make_leaf = constant;
  }
  if (make_leaf) return node_id;

  // Candidate features: a random subset of size max_features (forest mode)
  // or all features.
  const std::size_t f = data.num_features;
  std::vector<std::size_t> feats;
  if (config.max_features == 0 || config.max_features >= f) {
    feats.resize(f);
    std::iota(feats.begin(), feats.end(), std::size_t{0});
  } else {
    feats = rng.sample_indices(f, config.max_features);
  }

  SplitResult best;
  std::size_t best_feature = Node::kLeaf;
  for (std::size_t feature : feats) {
    const SplitResult r =
        best_split_on_feature(data.feature(feature), data.y.data(), idx,
                              config.min_samples_leaf, pairs);
    if (r.sse < best.sse) {
      best = r;
      best_feature = feature;
    }
  }
  if (best_feature == Node::kLeaf) return node_id;  // no valid split found

  // Partition [begin, end) in place around the chosen threshold.
  const double* column = data.feature(best_feature);
  auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t i) { return column[i] <= best.threshold; });
  const auto mid =
      static_cast<std::size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate partition

  nodes[node_id].feature = best_feature;
  nodes[node_id].threshold = best.threshold;
  const std::size_t left = grow(begin, mid, depth + 1);
  const std::size_t right = grow(mid, end, depth + 1);
  nodes[node_id].left = left;
  nodes[node_id].right = right;
  return node_id;
}

double DecisionTree::predict(std::span<const double> features) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::predict before fit");
  }
  std::size_t node = 0;
  while (nodes_[node].feature != Node::kLeaf) {
    node = features[nodes_[node].feature] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node].value;
}

std::size_t DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the implicit tree structure.
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 1}};
  std::size_t max_depth = 0;
  while (!stack.empty()) {
    auto [node, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    if (nodes_[node].feature != Node::kLeaf) {
      stack.push_back({nodes_[node].left, d + 1});
      stack.push_back({nodes_[node].right, d + 1});
    }
  }
  return max_depth;
}

}  // namespace moela::ml
