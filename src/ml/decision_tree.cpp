#include "ml/decision_tree.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

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

/// SSE of a split with `nl` samples on the left and `nr` on the right,
/// from the left side's target sum and sum of squares and the node's:
///   SSE = sum(y^2) - (sum y)^2 / n on each side.
inline double split_sse(double left_sum, double left_sq, std::size_t nl,
                        double total_sum, double total_sq, std::size_t nr) {
  const double right_sum = total_sum - left_sum;
  const double right_sq = total_sq - left_sq;
  const double sse_l = left_sq - left_sum * left_sum / static_cast<double>(nl);
  const double sse_r =
      right_sq - right_sum * right_sum / static_cast<double>(nr);
  return sse_l + sse_r;
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
  // Prefix sums give each boundary's SSE in O(1).
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
    const double sse =
        split_sse(left_sum, left_sq, nl, total_sum, total_sq, nr);
    if (sse < best.sse) {
      best.sse = sse;
      best.threshold = 0.5 * (xk + xn);
    }
  }
  return best;
}

/// A column value and the row holding it, for ranking a column.
struct ValueRow {
  double x;
  std::uint32_t row;
};

/// Sorts NaN-free `a` by value (-0.0 and 0.0 adjacent, in either order):
/// an LSD radix sort over the bytes of an order-preserving integer image of
/// each value, skipping the bytes every value shares. `scratch` is a
/// same-sized buffer.
void radix_sort(std::vector<ValueRow>& a, std::vector<ValueRow>& scratch) {
  const auto key = [](double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    return bits >> 63 != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
  };
  std::uint32_t count[8][256] = {};
  for (const ValueRow& e : a) {
    const std::uint64_t k = key(e.x);
    for (int d = 0; d < 8; ++d) ++count[d][(k >> (8 * d)) & 0xff];
  }
  for (int d = 0; d < 8; ++d) {
    std::uint32_t* c = count[d];
    if (c[(key(a.front().x) >> (8 * d)) & 0xff] == a.size()) continue;
    std::uint32_t offset = 0;
    for (int b = 0; b < 256; ++b) offset += std::exchange(c[b], offset);
    for (const ValueRow& e : a) scratch[c[(key(e.x) >> (8 * d)) & 0xff]++] = e;
    a.swap(scratch);
  }
}

/// One rank's share of a node in the split estimate: how many of the
/// node's samples hold that value, and the sums of their targets.
struct Bucket {
  std::size_t count;
  double sum;
  double sq;
};

/// Bound-and-verify state of one sampled feature: no split on it has an
/// SSE below `lower`; `exact` is its exact scan's result once `known`.
struct Candidate {
  double lower;
  SplitResult exact;
  bool known;
};

/// The estimate's rounding bound, err = 128 * n * u * S1^2, holds only
/// while every product of targets stays in the normal range: a node whose
/// S1^2 lies outside [kMinScale, kMaxScale] (or is NaN) scans every
/// feature exactly. docs/correctness.md derives both.
constexpr double kUnitRoundoff = 0x1p-53;
constexpr double kErrFactor = 128.0;
constexpr double kMinScale = 0x1p-900;
constexpr double kMaxScale = 0x1p+1000;

}  // namespace

DecisionTree::Columns::Columns(const Dataset& data)
    : rows(data.size()),
      num_features(data.num_features()),
      x(rows * num_features),
      y(rows),
      rank(rows * num_features),
      distinct(num_features, 0) {
  for (std::size_t i = 0; i < rows; ++i) {
    const auto row = data.features(i);
    for (std::size_t f = 0; f < num_features; ++f) x[f * rows + i] = row[f];
    y[i] = data.target(i);
  }
  std::vector<ValueRow> order(rows), scratch(rows);
  for (std::size_t f = 0; f < num_features; ++f) {
    const double* column = feature(f);
    bool has_nan = false;
    for (std::size_t i = 0; i < rows; ++i) {
      order[i] = {column[i], static_cast<std::uint32_t>(i)};
      has_nan |= std::isnan(column[i]);
    }
    if (has_nan || rows == 0) continue;
    radix_sort(order, scratch);
    std::uint32_t* r = rank.data() + f * rows;
    std::uint32_t next = 0;
    for (std::size_t k = 0; k < rows; ++k) {
      if (k > 0 && order[k].x != order[k - 1].x) ++next;
      r[order[k].row] = next;
    }
    distinct[f] = next + 1;
  }
}

/// The columns and settings of one fit, the sample indices its nodes
/// partition in place, and the buffers every node's split search reuses.
struct DecisionTree::Grower {
  const Columns& data;
  const TreeConfig& config;
  util::Rng& rng;
  std::vector<Node>& nodes;
  std::vector<std::size_t> indices;
  std::vector<KeyTarget> pairs{};
  std::vector<double> targets{};
  std::vector<Bucket> buckets{};
  std::vector<Candidate> candidates{};

  std::size_t grow(std::size_t begin, std::size_t end, std::size_t depth);
  std::pair<std::size_t, SplitResult> best_split(
      std::span<const std::size_t> idx, const std::vector<std::size_t>& feats);
  double estimate(std::size_t feature, std::span<const std::size_t> idx,
                  double total_sum, double total_sq);
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
                {sample_indices.begin(), sample_indices.end()}};
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

  const auto [best_feature, best] = best_split(idx, feats);
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

/// The first feature in `feats` order whose exact scan reaches the node's
/// least SSE, with that scan's split: what scanning every feature exactly
/// would pick. Each feature's best SSE is first bracketed by an estimate
/// plus or minus `err`, or by its exact scan where no estimate applies.
/// A feature whose lower end exceeds the least upper end U cannot be that
/// first minimum (its SSE is above U, which some other feature's SSE does
/// not exceed), so only the others are scanned, in `feats` order.
std::pair<std::size_t, SplitResult> DecisionTree::Grower::best_split(
    std::span<const std::size_t> idx, const std::vector<std::size_t>& feats) {
  const std::size_t n = idx.size();
  targets.resize(n);
  double abs_sum = 0.0, total_sum = 0.0, total_sq = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double y = data.y[idx[k]];
    targets[k] = y;
    abs_sum += std::abs(y);
    total_sum += y;
    total_sq += y * y;
  }
  const double scale = abs_sum * abs_sum;
  const double err =
      kErrFactor * static_cast<double>(n) * kUnitRoundoff * scale;
  const bool bounded = scale >= kMinScale && scale <= kMaxScale;

  const auto scan = [&](std::size_t f) {
    return best_split_on_feature(data.feature(f), data.y.data(), idx,
                                 config.min_samples_leaf, pairs);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double least_upper = kInf;
  candidates.resize(feats.size());
  for (std::size_t c = 0; c < feats.size(); ++c) {
    const std::size_t f = feats[c];
    if (bounded && data.distinct[f] != 0 && data.distinct[f] <= n) {
      const double m = estimate(f, idx, total_sum, total_sq);
      // Both scans see the same boundaries (between distinct values, with
      // the same counts), so no boundary here means none there either.
      if (m == kInf) {
        candidates[c] = {kInf, {}, true};
        continue;
      }
      candidates[c] = {m - err, {}, false};
      least_upper = std::min(least_upper, m + err);
    } else {
      const SplitResult r = scan(f);
      candidates[c] = {r.sse, r, true};
      least_upper = std::min(least_upper, r.sse);
    }
  }

  SplitResult best;
  std::size_t best_feature = Node::kLeaf;
  for (std::size_t c = 0; c < feats.size(); ++c) {
    Candidate& candidate = candidates[c];
    if (!candidate.known) {
      if (candidate.lower > least_upper) continue;
      candidate.exact = scan(feats[c]);
    }
    if (candidate.exact.sse < best.sse) {
      best = candidate.exact;
      best_feature = feats[c];
    }
  }
  return {best_feature, best};
}

/// Least SSE over the boundaries between the node's distinct values of a
/// ranked feature (+inf when none leaves min_samples_leaf samples on both
/// sides), from per-rank target sums gathered in index order. It computes
/// what the exact scan computes, in a different summation order.
double DecisionTree::Grower::estimate(std::size_t feature,
                                      std::span<const std::size_t> idx,
                                      double total_sum, double total_sq) {
  const std::size_t n = idx.size();
  const std::uint32_t* rank = data.ranks(feature);
  // A column with one rank over the node has no boundary. Most one-hot
  // columns are constant below the first levels, and this read-only pass
  // costs far less than bucketing them.
  const std::uint32_t first = rank[idx.front()];
  if (std::all_of(idx.begin(), idx.end(),
                  [&](std::size_t i) { return rank[i] == first; })) {
    return std::numeric_limits<double>::infinity();
  }
  buckets.assign(data.distinct[feature], Bucket{});
  for (std::size_t k = 0; k < n; ++k) {
    Bucket& b = buckets[rank[idx[k]]];
    const double y = targets[k];
    ++b.count;
    b.sum += y;
    b.sq += y * y;
  }
  double best = std::numeric_limits<double>::infinity();
  std::size_t nl = 0;
  double left_sum = 0.0, left_sq = 0.0;
  for (const Bucket& b : buckets) {
    if (b.count == 0) continue;
    nl += b.count;
    if (nl == n) break;  // the last non-empty bucket: no boundary after it
    left_sum += b.sum;
    left_sq += b.sq;
    const std::size_t nr = n - nl;
    if (nl < config.min_samples_leaf || nr < config.min_samples_leaf) continue;
    best = std::min(best, split_sse(left_sum, left_sq, nl, total_sum,
                                    total_sq, nr));
  }
  return best;
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
