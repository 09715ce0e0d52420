// Deterministic shortest-path routing over an (irregular) link placement.
//
// The objective formulas of Sec. III need, for every communicating tile pair
// (i, j), the set of links (p_ijk) and routers (r_ijk) on the route. We use
// minimal-hop routing with a deterministic tie-break (BFS visiting neighbors
// in ascending tile order), which makes objective evaluation a pure function
// of the design.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "noc/design.hpp"
#include "noc/platform.hpp"

namespace moela::noc {

class RoutingTable {
 public:
  /// Builds single-source shortest-path trees from every tile. O(V(V+E)).
  RoutingTable(const PlatformSpec& spec, const NocDesign& design);

  /// Hop count between tiles (number of links traversed); 0 for s == t.
  /// Unreachable pairs (cannot occur for feasible designs) report a negative
  /// value.
  int hops(TileId s, TileId t) const {
    return dist_[index(s, t)];
  }

  /// The tile sequence s -> ... -> t along the deterministic minimal route.
  std::vector<TileId> path(TileId s, TileId t) const;

  /// Invokes fn(a, b) for each link (a, b) on the route s -> t, in order.
  template <typename Fn>
  void for_each_hop(TileId s, TileId t, Fn&& fn) const {
    // Walk the predecessor chain from t back to s (predecessors are with
    // respect to source s).
    TileId cur = t;
    while (cur != s) {
      const TileId prev = parent_[index(s, cur)];
      fn(prev, cur);
      cur = prev;
    }
  }

  std::size_t num_tiles() const { return n_; }

 private:
  std::size_t index(TileId s, TileId t) const {
    return static_cast<std::size_t>(s) * n_ + t;
  }

  std::size_t n_;
  std::vector<int> dist_;       // n x n
  std::vector<TileId> parent_;  // n x n, parent[s][t] on route from s
};

/// Maps each link of a canonical (sorted) link set to its index; used to
/// accumulate per-link utilization u_k. A dense tile-pair table makes each
/// lookup O(1) on the per-hop path of the traffic sweep.
class LinkIndex {
 public:
  explicit LinkIndex(const std::vector<Link>& links);

  /// Index of the link {a, b}; the link must exist in the set.
  std::size_t of(TileId a, TileId b) const {
    const Link key(a, b);
    const std::uint32_t k =
        key.b < tiles_ ? table_[key.a * tiles_ + key.b] : kNone;
    if (k == kNone) throw std::logic_error("LinkIndex::of: link not in set");
    return k;
  }

  std::size_t size() const { return size_; }

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  std::size_t size_;
  std::size_t tiles_;  // one past the largest tile id of any link
  std::vector<std::uint32_t> table_;  // [a * tiles_ + b] for a < b
};

}  // namespace moela::noc
