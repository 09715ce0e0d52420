// Deterministic shortest-path routing over an (irregular) link placement,
// and the graph the Sec. III feasibility rules read (router degree,
// connectivity).
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

/// The NoC layer's one graph structure: minimal-hop routes out of one
/// source tile at a time, router degrees and connectivity. The constructor
/// indexes the design once: a neighbor bit row per tile (ceil(n/64) words),
/// the link joining each linked tile pair (the later of duplicate links)
/// and each router's degree (a duplicate link counts twice). build(s) then
/// grows the BFS tree rooted at s, reusing the tree buffers of the previous
/// source.
class RouteTree {
 public:
  RouteTree(const PlatformSpec& spec, const NocDesign& design);

  /// Replaces the current tree with the one rooted at `source`: tiles are
  /// popped in queue order and each takes its unvisited neighbors in
  /// ascending id, so every tile's parent is deterministic.
  void build(TileId source);

  /// Links traversed from the source to t (0 for t == source); negative
  /// when t is unreachable.
  int hops(TileId t) const;

  /// The tile sequence source -> ... -> t along the tree.
  std::vector<TileId> path(TileId t) const;

  /// Invokes fn(a, b, k) for each hop a -> b of the route source -> t,
  /// from t back to the source; k is the index in design.links of the link
  /// joining a and b. Throws std::logic_error when t is unreachable.
  template <typename Fn>
  void for_each_hop(TileId t, Fn&& fn) const {
    if (!reached(t)) throw std::logic_error("RouteTree: no route to tile");
    for (TileId cur = t; cur != source_;) {
      const TileId prev = parent_[cur];
      fn(prev, cur, link_[cur]);
      cur = prev;
    }
  }

  /// Router degree (port count toward other routers).
  std::size_t degree(TileId t) const { return degree_[t]; }
  /// True if every tile can reach every other (vacuously for zero tiles).
  /// Grows the tree rooted at tile 0, replacing the current one.
  bool connected();
  std::size_t num_tiles() const { return n_; }

 private:
  bool reached(TileId t) const { return (seen_[t / 64] >> (t % 64)) & 1; }

  std::size_t n_;
  std::size_t words_;                   // 64-bit words per neighbor row
  std::vector<std::uint64_t> rows_;     // [t * words_ + w]
  std::vector<std::uint32_t> link_of_;  // [a * n_ + b], both orders
  std::vector<std::uint32_t> degree_;

  // The tree rooted at source_, rebuilt by build().
  TileId source_ = 0;
  std::vector<std::uint64_t> seen_;  // bit t: t is in the tree
  std::vector<TileId> parent_;
  std::vector<std::uint32_t> link_;  // link from parent_[t] into t
  std::vector<TileId> queue_;
};

}  // namespace moela::noc
