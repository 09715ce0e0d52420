#include "noc/routing.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace moela::noc {

RoutingTable::RoutingTable(const PlatformSpec& spec, const NocDesign& design)
    : n_(spec.num_tiles()),
      dist_(n_ * n_, -1),
      parent_(n_ * n_, 0) {
  const Adjacency adj(spec, design.links);
  std::deque<TileId> queue;
  for (TileId s = 0; s < n_; ++s) {
    dist_[index(s, s)] = 0;
    parent_[index(s, s)] = s;
    queue.clear();
    queue.push_back(s);
    while (!queue.empty()) {
      const TileId u = queue.front();
      queue.pop_front();
      const int du = dist_[index(s, u)];
      // Ascending neighbor order gives the deterministic tie-break.
      for (TileId v : adj.neighbors(u)) {
        if (dist_[index(s, v)] < 0) {
          dist_[index(s, v)] = du + 1;
          parent_[index(s, v)] = u;
          queue.push_back(v);
        }
      }
    }
  }
}

std::vector<TileId> RoutingTable::path(TileId s, TileId t) const {
  if (dist_[index(s, t)] < 0) {
    throw std::logic_error("RoutingTable::path: unreachable pair");
  }
  std::vector<TileId> out;
  TileId cur = t;
  while (cur != s) {
    out.push_back(cur);
    cur = parent_[index(s, cur)];
  }
  out.push_back(s);
  std::reverse(out.begin(), out.end());
  return out;
}

LinkIndex::LinkIndex(const std::vector<Link>& links)
    : size_(links.size()), tiles_(0) {
  for (const Link& l : links) {
    tiles_ = std::max<std::size_t>(tiles_, std::size_t{l.b} + 1);
  }
  table_.assign(tiles_ * tiles_, kNone);
  for (std::size_t k = 0; k < links.size(); ++k) {
    table_[links[k].a * tiles_ + links[k].b] = static_cast<std::uint32_t>(k);
  }
}

}  // namespace moela::noc
