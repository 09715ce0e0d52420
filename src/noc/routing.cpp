#include "noc/routing.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace moela::noc {

RouteTree::RouteTree(const PlatformSpec& spec, const NocDesign& design)
    : n_(spec.num_tiles()),
      words_((n_ + 63) / 64),
      rows_(n_ * words_, 0),
      link_of_(n_ * n_),
      degree_(n_, 0),
      seen_(words_, 0),
      parent_(n_, 0),
      link_(n_, 0),
      queue_(n_) {
  for (std::size_t k = 0; k < design.links.size(); ++k) {
    const Link& l = design.links[k];
    rows_[l.a * words_ + l.b / 64] |= std::uint64_t{1} << (l.b % 64);
    rows_[l.b * words_ + l.a / 64] |= std::uint64_t{1} << (l.a % 64);
    link_of_[l.a * n_ + l.b] = static_cast<std::uint32_t>(k);
    link_of_[l.b * n_ + l.a] = static_cast<std::uint32_t>(k);
    ++degree_[l.a];
    ++degree_[l.b];
  }
}

void RouteTree::build(TileId source) {
  source_ = source;
  std::fill(seen_.begin(), seen_.end(), 0);
  parent_[source] = source;
  seen_[source / 64] |= std::uint64_t{1} << (source % 64);
  queue_[0] = source;
  std::size_t tail = 1;
  for (std::size_t head = 0; head < tail; ++head) {
    const TileId u = queue_[head];
    const std::uint64_t* row = rows_.data() + u * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t fresh = row[w] & ~seen_[w];
      seen_[w] |= fresh;
      for (; fresh != 0; fresh &= fresh - 1) {
        const auto v =
            static_cast<TileId>(w * 64 + std::countr_zero(fresh));
        parent_[v] = u;
        link_[v] = link_of_[u * n_ + v];
        queue_[tail++] = v;
      }
    }
  }
}

bool RouteTree::connected() {
  if (n_ == 0) return true;
  build(0);
  std::size_t reached = 0;
  for (const std::uint64_t word : seen_) reached += std::popcount(word);
  return reached == n_;
}

int RouteTree::hops(TileId t) const {
  if (!reached(t)) return -1;
  int count = 0;
  for_each_hop(t, [&](TileId, TileId, std::uint32_t) { ++count; });
  return count;
}

std::vector<TileId> RouteTree::path(TileId t) const {
  std::vector<TileId> out;
  for_each_hop(t, [&](TileId, TileId b, std::uint32_t) { out.push_back(b); });
  out.push_back(source_);
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace moela::noc
