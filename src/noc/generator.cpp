#include "noc/generator.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "noc/routing.hpp"

namespace moela::noc {

namespace {

/// Union-find over tiles for the budgeted Kruskal construction.
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n) : parent_(n), rank_(n, 0) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> rank_;
};

}  // namespace

std::vector<CoreId> DesignOps::random_placement(util::Rng& rng) const {
  const auto& spec = *spec_;
  std::vector<CoreId> placement(spec.num_tiles(),
                                static_cast<CoreId>(spec.num_cores()));
  auto llcs = spec.cores_of_type(PeType::kLlc);
  auto edge = spec.edge_tiles();
  rng.shuffle(edge);
  for (std::size_t i = 0; i < llcs.size(); ++i) {
    placement[edge[i]] = llcs[i];
  }
  std::vector<CoreId> rest;
  for (CoreId c = 0; c < spec.num_cores(); ++c) {
    if (spec.core_type(c) != PeType::kLlc) rest.push_back(c);
  }
  rng.shuffle(rest);
  std::size_t next = 0;
  for (TileId t = 0; t < spec.num_tiles(); ++t) {
    if (placement[t] == spec.num_cores()) placement[t] = rest[next++];
  }
  return placement;
}

std::vector<Link> DesignOps::build_links(
    const std::vector<std::vector<Link>>& planar_pools,
    const std::vector<std::vector<Link>>& vertical_pools,
    util::Rng& rng) const {
  const auto& spec = *spec_;
  const auto max_degree =
      static_cast<std::size_t>(spec.max_router_degree());

  for (int attempt = 0; attempt < 32; ++attempt) {
    std::vector<Link> chosen;
    std::vector<std::size_t> degree(spec.num_tiles(), 0);
    std::size_t planar_used = 0, vertical_used = 0;
    DisjointSet dsu(spec.num_tiles());
    std::size_t components = spec.num_tiles();

    auto in_chosen = [&](const Link& l) {
      return std::find(chosen.begin(), chosen.end(), l) != chosen.end();
    };
    auto try_add = [&](const Link& l, bool is_planar, bool tree_only) {
      if (is_planar ? planar_used >= spec.num_planar_links()
                    : vertical_used >= spec.num_vertical_links()) {
        return false;
      }
      if (degree[l.a] >= max_degree || degree[l.b] >= max_degree) return false;
      if (in_chosen(l)) return false;
      if (tree_only && dsu.find(l.a) == dsu.find(l.b)) return false;
      if (dsu.unite(l.a, l.b)) --components;
      chosen.push_back(l);
      ++degree[l.a];
      ++degree[l.b];
      (is_planar ? planar_used : vertical_used) += 1;
      return true;
    };

    // Phase 0 — when the vertical budget equals the candidate count (the
    // paper's 48-TSV setup), every vertical link is mandatory: place them
    // all first so planar fills cannot saturate router degrees and make a
    // mandatory TSV unplaceable.
    if (spec.num_vertical_links() == spec.vertical_candidates().size()) {
      for (const Link& l : spec.vertical_candidates()) {
        try_add(l, /*is_planar=*/false, /*tree_only=*/false);
      }
    }

    // Phase 1 — spanning tree: sweep pools in preference order, shuffled
    // within each pool, accepting only component-joining edges. Planar and
    // vertical pools are interleaved per preference level so the tree can
    // use TSVs to cross layers.
    const std::size_t levels =
        std::max(planar_pools.size(), vertical_pools.size());
    for (std::size_t level = 0; level < levels && components > 1; ++level) {
      std::vector<std::pair<Link, bool>> pool;
      if (level < planar_pools.size()) {
        for (const Link& l : planar_pools[level]) pool.push_back({l, true});
      }
      if (level < vertical_pools.size()) {
        for (const Link& l : vertical_pools[level]) pool.push_back({l, false});
      }
      rng.shuffle(pool);
      for (const auto& [link, is_planar] : pool) {
        if (components == 1) break;
        try_add(link, is_planar, /*tree_only=*/true);
      }
    }
    if (components > 1) continue;  // retry with fresh shuffles

    // Phase 2 — budget fill: same preference order, no tree restriction.
    for (std::size_t level = 0; level < levels; ++level) {
      if (level < planar_pools.size()) {
        auto pool = planar_pools[level];
        rng.shuffle(pool);
        for (const Link& l : pool) try_add(l, true, false);
      }
      if (level < vertical_pools.size()) {
        auto pool = vertical_pools[level];
        rng.shuffle(pool);
        for (const Link& l : pool) try_add(l, false, false);
      }
    }
    if (planar_used == spec.num_planar_links() &&
        vertical_used == spec.num_vertical_links()) {
      std::sort(chosen.begin(), chosen.end());
      return chosen;
    }
  }
  throw std::runtime_error("DesignOps::build_links: budget unsatisfiable");
}

NocDesign DesignOps::random_design(util::Rng& rng) const {
  NocDesign d;
  d.placement = random_placement(rng);
  d.links = build_links({spec_->planar_candidates()},
                        {spec_->vertical_candidates()}, rng);
  return d;
}

bool DesignOps::swap_cores(NocDesign& d, util::Rng& rng) const {
  const auto& spec = *spec_;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const TileId t1 = static_cast<TileId>(rng.below(spec.num_tiles()));
    TileId t2;
    if (spec.core_type(d.placement[t1]) == PeType::kLlc) {
      // LLC must land on an edge tile.
      t2 = rng.pick(spec.edge_tiles());
    } else {
      t2 = static_cast<TileId>(rng.below(spec.num_tiles()));
    }
    if (t1 == t2) continue;
    // If t2 hosts an LLC it must move to t1, so t1 must be an edge tile.
    if (spec.core_type(d.placement[t2]) == PeType::kLlc &&
        !spec.is_edge_tile(t1)) {
      continue;
    }
    std::swap(d.placement[t1], d.placement[t2]);
    return true;
  }
  return false;
}

bool DesignOps::move_planar_link(NocDesign& d, util::Rng& rng) const {
  return move_link(d, rng, /*planar=*/true);
}

bool DesignOps::move_vertical_link(NocDesign& d, util::Rng& rng) const {
  // When the budget equals the candidate count every TSV slot is occupied
  // (the paper's 48/48 setup) and there is nothing to move.
  if (spec_->num_vertical_links() >= spec_->vertical_candidates().size()) {
    return false;
  }
  return move_link(d, rng, /*planar=*/false);
}

bool DesignOps::move_link(NocDesign& d, util::Rng& rng, bool planar) const {
  const auto& spec = *spec_;
  const auto split = split_links(spec, d.links);
  const auto& movable = planar ? split.planar : split.vertical;
  const auto& slots =
      planar ? spec.planar_candidates() : spec.vertical_candidates();
  if (movable.empty()) return false;
  const auto max_degree = static_cast<std::size_t>(spec.max_router_degree());

  const RouteTree graph(spec, d);
  for (int attempt = 0; attempt < 24; ++attempt) {
    const Link victim = rng.pick(movable);
    const Link incoming = rng.pick(slots);
    if (incoming == victim) continue;
    if (std::binary_search(d.links.begin(), d.links.end(), incoming)) continue;
    // Degree after the exchange (the victim's endpoints lose one).
    auto deg_after = [&](TileId t) {
      std::size_t deg = graph.degree(t);
      if (t == victim.a || t == victim.b) --deg;
      if (t == incoming.a || t == incoming.b) ++deg;
      return deg;
    };
    if (deg_after(incoming.a) > max_degree ||
        deg_after(incoming.b) > max_degree) {
      continue;
    }
    NocDesign candidate;
    candidate.links = d.links;
    std::erase(candidate.links, victim);
    candidate.links.push_back(incoming);
    std::sort(candidate.links.begin(), candidate.links.end());
    if (!RouteTree(spec, candidate).connected()) continue;
    d.links = std::move(candidate.links);
    return true;
  }
  return false;
}

NocDesign DesignOps::random_neighbor(const NocDesign& d,
                                     util::Rng& rng) const {
  NocDesign out = d;
  // Three move kinds; vertical moves are only meaningful when TSV slots are
  // not saturated. Fall back across kinds so a neighbor is always produced.
  const bool tsv_movable =
      spec_->num_vertical_links() < spec_->vertical_candidates().size();
  const std::uint64_t kinds = tsv_movable ? 3 : 2;
  switch (rng.below(kinds)) {
    case 0:
      if (swap_cores(out, rng)) return out;
      break;
    case 1:
      if (move_planar_link(out, rng)) return out;
      break;
    default:
      if (move_vertical_link(out, rng)) return out;
      break;
  }
  // Fallbacks: a core swap virtually never fails.
  if (move_planar_link(out, rng)) return out;
  swap_cores(out, rng);
  return out;
}

NocDesign DesignOps::crossover(const NocDesign& a, const NocDesign& b,
                               util::Rng& rng) const {
  const auto& spec = *spec_;
  NocDesign child;

  // --- Placement: cycle crossover over tile positions. Each cycle is taken
  // wholesale from one parent, so every position holds that parent's core
  // and feasibility (LLC on edge) is inherited.
  const std::size_t n = a.placement.size();
  child.placement.assign(n, static_cast<CoreId>(spec.num_cores()));
  std::vector<TileId> tile_of_core_a(n);
  for (TileId t = 0; t < n; ++t) tile_of_core_a[a.placement[t]] = t;
  std::vector<bool> visited(n, false);
  for (TileId start = 0; start < n; ++start) {
    if (visited[start]) continue;
    // Collect the cycle through position `start`.
    std::vector<TileId> cycle;
    TileId t = start;
    do {
      visited[t] = true;
      cycle.push_back(t);
      t = tile_of_core_a[b.placement[t]];
    } while (t != start);
    const bool from_a = rng.chance(0.5);
    for (TileId pos : cycle) {
      child.placement[pos] = from_a ? a.placement[pos] : b.placement[pos];
    }
  }

  // --- Links: draw from the parents' union, then the global pool.
  const auto sa = split_links(spec, a.links);
  const auto sb = split_links(spec, b.links);
  auto merged = [](const std::vector<Link>& x, const std::vector<Link>& y) {
    std::vector<Link> out;
    std::set_union(x.begin(), x.end(), y.begin(), y.end(),
                   std::back_inserter(out));
    return out;
  };
  // Generic-strength link recombination: the child's links are drawn from
  // the parents' union (then the global pool if budgets demand), WITHOUT
  // preferring links common to both parents. Preferring common links makes
  // the crossover memetic-strength and collapses the evolutionary/local-
  // search trade-off the paper studies.
  child.links = build_links(
      {merged(sa.planar, sb.planar), spec.planar_candidates()},
      {merged(sa.vertical, sb.vertical), spec.vertical_candidates()},
      rng);
  return child;
}

NocDesign DesignOps::mutate(const NocDesign& d, util::Rng& rng) const {
  NocDesign out = random_neighbor(d, rng);
  int extra = 0;
  while (extra < 2 && rng.chance(0.3)) {
    out = random_neighbor(out, rng);
    ++extra;
  }
  return out;
}

}  // namespace moela::noc
