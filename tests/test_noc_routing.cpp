#include "noc/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "noc/generator.hpp"
#include "noc/platform.hpp"
#include "util/rng.hpp"

namespace moela::noc {
namespace {

NocDesign mesh_design(const PlatformSpec& spec) {
  NocDesign d;
  d.placement.resize(spec.num_tiles());
  std::iota(d.placement.begin(), d.placement.end(), CoreId{0});
  for (TileId t = 0; t < spec.num_tiles(); ++t) {
    const int x = spec.x_of(t), y = spec.y_of(t), z = spec.z_of(t);
    if (x + 1 < spec.nx()) d.links.emplace_back(t, spec.tile_at(x + 1, y, z));
    if (y + 1 < spec.ny()) d.links.emplace_back(t, spec.tile_at(x, y + 1, z));
    if (z + 1 < spec.nz()) d.links.emplace_back(t, spec.tile_at(x, y, z + 1));
  }
  d.canonicalize();
  return d;
}

TEST(Routing, MeshHopsAreManhattan3D) {
  const auto spec = PlatformSpec::small_3x3x3();
  RouteTree routes(spec, mesh_design(spec));
  for (TileId s = 0; s < spec.num_tiles(); ++s) {
    routes.build(s);
    for (TileId t = 0; t < spec.num_tiles(); ++t) {
      const int expected = std::abs(spec.x_of(s) - spec.x_of(t)) +
                           std::abs(spec.y_of(s) - spec.y_of(t)) +
                           std::abs(spec.z_of(s) - spec.z_of(t));
      EXPECT_EQ(routes.hops(t), expected) << s << "->" << t;
    }
  }
}

TEST(Routing, MeshDegreeBounds) {
  const auto spec = PlatformSpec::small_3x3x3();
  const RouteTree graph(spec, mesh_design(spec));
  for (TileId t = 0; t < spec.num_tiles(); ++t) {
    EXPECT_GE(graph.degree(t), 3u);  // corner of the 3D mesh
    EXPECT_LE(graph.degree(t), 6u);  // center
  }
}

TEST(Routing, MeshIsConnected) {
  const auto spec = PlatformSpec::small_3x3x3();
  EXPECT_TRUE(RouteTree(spec, mesh_design(spec)).connected());
}

TEST(Routing, MissingLinksDisconnect) {
  const auto spec = PlatformSpec::small_3x3x3();
  NocDesign d = mesh_design(spec);
  // Keep only links inside layer 0: layers 1-2 become unreachable.
  std::erase_if(d.links, [&](const Link& l) {
    return spec.z_of(l.a) != 0 || spec.z_of(l.b) != 0;
  });
  EXPECT_FALSE(RouteTree(spec, d).connected());
}

TEST(Routing, EmptyGraphDisconnected) {
  const auto spec = PlatformSpec::small_3x3x3();
  EXPECT_FALSE(RouteTree(spec, NocDesign{}).connected());
}

TEST(Routing, HopsSymmetricOnUndirectedGraph) {
  const auto spec = PlatformSpec::paper_4x4x4();
  DesignOps ops(spec);
  util::Rng rng(3);
  const NocDesign d = ops.random_design(rng);
  RouteTree from_s(spec, d);
  RouteTree from_t(spec, d);
  for (TileId s = 0; s < spec.num_tiles(); s += 5) {
    from_s.build(s);
    for (TileId t = 0; t < spec.num_tiles(); t += 3) {
      from_t.build(t);
      EXPECT_EQ(from_s.hops(t), from_t.hops(s));
    }
  }
}

TEST(Routing, PathEndpointsAndLength) {
  const auto spec = PlatformSpec::small_3x3x3();
  RouteTree routes(spec, mesh_design(spec));
  const TileId s = spec.tile_at(0, 0, 0);
  const TileId t = spec.tile_at(2, 2, 2);
  routes.build(s);
  const auto path = routes.path(t);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), s);
  EXPECT_EQ(path.back(), t);
  EXPECT_EQ(static_cast<int>(path.size()) - 1, routes.hops(t));
}

TEST(Routing, PathToSelfIsSingleton) {
  const auto spec = PlatformSpec::small_3x3x3();
  RouteTree routes(spec, mesh_design(spec));
  routes.build(4);
  const auto path = routes.path(4);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 4);
}

TEST(Routing, ConsecutivePathTilesAreLinked) {
  const auto spec = PlatformSpec::paper_4x4x4();
  DesignOps ops(spec);
  util::Rng rng(7);
  const NocDesign d = ops.random_design(rng);
  RouteTree routes(spec, d);
  for (TileId s = 0; s < spec.num_tiles(); s += 7) {
    routes.build(s);
    for (TileId t = 0; t < spec.num_tiles(); t += 11) {
      const auto path = routes.path(t);
      for (std::size_t i = 1; i < path.size(); ++i) {
        const Link hop(path[i - 1], path[i]);
        EXPECT_TRUE(
            std::binary_search(d.links.begin(), d.links.end(), hop))
            << "missing link on path " << s << "->" << t;
      }
    }
  }
}

TEST(Routing, ForEachHopMatchesPath) {
  const auto spec = PlatformSpec::small_3x3x3();
  RouteTree routes(spec, mesh_design(spec));
  const TileId s = spec.tile_at(0, 1, 0);
  const TileId t = spec.tile_at(2, 0, 2);
  routes.build(s);
  const auto path = routes.path(t);
  std::size_t hops = 0;
  routes.for_each_hop(t, [&](TileId a, TileId b, std::size_t) {
    // for_each_hop walks backwards from t; every reported pair must be a
    // consecutive pair of `path`.
    bool found = false;
    for (std::size_t i = 1; i < path.size(); ++i) {
      if (path[i - 1] == a && path[i] == b) found = true;
    }
    EXPECT_TRUE(found);
    ++hops;
  });
  EXPECT_EQ(hops, path.size() - 1);
}

TEST(Routing, DeterministicAcrossRebuilds) {
  const auto spec = PlatformSpec::paper_4x4x4();
  DesignOps ops(spec);
  util::Rng rng(11);
  const NocDesign d = ops.random_design(rng);
  RouteTree r1(spec, d);
  RouteTree r2(spec, d);
  for (TileId s = 0; s < spec.num_tiles(); s += 3) {
    r1.build(s);
    // r2 reaches s from a different previous tree: build() must not
    // depend on what it held before.
    r2.build(static_cast<TileId>((s + 17) % spec.num_tiles()));
    r2.build(s);
    for (TileId t = 0; t < spec.num_tiles(); t += 5) {
      EXPECT_EQ(r1.path(t), r2.path(t));
    }
  }
}

TEST(Routing, ShortestOverRandomTopologies) {
  // Property: BFS distance <= any explicitly enumerated 2-hop alternative.
  const auto spec = PlatformSpec::small_3x3x3();
  DesignOps ops(spec);
  util::Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    const NocDesign d = ops.random_design(rng);
    RouteTree from_s(spec, d);
    RouteTree from_v(spec, d);
    for (TileId s = 0; s < spec.num_tiles(); ++s) {
      from_s.build(s);
      for (const Link& l : d.links) {
        if (l.a != s && l.b != s) continue;
        from_v.build(l.a == s ? l.b : l.a);
        for (TileId t = 0; t < spec.num_tiles(); ++t) {
          EXPECT_LE(from_s.hops(t), 1 + from_v.hops(t))
              << "triangle inequality violated";
        }
      }
    }
  }
}

TEST(Routing, TreeEdgesNameTheirLinks) {
  // Every hop's link index names a link joining that parent and child,
  // also when the link list is shuffled and holds a duplicate (the later
  // copy is the one reported) and on the 3x3x3 platform.
  const auto spec = PlatformSpec::small_3x3x3();
  DesignOps ops(spec);
  util::Rng rng(19);
  NocDesign d = ops.random_design(rng);
  rng.shuffle(d.links);
  const std::size_t dup = 3;
  d.links.insert(d.links.begin(), d.links[dup]);
  RouteTree routes(spec, d);
  std::size_t hops_seen = 0;
  for (TileId s = 0; s < spec.num_tiles(); ++s) {
    EXPECT_EQ(routes.degree(s),
              static_cast<std::size_t>(std::count_if(
                  d.links.begin(), d.links.end(),
                  [&](const Link& l) { return l.a == s || l.b == s; })));
    routes.build(s);
    for (TileId t = 0; t < spec.num_tiles(); ++t) {
      routes.for_each_hop(t, [&](TileId a, TileId b, std::size_t k) {
        ASSERT_LT(k, d.links.size());
        EXPECT_EQ(d.links[k], Link(a, b)) << s << "->" << t;
        EXPECT_NE(k, 0u) << "the earlier duplicate carries no route";
        ++hops_seen;
      });
    }
  }
  EXPECT_GT(hops_seen, 0u);
}

TEST(Routing, UnreachableTileHasNoRoute) {
  const auto spec = PlatformSpec::small_3x3x3();
  NocDesign d = mesh_design(spec);
  // Keep layer 0's planar links only: tiles above it are cut off.
  std::erase_if(d.links, [&](const Link& l) { return spec.z_of(l.b) > 0; });
  RouteTree routes(spec, d);
  routes.build(0);
  const TileId above = spec.tile_at(0, 0, 1);
  EXPECT_LT(routes.hops(above), 0);
  EXPECT_THROW(routes.path(above), std::logic_error);
  EXPECT_EQ(routes.hops(spec.tile_at(2, 2, 0)), 4);
}

}  // namespace
}  // namespace moela::noc
