#include "noc/design.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "noc/constraints.hpp"
#include "noc/io.hpp"
#include "noc/platform.hpp"

namespace moela::noc {
namespace {

NocDesign mesh_design(const PlatformSpec& spec) {
  // Identity placement + full 3D-mesh links (adjacent planar + all TSVs).
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

TEST(Design, TileOfCoreInvertsPlacement) {
  const auto spec = PlatformSpec::small_3x3x3();
  NocDesign d = mesh_design(spec);
  std::swap(d.placement[0], d.placement[5]);
  const auto tiles = d.tile_of_core();
  for (TileId t = 0; t < spec.num_tiles(); ++t) {
    EXPECT_EQ(tiles[d.placement[t]], t);
  }
}

TEST(Design, CanonicalizeSortsAndDedupes) {
  NocDesign d;
  d.links = {Link(3, 1), Link(0, 2), Link(1, 3)};
  d.canonicalize();
  ASSERT_EQ(d.links.size(), 2u);
  EXPECT_EQ(d.links[0], Link(0, 2));
  EXPECT_EQ(d.links[1], Link(1, 3));
}

TEST(SplitLinks, ClassifiesPlanarVsVertical) {
  const auto spec = PlatformSpec::small_3x3x3();
  const NocDesign d = mesh_design(spec);
  const auto split = split_links(spec, d.links);
  // 3x3 layer mesh: 12 planar per layer x 3; TSVs: 9 x 2.
  EXPECT_EQ(split.planar.size(), 36u);
  EXPECT_EQ(split.vertical.size(), 18u);
  for (const Link& l : split.planar) EXPECT_EQ(spec.z_of(l.a), spec.z_of(l.b));
  for (const Link& l : split.vertical) {
    EXPECT_NE(spec.z_of(l.a), spec.z_of(l.b));
  }
}

TEST(Constraints, MeshEquivalentDesignNeedsLlcPlacementFix) {
  // Identity placement puts LLC cores (the last 8 ids) wherever they fall;
  // validate() must pinpoint exactly the violated rule, if any.
  const auto spec = PlatformSpec::small_3x3x3();
  const NocDesign d = mesh_design(spec);
  const auto report = validate(spec, d);
  EXPECT_TRUE(report.placement_is_permutation);
  EXPECT_TRUE(report.link_budget_respected);
  EXPECT_TRUE(report.links_legal);
  EXPECT_TRUE(report.degree_respected);
  EXPECT_TRUE(report.connected);
}

TEST(Constraints, DetectsNonPermutation) {
  const auto spec = PlatformSpec::small_3x3x3();
  NocDesign d = mesh_design(spec);
  d.placement[0] = d.placement[1];  // duplicate core
  const auto report = validate(spec, d);
  EXPECT_FALSE(report.placement_is_permutation);
  EXPECT_FALSE(report.ok());
}

TEST(Constraints, DetectsLlcOffEdge) {
  const auto spec = PlatformSpec::small_3x3x3();
  NocDesign d = mesh_design(spec);
  // Move an LLC core to the interior tile (1,1,0).
  const TileId interior = spec.tile_at(1, 1, 0);
  const auto llcs = spec.cores_of_type(PeType::kLlc);
  const auto tiles = d.tile_of_core();
  const TileId llc_tile = tiles[llcs[0]];
  std::swap(d.placement[interior], d.placement[llc_tile]);
  const auto report = validate(spec, d);
  EXPECT_FALSE(report.llcs_on_edge);
  EXPECT_FALSE(report.ok());
}

TEST(Constraints, DetectsBudgetViolation) {
  const auto spec = PlatformSpec::small_3x3x3();
  NocDesign d = mesh_design(spec);
  d.links.pop_back();
  const auto report = validate(spec, d);
  EXPECT_FALSE(report.link_budget_respected);
}

TEST(Constraints, DetectsIllegalLink) {
  const auto spec = PlatformSpec::small_3x3x3();
  NocDesign d = mesh_design(spec);
  // Replace a link with a cross-layer diagonal (illegal).
  d.links.back() = Link(spec.tile_at(0, 0, 0), spec.tile_at(1, 0, 1));
  d.canonicalize();
  const auto report = validate(spec, d);
  EXPECT_FALSE(report.links_legal);
}

TEST(Constraints, OutOfRangeLinkIsRejectedBeforeTheGraphIsBuilt) {
  // The text parser checks syntax, not the platform, so a parsed design may
  // name tiles the platform lacks. validate() must reject such a link by
  // name without indexing its per-tile graph rows with the bad id.
  const auto spec = PlatformSpec::small_3x3x3();
  const auto report = validate(
      spec,
      design_from_string("noc-design v1\nplacement 0\nlinks 1\n0 9999\n"));
  EXPECT_FALSE(report.links_legal);
  EXPECT_FALSE(report.degree_respected);
  EXPECT_FALSE(report.connected);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(std::find(report.violations.begin(), report.violations.end(),
                      "link 0-9999 names a tile outside the 27-tile platform"),
            report.violations.end());

  // The first id past the platform, in an otherwise legal mesh.
  NocDesign d = mesh_design(spec);
  d.links.back().b = static_cast<TileId>(spec.num_tiles());
  const auto off_by_one = validate(spec, d);
  EXPECT_TRUE(off_by_one.placement_is_permutation);
  EXPECT_FALSE(off_by_one.links_legal);
  EXPECT_FALSE(off_by_one.degree_respected);
  EXPECT_FALSE(off_by_one.connected);
}

TEST(Constraints, DetectsDuplicateLinks) {
  const auto spec = PlatformSpec::small_3x3x3();
  NocDesign d = mesh_design(spec);
  d.links.push_back(d.links.front());  // duplicate without canonicalize
  const auto report = validate(spec, d);
  EXPECT_FALSE(report.links_legal);
}

TEST(Constraints, DetectsDegreeViolation) {
  const auto spec = PlatformSpec::small_3x3x3();
  NocDesign d = mesh_design(spec);
  // Trade four planar links of layer 2 (whose tiles keep their TSVs) for
  // length-2 links from the center of layer 0 to its corners: every link
  // stays legal and within budget, and that router reaches degree 9.
  int dropped = 0;
  std::erase_if(d.links, [&](const Link& l) {
    if (dropped == 4 || spec.z_of(l.a) != 2 || spec.z_of(l.b) != 2) {
      return false;
    }
    ++dropped;
    return true;
  });
  const TileId hub = spec.tile_at(1, 1, 0);
  for (const auto& [x, y] : {std::pair{0, 0}, {2, 0}, {0, 2}, {2, 2}}) {
    d.links.emplace_back(hub, spec.tile_at(x, y, 0));
  }
  d.canonicalize();
  const auto report = validate(spec, d);
  EXPECT_TRUE(report.links_legal);
  EXPECT_TRUE(report.link_budget_respected);
  EXPECT_TRUE(report.connected);
  EXPECT_FALSE(report.degree_respected);
  EXPECT_FALSE(report.ok());
  const auto degree_violations =
      std::count_if(report.violations.begin(), report.violations.end(),
                    [](const std::string& v) {
                      return v.find("degree") != std::string::npos;
                    });
  EXPECT_EQ(degree_violations, 1);
  EXPECT_NE(std::find(report.violations.begin(), report.violations.end(),
                      "router " + std::to_string(hub) + " degree 9 > 7"),
            report.violations.end());
}

TEST(Constraints, DetectsDisconnection) {
  const auto spec = PlatformSpec::small_3x3x3();
  NocDesign d = mesh_design(spec);
  // Remove all TSVs touching layer 2 and dump the budget elsewhere as
  // duplicates of legality-checked planar candidates to keep counts equal.
  std::vector<Link> removed;
  std::erase_if(d.links, [&](const Link& l) {
    const bool cut = spec.z_of(l.a) == 1 && spec.z_of(l.b) == 2;
    if (cut) removed.push_back(l);
    return cut;
  });
  // Refill vertical budget with links between layers 0-1 (possibly longer
  // list than slots; just take distinct ones not already present).
  for (const Link& cand : spec.vertical_candidates()) {
    if (removed.empty()) break;
    if (spec.z_of(cand.a) == 0 &&
        std::find(d.links.begin(), d.links.end(), cand) == d.links.end()) {
      d.links.push_back(cand);
      removed.pop_back();
    }
  }
  d.canonicalize();
  const auto report = validate(spec, d);
  EXPECT_FALSE(report.connected);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace moela::noc
