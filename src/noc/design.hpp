// A candidate solution of the design problem: a core placement plus a link
// placement.
#pragma once

#include <vector>

#include "noc/link.hpp"
#include "noc/platform.hpp"

namespace moela::noc {

/// The decision variables of Sec. III: which core occupies each tile and
/// where the L links are placed. Kept deliberately plain (a value type);
/// feasibility logic lives in constraints.hpp and the generator.
struct NocDesign {
  /// placement[tile] == core id occupying that tile (a permutation of
  /// 0..num_cores-1).
  std::vector<CoreId> placement;
  /// Canonical (sorted, unique) link set, planar and vertical mixed.
  std::vector<Link> links;

  /// tile_of[core] — inverse of `placement`.
  std::vector<TileId> tile_of_core() const;

  /// Sorts and dedupes `links` into canonical form.
  void canonicalize();

  friend bool operator==(const NocDesign&, const NocDesign&) = default;
};

/// Splits a design's links into planar / vertical subsets.
struct LinkSplit {
  std::vector<Link> planar;
  std::vector<Link> vertical;
};
LinkSplit split_links(const PlatformSpec& spec, const std::vector<Link>& links);

}  // namespace moela::noc
