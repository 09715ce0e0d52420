// Platform specification for the 3D NoC heterogeneous manycore design
// problem (Sec. III of the paper).
//
// The platform is an N x N x Y grid of tiles; each tile hosts exactly one
// core (PE): a CPU, a GPU, or an LLC slice with memory controller. Tiles are
// interconnected by a budgeted set of planar links (same layer, routed
// length <= max_planar_length units) and vertical TSV links (same (x, y),
// adjacent layers). The *design* — which core sits on which tile and where
// the links go — lives in design.hpp; this header describes the fixed
// geometry, the core inventory, and the candidate-link enumeration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "noc/link.hpp"

namespace moela::noc {

/// Processing-element classes of the heterogeneous platform.
enum class PeType : std::uint8_t { kCpu = 0, kGpu = 1, kLlc = 2 };

const char* to_string(PeType type);

using TileId = std::uint16_t;
using CoreId = std::uint16_t;

/// Immutable description of a 3D tiled platform instance.
class PlatformSpec {
 public:
  /// `core_types[c]` is the type of core c; there must be exactly
  /// nx*ny*nz cores. `num_planar_links`/`num_vertical_links` are the link
  /// budgets L of Sec. III (planar + TSV).
  PlatformSpec(int nx, int ny, int nz, std::vector<PeType> core_types,
               std::size_t num_planar_links, std::size_t num_vertical_links,
               int max_planar_length = 5, int max_router_degree = 7);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  std::size_t num_tiles() const { return core_types_.size(); }
  std::size_t num_cores() const { return core_types_.size(); }

  std::size_t num_planar_links() const { return num_planar_links_; }
  std::size_t num_vertical_links() const { return num_vertical_links_; }
  int max_planar_length() const { return max_planar_length_; }
  int max_router_degree() const { return max_router_degree_; }

  PeType core_type(CoreId c) const { return core_types_[c]; }
  const std::vector<PeType>& core_types() const { return core_types_; }
  std::size_t count_type(PeType type) const;
  /// Core ids of the given type, ascending.
  std::vector<CoreId> cores_of_type(PeType type) const;

  // --- Tile geometry ------------------------------------------------------
  TileId tile_at(int x, int y, int z) const {
    return static_cast<TileId>(x + nx_ * (y + ny_ * z));
  }
  int x_of(TileId t) const { return static_cast<int>(t) % nx_; }
  int y_of(TileId t) const { return (static_cast<int>(t) / nx_) % ny_; }
  int z_of(TileId t) const { return static_cast<int>(t) / (nx_ * ny_); }

  /// Routed (Manhattan) length of a planar link between same-layer tiles,
  /// in units of adjacent-tile spacing.
  int planar_length(TileId a, TileId b) const;

  /// True if tile `t` lies on the perimeter of its layer (where tiles with
  /// memory controllers — LLCs — must be placed).
  bool is_edge_tile(TileId t) const;
  /// All edge tiles, ascending.
  const std::vector<TileId>& edge_tiles() const { return edge_tiles_; }

  // --- Candidate links ----------------------------------------------------
  /// All legal planar links: same layer, 1 <= length <= max_planar_length.
  const std::vector<Link>& planar_candidates() const {
    return planar_candidates_;
  }
  /// All legal vertical links: same (x, y), adjacent layers. The Sec. III
  /// constraint "at most 1 vertical link between adjacent tiles" holds by
  /// construction since each candidate is unique.
  const std::vector<Link>& vertical_candidates() const {
    return vertical_candidates_;
  }

  /// True if the link is geometrically legal on this platform.
  bool link_is_legal(const Link& link) const;

  std::string describe() const;

  // --- Canonical instances ------------------------------------------------
  /// The paper's evaluation platform: 4x4x4 = 64 tiles, 8 CPUs + 40 GPUs +
  /// 16 LLCs, 96 planar links (the 3D-mesh-equivalent count) + 48 TSVs.
  static PlatformSpec paper_4x4x4();

  /// A reduced 3x3x3 = 27-tile platform (4 CPU + 15 GPU + 8 LLC, 36 planar
  /// + 18 TSV) matching Fig. 1; used by unit tests for speed.
  static PlatformSpec small_3x3x3();

 private:
  int nx_, ny_, nz_;
  std::vector<PeType> core_types_;
  std::size_t num_planar_links_;
  std::size_t num_vertical_links_;
  int max_planar_length_;
  int max_router_degree_;
  std::vector<TileId> edge_tiles_;
  std::vector<Link> planar_candidates_;
  std::vector<Link> vertical_candidates_;
};

}  // namespace moela::noc
