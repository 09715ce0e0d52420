#include "noc/problem.hpp"

#include "noc/routing.hpp"

namespace moela::noc {

std::vector<double> NocProblem::features(const Design& d) const {
  const auto& spec = *spec_;
  const std::size_t tiles = spec.num_tiles();
  std::vector<double> f;
  f.reserve(num_features());

  // One-hot PE type per tile.
  for (TileId t = 0; t < tiles; ++t) {
    const PeType type = spec.core_type(d.placement[t]);
    f.push_back(type == PeType::kCpu ? 1.0 : 0.0);
    f.push_back(type == PeType::kGpu ? 1.0 : 0.0);
    f.push_back(type == PeType::kLlc ? 1.0 : 0.0);
  }

  // Router degree per tile.
  const RouteTree graph(spec, d);
  for (TileId t = 0; t < tiles; ++t) {
    f.push_back(static_cast<double>(graph.degree(t)));
  }

  // Planar links per layer; vertical links per layer boundary.
  std::vector<double> planar_per_layer(static_cast<std::size_t>(spec.nz()),
                                       0.0);
  std::vector<double> vertical_per_boundary(
      static_cast<std::size_t>(spec.nz()) - 1, 0.0);
  for (const Link& l : d.links) {
    const int za = spec.z_of(l.a);
    const int zb = spec.z_of(l.b);
    if (za == zb) {
      planar_per_layer[static_cast<std::size_t>(za)] += 1.0;
    } else {
      vertical_per_boundary[static_cast<std::size_t>(std::min(za, zb))] += 1.0;
    }
  }
  f.insert(f.end(), planar_per_layer.begin(), planar_per_layer.end());
  f.insert(f.end(), vertical_per_boundary.begin(),
           vertical_per_boundary.end());
  return f;
}

}  // namespace moela::noc
