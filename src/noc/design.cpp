#include "noc/design.hpp"

#include <algorithm>

namespace moela::noc {

std::vector<TileId> NocDesign::tile_of_core() const {
  std::vector<TileId> tiles(placement.size());
  for (TileId t = 0; t < placement.size(); ++t) {
    tiles[placement[t]] = t;
  }
  return tiles;
}

void NocDesign::canonicalize() {
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
}

LinkSplit split_links(const PlatformSpec& spec,
                      const std::vector<Link>& links) {
  LinkSplit out;
  for (const Link& l : links) {
    if (spec.z_of(l.a) == spec.z_of(l.b)) {
      out.planar.push_back(l);
    } else {
      out.vertical.push_back(l);
    }
  }
  return out;
}

}  // namespace moela::noc
