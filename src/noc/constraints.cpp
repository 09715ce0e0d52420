#include "noc/constraints.hpp"

#include <algorithm>
#include <sstream>

#include "noc/routing.hpp"

namespace moela::noc {

ConstraintReport validate(const PlatformSpec& spec, const NocDesign& design) {
  ConstraintReport report;
  auto violation = [&report](const std::string& msg) {
    report.violations.push_back(msg);
  };

  // Placement must be a permutation of all cores.
  {
    report.placement_is_permutation =
        design.placement.size() == spec.num_tiles();
    std::vector<bool> seen(spec.num_cores(), false);
    for (CoreId c : design.placement) {
      if (c >= spec.num_cores() || seen[c]) {
        report.placement_is_permutation = false;
        break;
      }
      seen[c] = true;
    }
    if (!report.placement_is_permutation) {
      violation("placement is not a permutation of cores");
    }
  }

  // LLC tiles must lie on the die perimeter.
  report.llcs_on_edge = report.placement_is_permutation;
  if (report.placement_is_permutation) {
    for (TileId t = 0; t < design.placement.size(); ++t) {
      if (spec.core_type(design.placement[t]) == PeType::kLlc &&
          !spec.is_edge_tile(t)) {
        report.llcs_on_edge = false;
        std::ostringstream os;
        os << "LLC core " << design.placement[t] << " on interior tile "
           << t;
        violation(os.str());
      }
    }
  }

  // Exact link budgets per class; all links on the platform and
  // geometrically legal; unique.
  bool links_on_platform = true;
  {
    auto canonical = design.links;
    std::sort(canonical.begin(), canonical.end());
    const bool unique_links =
        std::adjacent_find(canonical.begin(), canonical.end()) ==
        canonical.end();
    report.links_legal = unique_links;
    if (!unique_links) violation("duplicate links");
    std::size_t planar = 0, vertical = 0;
    for (const Link& l : design.links) {
      if (l.a >= spec.num_tiles() || l.b >= spec.num_tiles()) {
        links_on_platform = false;
        report.links_legal = false;
        std::ostringstream os;
        os << "link " << l.a << "-" << l.b << " names a tile outside the "
           << spec.num_tiles() << "-tile platform";
        violation(os.str());
        continue;
      }
      if (!spec.link_is_legal(l)) {
        report.links_legal = false;
        std::ostringstream os;
        os << "illegal link " << l.a << "-" << l.b;
        violation(os.str());
        continue;
      }
      if (spec.z_of(l.a) == spec.z_of(l.b)) {
        ++planar;
      } else {
        ++vertical;
      }
    }
    report.link_budget_respected = planar == spec.num_planar_links() &&
                                   vertical == spec.num_vertical_links();
    if (!report.link_budget_respected) {
      std::ostringstream os;
      os << "link budget: " << planar << "/" << spec.num_planar_links()
         << " planar, " << vertical << "/" << spec.num_vertical_links()
         << " vertical";
      violation(os.str());
    }
  }

  // Router degree and connectivity. The graph indexes its rows by link
  // endpoints, so it is only built once every endpoint is on the platform.
  if (links_on_platform) {
    RouteTree graph(spec, design);
    report.degree_respected = true;
    for (TileId t = 0; t < spec.num_tiles(); ++t) {
      if (graph.degree(t) >
          static_cast<std::size_t>(spec.max_router_degree())) {
        report.degree_respected = false;
        std::ostringstream os;
        os << "router " << t << " degree " << graph.degree(t) << " > "
           << spec.max_router_degree();
        violation(os.str());
      }
    }
    report.connected = graph.connected();
    if (!report.connected) violation("network is disconnected");
  }

  return report;
}

bool is_feasible(const PlatformSpec& spec, const NocDesign& design) {
  return validate(spec, design).ok();
}

}  // namespace moela::noc
