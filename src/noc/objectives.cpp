#include "noc/objectives.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace moela::noc {

std::vector<double> NocObjectiveParams::vertical_resistances(
    std::size_t layers) const {
  std::vector<double> r = r_vertical;
  r.resize(layers, default_r_vertical);
  return r;
}

moo::ObjectiveVector NocObjectives::first(std::size_t m) const {
  const double all[] = {traffic_mean, traffic_variance, cpu_latency, energy,
                        thermal};
  if (m == 0 || m > 5) {
    throw std::invalid_argument("NocObjectives::first: m must be 1..5");
  }
  return moo::ObjectiveVector(all, all + m);
}

NocObjectives evaluate_objectives(const PlatformSpec& spec,
                                  const NocDesign& design,
                                  const Workload& workload,
                                  const NocObjectiveParams& params,
                                  EvaluationDetail* detail) {
  const std::size_t num_cores = spec.num_cores();
  if (workload.traffic.num_cores() != num_cores ||
      workload.core_power.size() != num_cores) {
    throw std::invalid_argument("evaluate_objectives: workload size mismatch");
  }

  RouteTree routes(spec, design);
  const auto tile_of = design.tile_of_core();
  const std::size_t num_links = design.links.size();

  // Per-link delay (cycles) and energy per flit (physical length d_k times
  // E_link), and per-router energy per flit (E_r times its port count P_k),
  // precomputed.
  std::vector<double> link_delay(num_links);
  std::vector<double> link_energy(num_links);
  for (std::size_t k = 0; k < num_links; ++k) {
    const Link& l = design.links[k];
    if (spec.z_of(l.a) == spec.z_of(l.b)) {
      const double len = spec.planar_length(l.a, l.b);
      link_delay[k] = params.delay_per_unit * len;
      link_energy[k] = len * params.e_link;
    } else {
      link_delay[k] = params.vertical_delay;
      link_energy[k] = params.vertical_length * params.e_link;
    }
  }
  std::vector<double> router_term(routes.num_tiles());
  for (std::size_t t = 0; t < router_term.size(); ++t) {
    router_term[t] = params.e_router * static_cast<double>(routes.degree(
                                           static_cast<TileId>(t)));
  }

  // --- Single traffic sweep: accumulate link utilization u_k, energy,
  // and CPU-LLC latency terms. Each core's row is swept over the route tree
  // of its tile.
  std::vector<double> util(num_links, 0.0);
  double energy = 0.0;
  double latency_sum = 0.0;
  double hop_weighted = 0.0;
  double traffic_total = 0.0;

  for (CoreId i = 0; i < num_cores; ++i) {
    routes.build(tile_of[i]);
    const bool src_is_cpu = spec.core_type(i) == PeType::kCpu;
    for (CoreId j = 0; j < num_cores; ++j) {
      const double f = workload.traffic(i, j);
      if (f <= 0.0 || i == j) continue;
      const TileId dst = tile_of[j];

      double path_delay = 0.0;
      double path_link_energy = 0.0;
      // Router energy: every router on the path (hops + 1 of them,
      // including source and destination) spends E_r per port it has. The
      // walk runs from the destination back to the source, so the
      // destination's term comes first.
      double router_energy = router_term[dst];
      int hops = 0;
      routes.for_each_hop(dst, [&](TileId a, TileId, std::size_t k) {
        util[k] += f;
        path_delay += link_delay[k];
        path_link_energy += link_energy[k];
        router_energy += router_term[a];
        ++hops;
      });

      energy += f * (path_link_energy + router_energy);
      traffic_total += f;
      hop_weighted += f * hops;

      // Eq. (3) sums over CPU -> LLC pairs.
      if (src_is_cpu && spec.core_type(j) == PeType::kLlc) {
        latency_sum +=
            (params.router_stages * hops + path_delay) * f;
      }
    }
  }

  NocObjectives out;

  // Eq. (1): mean link utilization.
  out.traffic_mean = util::mean(util);
  // Eq. (2): population variance of link utilization.
  out.traffic_variance = util::variance(util);
  // Eq. (3): normalize by C*M (CPU count x LLC count).
  const double c = static_cast<double>(spec.count_type(PeType::kCpu));
  const double m = static_cast<double>(spec.count_type(PeType::kLlc));
  out.cpu_latency = c > 0 && m > 0 ? latency_sum / (c * m) : 0.0;
  // Eq. (4).
  out.energy = energy;

  // --- Thermal, Eqs. (5)-(7). The platform is N x N single-tile stacks of
  // Y layers; layer index 1 is nearest the heat sink (z == 0 here).
  const std::size_t layers = static_cast<std::size_t>(spec.nz());
  const auto r_vert = params.vertical_resistances(layers);
  // Prefix sums of R_j: sum_{j=1..i} R_j.
  std::vector<double> r_prefix(layers + 1, 0.0);
  for (std::size_t i = 0; i < layers; ++i) {
    r_prefix[i + 1] = r_prefix[i] + r_vert[i];
  }

  const std::size_t stacks =
      static_cast<std::size_t>(spec.nx()) * static_cast<std::size_t>(spec.ny());
  double peak_t = 0.0;
  double max_delta = 0.0;
  std::vector<double> layer_t(stacks, 0.0);
  for (std::size_t k = 1; k <= layers; ++k) {
    double layer_min = 0.0, layer_max = 0.0;
    for (std::size_t n = 0; n < stacks; ++n) {
      const int x = static_cast<int>(n) % spec.nx();
      const int y = static_cast<int>(n) / spec.nx();
      // T_n,k per Eq. (5).
      double conduction = 0.0;
      double total_power = 0.0;
      for (std::size_t i = 1; i <= k; ++i) {
        const TileId t = spec.tile_at(x, y, static_cast<int>(i) - 1);
        const double p = workload.core_power[design.placement[t]];
        conduction += p * r_prefix[i];
        total_power += p;
      }
      const double t_nk = conduction + params.r_base * total_power;
      layer_t[n] = t_nk;
      peak_t = std::max(peak_t, t_nk);
      if (n == 0) {
        layer_min = layer_max = t_nk;
      } else {
        layer_min = std::min(layer_min, t_nk);
        layer_max = std::max(layer_max, t_nk);
      }
    }
    max_delta = std::max(max_delta, layer_max - layer_min);  // Eq. (6)
  }
  out.thermal = peak_t * max_delta;  // Eq. (7)

  if (detail != nullptr) {
    detail->link_utilization = std::move(util);
    detail->max_link_utilization =
        detail->link_utilization.empty()
            ? 0.0
            : *std::max_element(detail->link_utilization.begin(),
                                detail->link_utilization.end());
    detail->mean_hops = traffic_total > 0.0 ? hop_weighted / traffic_total : 0.0;
    detail->peak_temperature = peak_t;
  }
  return out;
}

}  // namespace moela::noc
