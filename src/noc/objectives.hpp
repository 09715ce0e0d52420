// The five design objectives of Sec. III, Eqs. (1)-(7), all minimized:
//   1. Mean link utilization          (Eq. 1)
//   2. Variance of link utilization   (Eq. 2)
//   3. Average CPU-LLC latency        (Eq. 3)
//   4. Communication energy           (Eq. 4)
//   5. Thermal figure (Cong et al. fast 3D-IC model)  (Eqs. 5-7)
#pragma once

#include <cstddef>
#include <vector>

#include "moo/objective.hpp"
#include "noc/design.hpp"
#include "noc/platform.hpp"
#include "noc/routing.hpp"
#include "noc/workload.hpp"

namespace moela::noc {

/// Electrical and thermal constants. Defaults are representative values for
/// a 32 nm-class 3D stack (the paper obtains them from McPAT/GPUWattch and
/// 3D-ICE; see docs/reproduction.md, "Substitutions"). Only relative
/// magnitudes matter for the optimization landscape.
struct NocObjectiveParams {
  /// r in Eq. (3): router pipeline stages (cycles per hop).
  double router_stages = 4.0;
  /// Link delay in cycles per unit of planar routed length.
  double delay_per_unit = 1.0;
  /// Traversal delay of one vertical (TSV) link, cycles. TSVs are short.
  double vertical_delay = 1.0;
  /// d_k of a vertical link in length units for the energy model.
  double vertical_length = 0.5;
  /// E_link in Eq. (4): energy per flit per unit link length (pJ).
  double e_link = 1.0;
  /// E_r in Eq. (4): router logic energy per flit per port (pJ).
  double e_router = 0.8;
  /// R_j of Eq. (5): vertical thermal resistance of each die layer (K/W),
  /// indexed from the layer nearest the heat sink. Sized >= nz by resize_
  /// for_layers(); default value per layer below.
  std::vector<double> r_vertical;
  /// Default vertical resistance per layer when r_vertical is empty.
  double default_r_vertical = 0.12;
  /// R_b of Eq. (5): thermal resistance of the base layer (K/W).
  double r_base = 2.4;

  /// Returns r_vertical padded to `layers` entries with the default.
  std::vector<double> vertical_resistances(std::size_t layers) const;
};

/// The five raw objective values of one design under one workload.
struct NocObjectives {
  double traffic_mean = 0.0;
  double traffic_variance = 0.0;
  double cpu_latency = 0.0;
  double energy = 0.0;
  double thermal = 0.0;

  /// The first `m` objectives in paper order (3-obj = 1..3, 4-obj = 1..4,
  /// 5-obj = 1..5).
  moo::ObjectiveVector first(std::size_t m) const;
};

/// Side products of an evaluation that the EDP performance model reuses.
struct EvaluationDetail {
  std::vector<double> link_utilization;  // u_k per design link
  double max_link_utilization = 0.0;
  double mean_hops = 0.0;            // traffic-weighted average hop count
  double peak_temperature = 0.0;     // max_{n,k} T_n,k (before Eq. 7 product)
};

/// Evaluates all five objectives. `detail`, when non-null, receives the
/// intermediate quantities.
NocObjectives evaluate_objectives(const PlatformSpec& spec,
                                  const NocDesign& design,
                                  const Workload& workload,
                                  const NocObjectiveParams& params,
                                  EvaluationDetail* detail = nullptr);

}  // namespace moela::noc
