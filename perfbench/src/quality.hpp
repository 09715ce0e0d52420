// Solution-quality scoring shared by every workload: normalized PHV and
// time to the pinned PHV target (perfbench/pins.json), and the Fig. 3 EDP
// of the design exp::select_by_edp picks from a NoC run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common.hpp"
#include "stats.hpp"

namespace perfbench {

/// EDP (J*s) of the design the Fig. 3 rule picks from a NoC report's final
/// population. `problem` must wrap the request's noc::NocProblem.
double picked_edp(const api::RunReport& report, const api::AnyProblem& problem);

/// Quality samples over a workload's runs.
struct Quality {
  std::vector<double> phv;
  /// Picked EDP over the pinned per-application reference.
  std::vector<double> edp_ratio;
  /// Each timed run's anytime PHV against its pinned target.
  std::vector<TargetCurve> curves;

  /// Seconds until the runs' mean PHV curve reaches the pinned targets
  /// (pooled_time_to_target). When it never does, the mean run length
  /// stands in and `censored` is set.
  double time_to_target(bool& censored) const;

  /// Scores one run's timing (its PHV-against-target curve).
  void add_timing(const Pins& pins, const std::string& workload,
                  const api::RunRequest& request,
                  const api::RunReport& report);
  /// Scores one run's outputs (PHV, and EDP for NoC runs).
  void add_outputs(const Pins& pins, const api::RunRequest& request,
                   const api::RunReport& report,
                   const api::AnyProblem& problem);
};

}  // namespace perfbench
