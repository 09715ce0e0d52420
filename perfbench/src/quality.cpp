#include "quality.hpp"

#include <stdexcept>

#include "exp/edp_selection.hpp"
#include "noc/problem.hpp"
#include "sim/rodinia.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

moela::sim::RodiniaApp app_from_tag(const std::string& tag) {
  for (auto app : moela::sim::all_rodinia_apps()) {
    if (moela::sim::app_name(app) == tag) return app;
  }
  throw std::invalid_argument("unknown NoC application '" + tag + "'");
}

}  // namespace

double picked_edp(const api::RunReport& report,
                  const api::AnyProblem& problem) {
  const auto* noc = problem.target<moela::noc::NocProblem>();
  if (noc == nullptr) throw std::invalid_argument("picked_edp: not a NoC run");
  const auto scored = moela::exp::score_population(
      noc->spec(), report.designs_as<moela::noc::NocDesign>(), noc->workload(),
      moela::sim::archetype(app_from_tag(noc->workload().name)));
  return moela::exp::select_by_edp({scored}).front().chosen.score.edp;
}

void Quality::add_timing(const Pins& pins, const std::string& workload,
                         const api::RunRequest& request,
                         const api::RunReport& report) {
  const std::string key = problem_key(request);
  curves.push_back(target_curve(report.snapshots, pins.bounds_for(key),
                                pins.target_for(workload, key),
                                request.options.max_evaluations));
}

double Quality::time_to_target(bool& censored) const {
  const auto reached = pooled_time_to_target(curves);
  censored = !reached.has_value();
  if (reached) return *reached;
  double total = 0.0;
  for (const auto& c : curves) total += c.seconds.back();
  return total / static_cast<double>(curves.size());
}

void Quality::add_outputs(const Pins& pins, const api::RunRequest& request,
                          const api::RunReport& report,
                          const api::AnyProblem& problem) {
  // The final snapshot is the solution set the algorithm maintains — the
  // set the paper's PHV and the anytime trace are measured on.
  const auto& final_set = report.snapshots.empty()
                              ? report.final_front
                              : report.snapshots.back().front;
  phv.push_back(
      normalized_phv(final_set, pins.bounds_for(problem_key(request))));
  // Only applications with a pinned reference are scored: on the others
  // every design saturates the GPU cores, so the picked EDP does not depend
  // on the search.
  const auto reference = pins.edp_reference.find(request.problem_options.app);
  if (request.problem == "noc" && reference != pins.edp_reference.end()) {
    edp_ratio.push_back(picked_edp(report, problem) / reference->second);
  }
}

}  // namespace perfbench
