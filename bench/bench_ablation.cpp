// Ablation study for the design choices Sec. IV argues for: full MOELA vs
//   * MOELA without the ML guide (random local-search starts forever),
//   * EA-only (no local search at all — reduces to the decomposition EA),
//   * local-search-only (no EA stage — closest to a pure ML-guided search).
// Reported: final PHV (shared normalization) and evaluations to reach 90%
// of the best final PHV, on two contrasting apps (BFS: latency-bound /
// irregular; SRAD: streaming) in the 5-objective scenario.
//
// Environment knobs: MOELA_BENCH_EVALS, MOELA_BENCH_SMALL, MOELA_BENCH_SEED.
#include <cstdio>
#include <vector>

#include "exp/scenario.hpp"
#include "moo/metrics.hpp"
#include "util/table.hpp"

using namespace moela;

int main() {
  auto config = exp::paper_bench_config_from_env();
  config.algorithms = {"moela", "moela-noguide", "moela-ea-only",
                       "moela-ls-only"};

  util::Table table("Ablation: MOELA components (5-obj)");
  table.set_header({"App", "Variant", "final PHV", "evals to 90% best PHV"});

  // Both applications as ONE Executor batch (MOELA_BENCH_JOBS workers).
  const std::vector<exp::ScenarioCell> grid{{sim::RodiniaApp::kBfs, 5},
                                            {sim::RodiniaApp::kSrad, 5}};
  const auto results = exp::run_app_scenarios(grid, config);

  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    const auto app = grid[gi].app;
    const auto& r = results[gi];
    double best = 0.0;
    for (double phv : r.final_phv) best = std::max(best, phv);
    for (std::size_t i = 0; i < config.algorithms.size(); ++i) {
      const auto reach = moo::evaluations_to_reach(r.traces[i], 0.9 * best);
      table.add_row({sim::app_name(app), r.algorithm_names[i],
                     util::fmt(r.final_phv[i], 4),
                     reach ? util::fmt(*reach, 0) : "never"});
    }
  }
  table.print();

  std::printf("\nExpected shape: full MOELA reaches 90%%-PHV in the fewest "
              "evaluations; EA-only converges slowest; LS-only loses final "
              "PHV (diversity); no-ML-guide sits between.\n");
  return 0;
}
