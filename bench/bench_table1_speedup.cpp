// Reproduces TABLE I of the paper: speed-up of MOELA compared to MOEA/D and
// MOOS for the 3-, 4-, and 5-objective scenarios across the Rodinia-like
// applications.
//
// Metric (Sec. V.C): T_convergence / T_MOELA, where T_convergence is when
// the competitor reaches its converged PHV (< 0.5% improvement over 5 trace
// windows) and T_MOELA is when MOELA first reaches that same PHV. The time
// axis is wall-clock seconds, as in the paper (moo::speedup_factor_time),
// so each algorithm's own overhead counts: the competitors' hypervolume
// work and MOELA's forest training.
//
// Environment knobs: MOELA_BENCH_EVALS, MOELA_BENCH_SMALL, MOELA_BENCH_SEED.
#include <cstdio>
#include <optional>
#include <vector>

#include "exp/scenario.hpp"
#include "moo/metrics.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace moela;

int main() {
  const auto config = exp::paper_bench_config_from_env();
  const std::vector<std::size_t> scenarios{3, 4, 5};
  const auto& apps = sim::all_rodinia_apps();

  // The whole grid as ONE Executor batch (MOELA_BENCH_JOBS workers); grid
  // index = si * apps.size() + ai.
  std::vector<exp::ScenarioCell> grid;
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
      grid.push_back({apps[ai], scenarios[si]});
    }
  }
  const auto results = exp::run_app_scenarios(grid, config);

  // rows[app][competitor(0=MOEA/D,1=MOOS)][scenario] = speedup
  std::vector<std::vector<std::vector<double>>> cells(
      apps.size(),
      std::vector<std::vector<double>>(2, std::vector<double>(3, 0.0)));

  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
      const auto& r = results[si * apps.size() + ai];
      // traces[0] = MOELA, [1] = MOEA/D, [2] = MOOS (config order).
      for (std::size_t comp = 0; comp < 2; ++comp) {
        const auto s = moo::speedup_factor_time(r.traces[0], r.traces[comp + 1]);
        // If MOELA never matches the competitor's converged PHV within the
        // budget, report the conservative value 1.0 (no speedup observed).
        cells[ai][comp][si] = s.value_or(1.0);
      }
    }
  }

  util::Table table(
      "TABLE I: speed-up of MOELA compared to MOEA/D and MOOS");
  table.set_header({"App", "MOEA/D 3-obj", "MOEA/D 4-obj", "MOEA/D 5-obj",
                    "MOOS 3-obj", "MOOS 4-obj", "MOOS 5-obj"});
  std::vector<util::OnlineStats> column_stats(6);
  for (std::size_t ai = 0; ai < apps.size(); ++ai) {
    std::vector<std::string> row{sim::app_name(apps[ai])};
    for (std::size_t comp = 0; comp < 2; ++comp) {
      for (std::size_t si = 0; si < 3; ++si) {
        row.push_back(util::fmt(cells[ai][comp][si], 2));
        column_stats[comp * 3 + si].add(cells[ai][comp][si]);
      }
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> avg{"Average"};
  for (const auto& s : column_stats) avg.push_back(util::fmt(s.mean(), 2));
  table.add_row(std::move(avg));
  table.print();

  std::printf("\nExpected shape (paper): speed-up > 1 throughout; paper "
              "averages 8.91x (MOEA/D) and 38.83x (MOOS) for 5-obj.\n");
  return 0;
}
