#include "requests.hpp"

#include <stdexcept>

#include "sim/rodinia.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using moela::api::RunRequest;
using moela::util::Rng;

// Sizing of the NoC runs. At 1500 evaluations and population 24 a moela run
// takes three to four seconds and forest training is most of its time; the
// EA comparators take about a second on the same instances. One cycle over
// the seven applications then fits a half-minute measurement.
constexpr std::size_t kNocEvals = 1500;
constexpr std::size_t kNocPopulation = 24;
constexpr std::size_t kNocSnapshot = 50;
/// The NoC instances are the seven applications' traffic at the instance
/// seed the repository's benches use, so the pinned per-application PHV
/// bounds and EDP references describe exactly the instances that run; the
/// workload seed varies the searches and their order.
constexpr std::uint64_t kNocInstanceSeed = 1;

// fleet-sweep: 124 short zdt1/dtlz2 runs plus four short NoC runs, so NoC
// designs, whose reports are far larger, also cross the wire. zdt1/nsga2
// holds more than half the batch, so the medians fall inside one cell's
// distribution instead of on the gap between two cells.
struct FleetCell {
  const char* problem;
  const char* algorithm;
  std::size_t runs;
};
constexpr FleetCell kFleetCells[] = {{"zdt1", "nsga2", 68},
                                     {"zdt1", "moead", 20},
                                     {"dtlz2", "nsga2", 20},
                                     {"dtlz2", "moead", 16}};
constexpr std::size_t kFleetCheapEvals = 1000;
constexpr std::size_t kFleetSnapshot = 100;
constexpr std::size_t kFleetCheapPopulation = 24;
constexpr std::size_t kFleetNocEvals = 120;
constexpr std::size_t kFleetNocPopulation = 12;
constexpr std::size_t kFleetNocSnapshot = 20;

std::uint64_t draw_seed(Rng& rng) { return 1 + rng.below(1000000); }

RunRequest noc_request(const std::string& algorithm, const std::string& app,
                       std::uint64_t run_seed, std::size_t evals,
                       std::size_t population, std::size_t snapshot) {
  RunRequest r;
  r.problem = "noc";
  r.problem_options.app = app;
  r.problem_options.seed = kNocInstanceSeed;
  r.problem_options.num_objectives = 5;
  r.algorithm = algorithm;
  r.options.max_evaluations = evals;
  r.options.population_size = population;
  r.options.snapshot_interval = snapshot;
  r.options.seed = run_seed;
  return r;
}

/// The NoC runs of a seed, shared by noc-moela and noc-ea: all seven
/// applications in a seed-shuffled order, each with its own run seed. Every
/// seed runs every application once, so seeds differ in the searches, not
/// in the application mix.
struct NocRun {
  std::string app;
  std::uint64_t run_seed = 0;
};

std::vector<NocRun> noc_runs(std::uint64_t seed) {
  Rng rng(seed ^ 0x6e6f632d696e7374ULL);
  std::vector<std::string> apps;
  for (auto app : moela::sim::all_rodinia_apps()) {
    apps.push_back(moela::sim::app_name(app));
  }
  rng.shuffle(apps);
  std::vector<NocRun> out;
  for (const std::string& app : apps) out.push_back({app, draw_seed(rng)});
  return out;
}

std::vector<RunRequest> fleet_requests(std::uint64_t seed) {
  Rng rng(seed ^ 0x666c6565742d7377ULL);
  std::vector<RunRequest> out;
  for (const FleetCell& cell : kFleetCells) {
    for (std::size_t i = 0; i < cell.runs; ++i) {
      RunRequest r;
      r.problem = cell.problem;
      r.algorithm = cell.algorithm;
      r.options.max_evaluations = kFleetCheapEvals;
      r.options.population_size = kFleetCheapPopulation;
      r.options.snapshot_interval = kFleetSnapshot;
      r.options.seed = draw_seed(rng);
      out.push_back(std::move(r));
    }
  }
  rng.shuffle(out);
  // Each NoC run costs about as much as twenty cheap runs; closing the
  // batch with them keeps every seed's completion-time distribution the
  // same shape.
  const char* algorithms[] = {"nsga2", "moead"};
  std::size_t k = 0;
  for (const char* app : {"BP", "GAU", "SC", "SRAD"}) {
    out.push_back(noc_request(algorithms[k++ % 2], app, draw_seed(rng),
                              kFleetNocEvals, kFleetNocPopulation,
                              kFleetNocSnapshot));
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"noc-moela", "noc-ea",
                                                 "fleet-sweep"};
  return names;
}

std::vector<RunRequest> make_requests(const std::string& workload,
                                      std::uint64_t seed) {
  std::vector<RunRequest> out;
  if (workload == "noc-moela" || workload == "noc-ea") {
    const std::vector<std::string> algorithms =
        workload == "noc-moela"
            ? std::vector<std::string>{"moela"}
            : std::vector<std::string>{"moead", "nsga2", "moos"};
    for (const NocRun& run : noc_runs(seed)) {
      for (const std::string& algorithm : algorithms) {
        out.push_back(noc_request(algorithm, run.app, run.run_seed, kNocEvals,
                                  kNocPopulation, kNocSnapshot));
      }
    }
    return out;
  }
  if (workload == "fleet-sweep") return fleet_requests(seed);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace perfbench
