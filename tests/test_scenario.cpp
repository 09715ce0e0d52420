// Tests for the paper-scenario runner configuration and a reduced-scale
// smoke of the full scenario pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "api/problems.hpp"
#include "api/registry.hpp"
#include "exp/scenario.hpp"
#include "moo/metrics.hpp"
#include "util/numeric.hpp"

namespace moela::exp {
namespace {

struct EnvGuard {
  explicit EnvGuard(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
  }
  ~EnvGuard() {
    if (saved_.empty()) {
      unsetenv(name_);
    } else {
      setenv(name_, saved_.c_str(), 1);
    }
  }
  const char* name_;
  std::string saved_;
};

TEST(PaperBenchConfig, DefaultsWithoutEnv) {
  EnvGuard g1("MOELA_BENCH_EVALS");
  EnvGuard g2("MOELA_BENCH_SMALL");
  EnvGuard g3("MOELA_BENCH_SECONDS");
  unsetenv("MOELA_BENCH_EVALS");
  unsetenv("MOELA_BENCH_SMALL");
  unsetenv("MOELA_BENCH_SECONDS");
  const auto config = paper_bench_config_from_env();
  EXPECT_EQ(config.max_evaluations, 40000u);
  EXPECT_FALSE(config.small_platform);
  EXPECT_DOUBLE_EQ(config.max_seconds, 6.0);
  ASSERT_EQ(config.algorithms.size(), 3u);
  EXPECT_EQ(config.algorithms[0], "moela");
}

TEST(PaperBenchConfig, EnvOverrides) {
  EnvGuard g1("MOELA_BENCH_EVALS");
  EnvGuard g2("MOELA_BENCH_SMALL");
  EnvGuard g3("MOELA_BENCH_SECONDS");
  setenv("MOELA_BENCH_EVALS", "1234", 1);
  setenv("MOELA_BENCH_SMALL", "1", 1);
  setenv("MOELA_BENCH_SECONDS", "2.5", 1);
  const auto config = paper_bench_config_from_env();
  EXPECT_EQ(config.max_evaluations, 1234u);
  EXPECT_TRUE(config.small_platform);
  EXPECT_DOUBLE_EQ(config.max_seconds, 2.5);
}

TEST(PaperBenchConfig, PlatformSelection) {
  PaperBenchConfig config;
  config.small_platform = false;
  EXPECT_EQ(bench_platform(config).num_tiles(), 64u);
  config.small_platform = true;
  EXPECT_EQ(bench_platform(config).num_tiles(), 27u);
}

TEST(TunedRunOptions, UsesPaperParameters) {
  PaperBenchConfig config;
  const api::RunOptions run = tuned_run_options(config);
  EXPECT_EQ(run.population_size, 50u);  // N = 50 (Sec. V.B)
  EXPECT_EQ(run.n_local, 5u);
  EXPECT_EQ(run.max_evaluations, config.max_evaluations);
  EXPECT_DOUBLE_EQ(run.max_seconds, config.max_seconds);
  EXPECT_EQ(run.snapshot_interval, config.snapshot_interval);
  EXPECT_EQ(run.seed, config.seed);
  // Exactly these knobs, each at exactly this value; every other knob
  // keeps its registry default. The byte pins below run too few
  // evaluations to notice a dropped train_capacity or moos.ls.max_steps,
  // so this comparison is what guards those keys.
  const std::map<std::string, double> expected = {
      {"moela.delta", 0.9},  // delta = 0.9 (Sec. V.B)
      {"moela.iter_early", 2},
      {"moela.train_capacity", 2000},
      {"moela.train_interval", 3},
      {"moela.guide_mode", 1},
      {"moela.forest.trees", 6},
      {"moela.forest.max_depth", 8},
      {"moela.forest.max_features", 16},
      {"moela.forest.subsample", 0.7},
      {"moela.ls.max_steps", 20},
      {"moela.ls.patience", 8},
      {"moela.ls.max_evals", 60},
      {"moos.ls.max_steps", 20},
      {"moos.ls.patience", 8},
      {"moos.ls.max_evals", 60},
      {"stage.train_capacity", 2000},
      {"stage.forest.trees", 6},
      {"stage.forest.max_depth", 8},
      {"stage.forest.max_features", 16},
      {"stage.forest.subsample", 0.7},
      {"stage.ls.max_steps", 20},
      {"stage.ls.neighbors_per_step", 4},
  };
  EXPECT_EQ(run.knobs.values(), expected);
}

TEST(TunedRunOptions, EveryKnobIsDeclaredByTheRegistry) {
  // Unknown keys are ignored at run time, so a misspelled key would
  // silently fall back to the library default.
  const api::RunOptions run = tuned_run_options(PaperBenchConfig{});
  EXPECT_EQ(api::registry().unknown_knob_keys(run.knobs,
                                             api::registry().names()),
            std::vector<std::string>{});
}

// Byte pins for the paper-bench configuration: every registered algorithm
// at 3 and 5 objectives under tuned_run_options(), on the small platform
// (BFS, instance seed 1, 900 evaluations, no wall-clock budget). Each run
// is folded into one FNV-1a digest of its hexfloat final front, final
// objectives and snapshot fronts, plus the evaluation counts. A change to
// how the configuration is spelled, or to the comparators' hypervolume
// bookkeeping, must reproduce these bit for bit.
std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fold_points(std::uint64_t h,
                          const std::vector<moo::ObjectiveVector>& points) {
  for (const auto& point : points) {
    for (const double v : point) h = fnv1a(h, util::hexfloat(v) + ' ');
    h = fnv1a(h, "\n");
  }
  return fnv1a(h, "|");
}

std::string report_digest(const api::RunReport& report) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fold_points(h, report.final_front);
  h = fold_points(h, report.final_objectives);
  for (const auto& snapshot : report.snapshots) {
    h = fnv1a(h, std::to_string(snapshot.evaluations) + ':');
    h = fold_points(h, snapshot.front);
  }
  h = fnv1a(h, std::to_string(report.evaluations));
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

TEST(TunedRunOptionsPins, EveryAlgorithmAtThreeAndFiveObjectives) {
  PaperBenchConfig config;
  config.small_platform = true;
  config.max_evaluations = 900;
  config.max_seconds = 0.0;
  config.snapshot_interval = 150;
  const api::RunOptions options = tuned_run_options(config);

  struct Pin {
    const char* algorithm;
    std::size_t objectives;
    const char* digest;
  };
  const Pin pins[] = {
      {"moela", 3, "0508851401574835"},
      {"moela", 5, "38496a0a157ad156"},
      {"moela-noguide", 3, "8796d475cc7f9bc3"},
      {"moela-noguide", 5, "4f0359338e7fed5d"},
      {"moela-ea-only", 3, "cca4feea39c3a269"},
      {"moela-ea-only", 5, "125e7c8623812014"},
      {"moela-ls-only", 3, "939124c370234153"},
      {"moela-ls-only", 5, "216257ecd6ddac21"},
      {"moead", 3, "cca4feea39c3a269"},
      {"moead", 5, "125e7c8623812014"},
      {"moos", 3, "ceb40c94a9c81fee"},
      {"moos", 5, "9674153384c20dd6"},
      {"moo-stage", 3, "7176f97505f98650"},
      {"moo-stage", 5, "1586004085588e3f"},
      {"nsga2", 3, "3b77cd19761eaeb9"},
      {"nsga2", 5, "c8c4478b3bbb7534"},
  };
  ASSERT_EQ(std::size(pins), 2 * api::registry().names().size());
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.algorithm) + " " +
                 std::to_string(pin.objectives) + "-obj");
    api::ProblemOptions problem;
    problem.app = "BFS";
    problem.num_objectives = pin.objectives;
    problem.seed = 1;
    problem.small_platform = true;
    const api::RunReport report =
        api::registry()
            .create(pin.algorithm, api::make_problem("noc", problem))
            ->run(options);
    EXPECT_EQ(report_digest(report), pin.digest);
  }
}

TEST(Scenario, SmokeRunProducesComparableTraces) {
  PaperBenchConfig config;
  config.small_platform = true;
  config.max_evaluations = 900;
  config.max_seconds = 0.0;  // deterministic: evaluation budget only
  config.snapshot_interval = 150;
  const auto r = run_app_scenario(sim::RodiniaApp::kBfs, 3, config);
  ASSERT_EQ(r.runs.size(), 3u);
  ASSERT_EQ(r.algorithm_names.size(), 3u);
  EXPECT_EQ(r.algorithm_names[0], "MOELA");
  ASSERT_EQ(r.traces.size(), 3u);
  ASSERT_EQ(r.final_phv.size(), 3u);
  EXPECT_EQ(r.num_objectives, 3u);
  for (const auto& trace : r.traces) {
    EXPECT_FALSE(trace.empty());
    for (const auto& p : trace) {
      EXPECT_GE(p.phv, 0.0);
    }
  }
  for (double phv : r.final_phv) EXPECT_GE(phv, 0.0);
  EXPECT_GT(r.common_stop_seconds, 0.0);
}

TEST(Scenario, DeterministicWithoutWallBudget) {
  PaperBenchConfig config;
  config.small_platform = true;
  config.max_evaluations = 600;
  config.max_seconds = 0.0;
  config.snapshot_interval = 200;
  config.algorithms = {"moead"};
  const auto a = run_app_scenario(sim::RodiniaApp::kSrad, 3, config);
  const auto b = run_app_scenario(sim::RodiniaApp::kSrad, 3, config);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces[0].size(); ++i) {
    EXPECT_DOUBLE_EQ(a.traces[0][i].phv, b.traces[0][i].phv);
  }
}

}  // namespace
}  // namespace moela::exp
