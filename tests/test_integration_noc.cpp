// End-to-end integration: the full MOELA pipeline on the NoC design problem
// (small platform for speed), plus NocProblem's MooProblem conformance.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/eval_context.hpp"
#include "core/moela.hpp"
#include "exp/analysis.hpp"
#include "exp/experiment.hpp"
#include "noc/constraints.hpp"
#include "noc/io.hpp"
#include "noc/problem.hpp"
#include "sim/rodinia.hpp"
#include "util/numeric.hpp"

namespace moela {
namespace {

noc::NocProblem small_problem(std::size_t m, std::uint64_t seed = 1) {
  auto spec = noc::PlatformSpec::small_3x3x3();
  auto workload = sim::make_workload(spec, sim::RodiniaApp::kBfs, seed);
  return noc::NocProblem(std::move(spec), std::move(workload), m);
}

core::MoelaConfig small_config() {
  core::MoelaConfig c;
  c.population_size = 15;
  c.n_local = 3;
  c.neighborhood_size = 5;
  c.train_capacity = 1000;
  c.forest.num_trees = 6;
  c.forest.max_depth = 8;
  c.forest.max_features = 16;
  c.local_search.max_steps = 10;
  c.local_search.patience = 5;
  c.local_search.max_evaluations = 40;
  return c;
}

TEST(NocProblem, SatisfiesConceptContract) {
  const auto problem = small_problem(5);
  util::Rng rng(2);
  const auto d = problem.random_design(rng);
  EXPECT_EQ(problem.num_objectives(), 5u);
  const auto obj = problem.evaluate(d);
  EXPECT_EQ(obj.size(), 5u);
  for (double v : obj) EXPECT_GE(v, 0.0);
  const auto f = problem.features(d);
  EXPECT_EQ(f.size(), problem.num_features());
}

TEST(NocProblem, ObjectiveCountSelectsScenario) {
  for (std::size_t m : {3ul, 4ul, 5ul}) {
    const auto problem = small_problem(m);
    util::Rng rng(3);
    EXPECT_EQ(problem.evaluate(problem.random_design(rng)).size(), m);
  }
  auto spec = noc::PlatformSpec::small_3x3x3();
  auto w = sim::make_workload(spec, sim::RodiniaApp::kBfs, 1);
  EXPECT_THROW(noc::NocProblem(spec, w, 6), std::invalid_argument);
  EXPECT_THROW(noc::NocProblem(spec, w, 1), std::invalid_argument);
}

TEST(NocProblem, EvaluationIsPure) {
  const auto problem = small_problem(5);
  util::Rng rng(5);
  const auto d = problem.random_design(rng);
  EXPECT_EQ(problem.evaluate(d), problem.evaluate(d));
}

TEST(NocProblem, FeaturesDistinguishDesigns) {
  const auto problem = small_problem(3);
  util::Rng rng(7);
  const auto a = problem.random_design(rng);
  const auto b = problem.random_design(rng);
  EXPECT_NE(problem.features(a), problem.features(b));
}

TEST(Integration, MoelaOnNocKeepsAllDesignsFeasible) {
  const auto problem = small_problem(5);
  core::EvalContext<noc::NocProblem> ctx(problem, 11, 1500);
  core::Moela<noc::NocProblem> algo(small_config());
  const auto pop = algo.run(ctx);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    const auto report = noc::validate(problem.spec(), pop.design(i));
    EXPECT_TRUE(report.ok())
        << (report.violations.empty() ? "?" : report.violations.front());
  }
}

TEST(Integration, ArchiveIsNonDominatedAndConsistent) {
  const auto problem = small_problem(3);
  core::EvalContext<noc::NocProblem> ctx(problem, 13, 1200);
  core::Moela<noc::NocProblem> algo(small_config());
  algo.run(ctx);
  const auto points = ctx.archive().objective_set();
  ASSERT_FALSE(points.empty());
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(moo::dominates(points[i], points[j]));
      }
    }
  }
}

TEST(Integration, MoelaImprovesOverInitialPopulation) {
  const auto problem = small_problem(5);
  // Initial-quality proxy: PHV of a pure random population of equal size.
  core::EvalContext<noc::NocProblem> random_ctx(problem, 17, 1500);
  while (!random_ctx.exhausted()) {
    random_ctx.evaluate(problem.random_design(random_ctx.rng()));
  }
  core::EvalContext<noc::NocProblem> ctx(problem, 17, 1500);
  core::Moela<noc::NocProblem> algo(small_config());
  algo.run(ctx);

  exp::SnapshotSet runs;
  random_ctx.take_snapshot();
  ctx.take_snapshot();
  runs.push_back(random_ctx.snapshots());
  runs.push_back(ctx.snapshots());
  const auto bounds = exp::global_bounds(runs);
  const double random_phv = exp::final_phv(
      random_ctx.archive().objective_set(), bounds);
  const double moela_phv =
      exp::final_phv(ctx.archive().objective_set(), bounds);
  EXPECT_GT(moela_phv, random_phv);
}

TEST(Integration, FullRunnerOnNocProblem) {
  const auto problem = small_problem(4);
  exp::RunConfig config;
  config.max_evaluations = 1000;
  config.snapshot_interval = 200;
  config.population_size = 12;
  config.n_local = 2;
  config.moela = small_config();
  config.moos.search.max_steps = 8;
  config.moos.search.patience = 4;
  config.moos.search.max_evaluations = 24;
  config.stage.search.max_steps = 8;
  config.stage.search.neighbors_per_step = 3;
  config.stage.forest.num_trees = 4;
  config.stage.forest.max_depth = 6;
  for (exp::Algorithm a : {exp::Algorithm::kMoela, exp::Algorithm::kMoeaD,
                           exp::Algorithm::kMoos}) {
    const auto result = exp::run_algorithm(a, problem, config);
    EXPECT_FALSE(result.final_designs.empty());
    for (const auto& d : result.final_designs) {
      EXPECT_TRUE(noc::is_feasible(problem.spec(), d));
    }
  }
}

TEST(Integration, DeterministicEndToEnd) {
  const auto problem = small_problem(3);
  auto run_once = [&] {
    core::EvalContext<noc::NocProblem> ctx(problem, 23, 800);
    core::Moela<noc::NocProblem> algo(small_config());
    algo.run(ctx);
    return ctx.archive().objective_set();
  };
  EXPECT_EQ(run_once(), run_once());
}

// Byte pins for the NoC hot path on the paper's 4x4x4 platform (BFS,
// instance seed 1, 5 objectives). Every expected string below was produced
// by the straightforward implementation of the objective sweep and of the
// forest's exact split search; any rewrite of either must reproduce them
// bit for bit. Objectives are pinned as hexfloats, designs as the FNV-1a
// digest of their v1 text form.
noc::NocProblem paper_problem() {
  auto spec = noc::PlatformSpec::paper_4x4x4();
  auto workload = sim::make_workload(spec, sim::RodiniaApp::kBfs, 1);
  return noc::NocProblem(std::move(spec), std::move(workload), 5);
}

std::string hex_objectives(const moo::ObjectiveVector& objectives) {
  std::string out;
  for (double v : objectives) {
    if (!out.empty()) out += ' ';
    out += util::hexfloat(v);
  }
  return out;
}

std::uint64_t design_digest(const noc::NocDesign& design) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : noc::design_to_string(design)) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(NocBytePins, RandomDesignObjectives) {
  const std::vector<std::string> expected = {
      "0x1.2e84d76616534p+5 0x1.40b10ed1a794fp+9 0x1.b2acf72d9bd83p+4 "
      "0x1.1f1abef8969a1p+15 0x1.65daab650b5c3p+6",
      "0x1.22eca9f84814dp+5 0x1.1f34e79cba22ep+9 0x1.870210f939934p+4 "
      "0x1.1988bc34a9031p+15 0x1.3f2645a23cd54p+8",
      "0x1.2adbdde1b6c2cp+5 0x1.157a8c15bad6bp+9 0x1.ae35c39c60073p+4 "
      "0x1.2398667fe53afp+15 0x1.48dc3b98dc476p+7",
      "0x1.24ac1b7030c1p+5 0x1.f4979386bbfbbp+8 0x1.9ea70ed7a7ab8p+4 "
      "0x1.18ee983505296p+15 0x1.3482b57be6606p+7",
      "0x1.1d916e8cd75adp+5 0x1.9e6e1cba3946cp+8 0x1.7d8e00c2343b8p+4 "
      "0x1.12b5a03cdf4fap+15 0x1.2e650abdb0301p+7",
      "0x1.2a8efab78af6p+5 0x1.c0a827b4c72c5p+8 0x1.ab0598df00566p+4 "
      "0x1.17ba6a1d741adp+15 0x1.2a0f9a0779bf9p+8",
      "0x1.260e970a9ccf7p+5 0x1.1fdab95f1c43bp+9 0x1.6b39a3e6f6725p+4 "
      "0x1.1d855adaaa73p+15 0x1.74990e3080a0fp+7",
      "0x1.2781bf542fb35p+5 0x1.e86cdceb6be39p+8 0x1.96694ec514b0ep+4 "
      "0x1.1e6c2d0a8ab78p+15 0x1.1bf65df9a52c5p+7",
  };
  const auto problem = paper_problem();
  util::Rng rng(2024);
  std::vector<std::string> actual;
  for (int i = 0; i < 8; ++i) {
    const auto design = problem.random_design(rng);
    actual.push_back(hex_objectives(problem.evaluate(design)));
  }
  EXPECT_EQ(actual, expected);
}

TEST(NocBytePins, ShortMoelaRunFinalPopulation) {
  const std::vector<std::string> expected_objectives = {
      "0x1.186def316a08ap+5 0x1.9af2f26d6e096p+8 0x1.6de5a13455c18p+4 "
      "0x1.1ac795686a328p+15 0x1.3916d843357ffp+6",
      "0x1.18910b75b4144p+5 0x1.80efa68a25cd9p+8 0x1.6e6722d850a37p+4 "
      "0x1.10748d64d8e19p+15 0x1.4472e846c2f12p+7",
      "0x1.18536f279780ap+5 0x1.a48c5ae425611p+8 0x1.6b12037061a94p+4 "
      "0x1.10b5dd34709a9p+15 0x1.55c267e20ec0fp+7",
      "0x1.192b8ecd7da4cp+5 0x1.7b931e6f29111p+8 0x1.74fdff05d81bbp+4 "
      "0x1.162d0ac5aff09p+15 0x1.617b46415346cp+7",
      "0x1.16ff094f8ecc2p+5 0x1.a5f523856d9eap+8 0x1.73155acaae3dbp+4 "
      "0x1.17736af2a2377p+15 0x1.343545aab8f8bp+7",
      "0x1.1b8e2dd25db94p+5 0x1.a90e6324cc84p+8 0x1.7ec57a3e10024p+4 "
      "0x1.155f12a3f58f6p+15 0x1.068994c8becc5p+7",
      "0x1.19f8fd0c9a482p+5 0x1.b64466a5bc96cp+8 0x1.6b6713822dd59p+4 "
      "0x1.1dc1c0c96c42ap+15 0x1.40ecc36db9ff5p+6",
      "0x1.18536f279780ap+5 0x1.a48c5ae425611p+8 0x1.6b12037061a94p+4 "
      "0x1.10b5dd34709a9p+15 0x1.55c267e20ec0fp+7",
      "0x1.191f5b15aac5cp+5 0x1.91881ba725db2p+8 0x1.7e6a7929aba09p+4 "
      "0x1.16ae595529d6bp+15 0x1.3449b6cb9126fp+6",
      "0x1.18910b75b4144p+5 0x1.80efa68a25cd9p+8 0x1.6e6722d850a37p+4 "
      "0x1.10748d64d8e19p+15 0x1.4472e846c2f12p+7",
      "0x1.186ad45da8333p+5 0x1.9167498cd2344p+8 0x1.7099da0002103p+4 "
      "0x1.164ea1566fd68p+15 0x1.1b14271ba3fdbp+7",
      "0x1.1831332192854p+5 0x1.9ae4565890fdcp+8 0x1.71e50bd269043p+4 "
      "0x1.1a71a0d8f0eb9p+15 0x1.40ecc36db9ff5p+6",
  };
  const std::vector<std::uint64_t> expected_designs = {
      0x223c07f21af4545aULL,
      0xc802b21959005694ULL,
      0x9b8a535225f36b60ULL,
      0xb3a647e3becb62a6ULL,
      0x009f7d8bc8abd5bcULL,
      0xcd6a3e8d0b99d65eULL,
      0x82ce7a65d0d01694ULL,
      0x9b8a535225f36b60ULL,
      0xeff96c6f73cf4c95ULL,
      0xc802b21959005694ULL,
      0x4f6bf75bbf4f3e4eULL,
      0x697ce043c815d140ULL,
  };
  const auto problem = paper_problem();
  core::EvalContext<noc::NocProblem> ctx(problem, 31, 400);
  core::MoelaConfig config;  // default forest: 24 trees, depth 16
  config.population_size = 12;
  core::Moela<noc::NocProblem> algo(config);
  const auto pop = algo.run(ctx);
  EXPECT_EQ(ctx.evaluations(), 400u);
  std::vector<std::string> objectives;
  std::vector<std::uint64_t> designs;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    objectives.push_back(hex_objectives(pop.objectives(i)));
    designs.push_back(design_digest(pop.design(i)));
  }
  EXPECT_EQ(objectives, expected_objectives);
  EXPECT_EQ(designs, expected_designs);
}

}  // namespace
}  // namespace moela
