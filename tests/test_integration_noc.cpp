// End-to-end integration: the full MOELA pipeline on the NoC design problem
// (small platform for speed), plus NocProblem's MooProblem conformance.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/any_problem.hpp"
#include "api/optimizer.hpp"
#include "api/registry.hpp"
#include "core/eval_context.hpp"
#include "core/moela.hpp"
#include "exp/analysis.hpp"
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
  api::RunOptions options;
  options.max_evaluations = 1000;
  options.snapshot_interval = 200;
  options.population_size = 12;
  options.n_local = 2;
  options.knobs.set("moela.neighborhood_size", 5)
      .set("moela.train_capacity", 1000)
      .set("moela.forest.trees", 6)
      .set("moela.forest.max_depth", 8)
      .set("moela.forest.max_features", 16)
      .set("moela.ls.max_steps", 10)
      .set("moela.ls.patience", 5)
      .set("moela.ls.max_evals", 40)
      .set("moos.ls.max_steps", 8)
      .set("moos.ls.patience", 4)
      .set("moos.ls.max_evals", 24);
  for (const std::string algorithm : {"moela", "moead", "moos"}) {
    const api::RunReport report =
        api::registry()
            .create(algorithm, api::AnyProblem(problem))
            ->run(options);
    const auto designs = report.designs_as<noc::NocDesign>();
    EXPECT_FALSE(designs.empty()) << algorithm;
    for (const auto& d : designs) {
      EXPECT_TRUE(noc::is_feasible(problem.spec(), d)) << algorithm;
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

std::uint64_t utilization_digest(const std::vector<double>& utilization) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : utilization) {
    for (const unsigned char c : util::hexfloat(v)) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= ' ';
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(NocBytePins, EveryAppBothPlatformsWithDetail) {
  // Per platform and app (instance seed 1), three seeded random designs:
  // as generated, with the link list shuffled (link ids no longer follow
  // tile order), and with one link listed twice (the later copy carries
  // the traffic, both count toward the router degrees). Each line is the
  // hexfloat objectives, then EvaluationDetail: max link utilization, the
  // FNV-1a digest of the per-link utilization, mean hops and peak
  // temperature.
  const std::vector<std::string> expected = {
      "0x1.20e3ea73c6b1ep+5 0x1.06ddc27b6ffb4p+9 0x1.744796d29e1cep+4 "
      "0x1.15032fcb2af6bp+15 0x1.796a0e473a133p+6 | 0x1.b07c11e0fa2d8p+6 "
      "b853c7ed3821b5e1 0x1.7cf6171b449a2p+1 0x1.a16e0c67b08ccp+3",
      "0x1.2bd63dc252145p+5 0x1.e064e83ef7cf4p+8 0x1.9adc03a659fbep+4 "
      "0x1.201b9d1ad510fp+15 0x1.26df63d45ccc2p+6 | 0x1.b6a4a057370d4p+6 "
      "87261205b3b0e229 0x1.8b6588693cf15p+1 0x1.90bfe2e5ceb7ap+3",
      "0x1.285229e44fac5p+5 0x1.6b88d51be85bdp+9 0x1.7d8c4a7e7fce6p+4 "
      "0x1.177b2b8121bccp+15 0x1.bec721ce4799bp+6 | 0x1.21b57156ab679p+7 "
      "65c8dea6b6a41c79 0x1.897947b10cfa3p+1 0x1.a655bc3cceb4ep+3",
      "0x1.6caabbab05257p+5 0x1.5f939684b4865p+9 0x1.bac28025fdda8p+3 "
      "0x1.66e9a5c7b8f95p+15 0x1.07f37a9bf730ep+8 | 0x1.0b49bcd4f621fp+7 "
      "51d954b4b42856ea 0x1.7651464b0428cp+1 0x1.3dd0ca593e6dbp+4",
      "0x1.7dffafb3012cfp+5 0x1.0e0f07f09a524p+10 0x1.fd6645bb90bb8p+3 "
      "0x1.7071352b557bep+15 0x1.745fa5dfb9d91p+8 | 0x1.737798668b26bp+7 "
      "54cfe1709b569378 0x1.881ba5bf1f10fp+1 0x1.5537493fde968p+4",
      "0x1.7d8b099a0adddp+5 0x1.df11e7d22b271p+9 0x1.d560a323dc7b7p+3 "
      "0x1.63a1e76c6f10dp+15 0x1.6ce095db38975p+8 | 0x1.255cab3bb3901p+7 "
      "5134a625cc4306c9 0x1.8a5c293887cc8p+1 0x1.6d78b979dee3p+4",
      "0x1.889d9875823b4p+5 0x1.38e49a424aa8ep+11 0x1.4b9f49e06ce82p+3 "
      "0x1.8aeddabc21ad6p+15 0x1.f55a75eefc532p+7 | 0x1.3c8f54904751ap+8 "
      "4d63921e7a881be1 0x1.6eab4c8b8aef5p+1 0x1.45ac33b15861p+4",
      "0x1.9149aca24c575p+5 0x1.522e68218d546p+11 0x1.4a85b10d89ac9p+3 "
      "0x1.898bbcdbcc97p+15 0x1.43146d3c594bap+8 | 0x1.ca698c20d8d33p+8 "
      "6eb758c6dddaa037 0x1.76c4a948108fp+1 0x1.446aaa5dca285p+4",
      "0x1.90a69fd8db02fp+5 0x1.338ae2284fb86p+11 0x1.2aebbf3893b05p+3 "
      "0x1.8df9646455356p+15 0x1.10ef8055f70ecp+8 | 0x1.a5b53239c30bp+8 "
      "5beeaa52127affa0 0x1.78c5957311a5ep+1 0x1.4c5f266fff233p+4",
      "0x1.341c2db18f032p+5 0x1.0fb16128d0ae1p+9 0x1.e2bde38d2d846p+2 "
      "0x1.2ec219af8fap+15 0x1.1bde5d7fe9fffp+8 | 0x1.05df7d412f486p+7 "
      "6811b9fa68ee3870 0x1.7f5d8b56195bfp+1 0x1.4d4a9a2197716p+4",
      "0x1.37e15b3cfe0b5p+5 0x1.054ce07bf029bp+9 0x1.d3bca57b8cee1p+2 "
      "0x1.306365fabf96fp+15 0x1.29f9041a46234p+8 | 0x1.c61ba58a08656p+6 "
      "85d04a0da8702545 0x1.840e77158d8afp+1 0x1.53209ec3c623ap+4",
      "0x1.2d9103edc872cp+5 0x1.300cd63336a69p+9 0x1.e00d538c6b935p+2 "
      "0x1.276c4b93395ep+15 0x1.3eaa8026df5e8p+8 | 0x1.1c09b12145695p+7 "
      "a4501307ece8eb51 0x1.79d44a2313bf6p+1 0x1.591990db22ee4p+4",
      "0x1.142692bf25b79p+5 0x1.d5ca5bffcbb9cp+8 0x1.0c2e463f6b30bp+3 "
      "0x1.076d1037bccbdp+15 0x1.ca539acbc5cdbp+7 | 0x1.d08920ce6e3d9p+6 "
      "b66f78552f7084a3 0x1.831b859ab06b8p+1 0x1.2abfef7b2d93ep+4",
      "0x1.1763a1d99c83ap+5 0x1.f953886352ff5p+8 0x1.0816a0e9358f3p+3 "
      "0x1.03e4c949497a9p+15 0x1.dfec61a154eb7p+7 | 0x1.33475d4a72acep+7 "
      "2a84f4a76a42e74f 0x1.87a5b1fc8af15p+1 0x1.2ecdace6a167dp+4",
      "0x1.124f5ec1b4f77p+5 0x1.18698dba6c33bp+9 0x1.165bcf530c7fdp+3 "
      "0x1.12e1aba67713ap+15 0x1.b39813a054f7bp+7 | 0x1.238fafab6db43p+7 "
      "575cefadbe2944d9 0x1.8332982919764p+1 0x1.22349784bb139p+4",
      "0x1.cde9bbde9e9b9p+5 0x1.ab3e095f77124p+10 0x1.75c750eab172cp+3 "
      "0x1.ac6e4452d83cp+15 0x1.343c20c8cf79dp+8 | 0x1.97c2c7028d826p+7 "
      "982946af171532dd 0x1.87c95fab8c3dfp+1 0x1.6140c50bd2f53p+4",
      "0x1.c872e8c4d45dcp+5 0x1.3f310067ddf23p+10 0x1.5a83cf1d36f5p+3 "
      "0x1.ac7797273bd31p+15 0x1.06666dcb27c9cp+8 | 0x1.3736bccc28895p+7 "
      "144acfd6b728f825 0x1.8326ea38fcf3cp+1 0x1.47a69d52254a8p+4",
      "0x1.d4ed74342664ep+5 0x1.692ad5c50decp+10 0x1.82179ab2acba6p+3 "
      "0x1.bf9f36f76243bp+15 0x1.223f6334b716ap+8 | 0x1.61019ce55bb7ep+7 "
      "f05536111e1cbf32 0x1.907f8f166f861p+1 0x1.5af319b0b87d6p+4",
      "0x1.081104ce41744p+6 0x1.c1f48339205f8p+10 0x1.b4b545cf48181p+3 "
      "0x1.feddeb3968d21p+15 0x1.1bfa4067fa599p+7 | 0x1.a821e3989ef66p+7 "
      "4c69a146bdc50d1d 0x1.84b29d70b21bp+1 0x1.2dfbfbc7b1627p+4",
      "0x1.04f9cb2d62af4p+6 0x1.8d702a8d2f988p+10 0x1.a33a1ae50e206p+3 "
      "0x1.ebfc87230847ep+15 0x1.e19dd3629419ep+7 | 0x1.6c298946ea76bp+7 "
      "42931a8b05cd37c1 0x1.8025f4bed3b51p+1 0x1.47edfa08c2fc4p+4",
      "0x1.f6535983a3bc4p+5 0x1.6a4ec74a5bf71p+10 0x1.82339f9b342f3p+3 "
      "0x1.0098abdeae3eap+16 0x1.ca3b113e72625p+7 | 0x1.922dd2e67a92dp+7 "
      "aa73babbcdcaecd4 0x1.744572290ebcap+1 0x1.463754ef210a4p+4",
      "0x1.149b9f80a0029p+4 0x1.2a939fa99806fp+7 0x1.41e230156318ep+4 "
      "0x1.6235bb4233e1fp+12 0x1.a5e4b4cf6034fp+5 | 0x1.9639933fd93c7p+5 "
      "5a6d1a48dd4c3949 0x1.4fa4d7bd25813p+1 0x1.4489adcf9470ap+3",
      "0x1.fb71bc5ab4dfep+3 0x1.861269b83dbefp+6 0x1.3483c7722ea4fp+4 "
      "0x1.5ad9a79b834adp+12 0x1.f3390a0c1456ep+6 | 0x1.7a9533f330942p+5 "
      "d6f0e27036e90a77 0x1.33dfa98116374p+1 0x1.b3b96b79eaf81p+3",
      "0x1.04f6d5b76b615p+4 0x1.dbc46b9d9a34dp+6 0x1.5ee53838d0a6fp+4 "
      "0x1.61ea9ee5169c6p+12 0x1.3d187a94ddf04p+7 | 0x1.a04b76efee7a5p+5 "
      "b21642f0d82b1ee0 0x1.4286873131844p+1 0x1.cea140e6cbc47p+3",
      "0x1.36d9181cd166fp+4 0x1.aafdda2b0f2a7p+6 0x1.1fd83df0f09f5p+3 "
      "0x1.a0058078974f5p+12 0x1.2cfa03ac03ca7p+7 | 0x1.6711e8b9b28acp+5 "
      "e8c753a2a0f95c02 0x1.2c59e6b2ab1fdp+1 0x1.ee20298f4b811p+3",
      "0x1.41f981e1fe52ep+4 0x1.705a9713c4c55p+7 0x1.452ee371af9f7p+3 "
      "0x1.9e4ca730c4c7p+12 0x1.a6d1e36f43357p+6 | 0x1.40e42fc1d0e5ep+6 "
      "eeeab8a986af270f 0x1.371a20be77de4p+1 0x1.ecb6eed4d57a2p+3",
      "0x1.3fb62b54b67f6p+4 0x1.4aa7eea283628p+7 0x1.299c7e3b7026fp+3 "
      "0x1.aca8dcf3837a4p+12 0x1.0dc44a50d4e4dp+8 | 0x1.e6526ca44fefbp+5 "
      "60170c7a7c74a6ed 0x1.3aa2d756d07f5p+1 0x1.1cf73cfc7e018p+4",
      "0x1.43b0a8f2e1b57p+4 0x1.f6c38ac4b8d52p+7 0x1.d8ea303944ff2p+2 "
      "0x1.b3c3d52584a4bp+12 0x1.d3d8e1cd96b89p+6 | 0x1.55b851299bc74p+6 "
      "eed8a2c308422568 0x1.22ce7768eb63ap+1 0x1.cf7e759c4e72bp+3",
      "0x1.6708cf132cd6fp+4 0x1.ec9e10a76cf78p+8 0x1.7a27b41a5ef5fp+2 "
      "0x1.d4ad85b7228d6p+12 0x1.bbb51a42b4dadp+6 | 0x1.2e23d4fb30129p+7 "
      "78698ef4eb4b7488 0x1.428f6aba4f556p+1 0x1.cc1868e3c93dap+3",
      "0x1.5545623101874p+4 0x1.6750aab31c25ap+8 0x1.bfe30ab3b0612p+2 "
      "0x1.d7d0e034989d2p+12 0x1.ae3d4e621c2a4p+6 | 0x1.de60211bb6d42p+6 "
      "71783f4691d2f528 0x1.38477b1940a44p+1 0x1.c4b804cc5f9d2p+3",
      "0x1.06056221444p+4 0x1.9a444d7000d0cp+6 0x1.60f4e2f7bffep+2 "
      "0x1.79fd6754f19c7p+12 0x1.6e9981ab85f78p+7 | 0x1.690a8e3904b1fp+5 "
      "a6e663498d529282 0x1.2cf33e10844d2p+1 0x1.d9ac1406724e8p+3",
      "0x1.1bfd864670e28p+4 0x1.01102d028924cp+7 0x1.43d11b29a9ba9p+2 "
      "0x1.647ca20c0de17p+12 0x1.754e23a8d69fdp+7 | 0x1.9f7f1c379c9aap+5 "
      "0346495fafe782e6 0x1.462efa0b360fp+1 0x1.e003028697fc7p+3",
      "0x1.09db748010ac6p+4 0x1.966b05a9107c2p+6 0x1.2b0de74079dafp+2 "
      "0x1.7af80594842f7p+12 0x1.fb09e3b591481p+6 | 0x1.55d403db6b72p+5 "
      "ba59b6632185a5af 0x1.3702d69f185a1p+1 0x1.df6febfe40c17p+3",
      "0x1.e21fa3e6f3b1bp+3 0x1.40285c81e0f52p+6 0x1.74ca791ac2222p+2 "
      "0x1.38e28f7e4e64cp+12 0x1.6c40163781822p+6 | 0x1.6c37e6be5156fp+5 "
      "594cf9802b5d0fd1 0x1.3a647db249268p+1 0x1.74ed5bb2eaecp+3",
      "0x1.eb9bbad5a4fb5p+3 0x1.8e859890194c1p+6 0x1.7f5c8df73a90bp+2 "
      "0x1.3f6ad23b609bep+12 0x1.211cb9a3219eap+7 | 0x1.a91dcba1e6341p+5 "
      "84d0119ad268ba90 0x1.4093d8d12cd5fp+1 0x1.debd45d1c27acp+3",
      "0x1.e1efb00eb5e41p+3 0x1.9b180d2746d77p+6 0x1.9274c74044817p+2 "
      "0x1.3eb7ba7b1b4eap+12 0x1.b48de80f2cb69p+6 | 0x1.7000bd133f0fdp+5 "
      "a7209ab18d996804 0x1.4017187ceb691p+1 0x1.affc2341be17fp+3",
      "0x1.7522498d10a93p+4 0x1.ed4f22176f918p+7 0x1.0be152e7c6064p+3 "
      "0x1.f2227238d1d7fp+12 0x1.0b4fc1a68a978p+7 | 0x1.3c698b230f2b9p+6 "
      "c4eecd321a1af5a9 0x1.2da23d8196f98p+1 0x1.f4ebc412ed43dp+3",
      "0x1.80599b0f86d74p+4 0x1.6ad30ec5f7534p+7 0x1.181513afd2006p+3 "
      "0x1.f739906612351p+12 0x1.d0cbdb51689d9p+7 | 0x1.d5d98ff075765p+5 "
      "c804653accba036b 0x1.36b35ac903ce8p+1 0x1.13122fe05f1b7p+4",
      "0x1.7e29b1e57bca1p+4 0x1.9fd7be21f5363p+7 0x1.fba474401a134p+2 "
      "0x1.012975e5ec09bp+13 0x1.0c5b8d12686d3p+7 | 0x1.d1a9562722003p+5 "
      "2111422300f0018f 0x1.3aa74db1028f8p+1 0x1.fc8b80e1d99eep+3",
      "0x1.a826d7d1a5bcbp+4 0x1.aeda0f4d71f66p+7 0x1.2f02ff45d8eb6p+3 "
      "0x1.1d296def1e964p+13 0x1.a0ac1b3e83cedp+6 | 0x1.f2f395edfb8fcp+5 "
      "b8053de7b08f92f1 0x1.301782609b2d5p+1 0x1.cce715a39a9e1p+3",
      "0x1.991b1d9a6da3fp+4 0x1.206e87cb1c7f4p+7 0x1.2c8aead9b2b9p+3 "
      "0x1.1150e043f0191p+13 0x1.adb8b15984d9cp+6 | 0x1.ac2b13e4675f4p+5 "
      "e1a3b02e12aadf3f 0x1.254e0c20ff222p+1 0x1.cf53e5e93f5d6p+3",
      "0x1.af30a6afc85bfp+4 0x1.ec36344100a6bp+7 0x1.399a2346b942ap+3 "
      "0x1.2665fe912990fp+13 0x1.ddef93ac29264p+6 | 0x1.77dd3373baf1cp+6 "
      "fa889ffcd2ad471d 0x1.3adcd79d3cb1dp+1 0x1.e31f194313d0ep+3",
  };
  std::vector<std::string> actual;
  for (const auto& spec :
       {noc::PlatformSpec::paper_4x4x4(), noc::PlatformSpec::small_3x3x3()}) {
    const noc::DesignOps ops(spec);
    for (const sim::RodiniaApp app : sim::all_rodinia_apps()) {
      const auto workload = sim::make_workload(spec, app, 1);
      util::Rng rng(static_cast<std::uint64_t>(app) + 300);
      noc::NocDesign plain = ops.random_design(rng);
      noc::NocDesign shuffled = ops.random_design(rng);
      rng.shuffle(shuffled.links);
      noc::NocDesign duplicated = ops.random_design(rng);
      duplicated.links.insert(duplicated.links.begin(),
                              duplicated.links[rng.below(
                                  duplicated.links.size())]);
      for (const noc::NocDesign* design : {&plain, &shuffled, &duplicated}) {
        noc::EvaluationDetail detail;
        const auto objectives = noc::evaluate_objectives(
            spec, *design, workload, {}, &detail);
        char digest[17];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(
                          utilization_digest(detail.link_utilization)));
        actual.push_back(hex_objectives(objectives.first(5)) + " | " +
                         util::hexfloat(detail.max_link_utilization) + ' ' +
                         digest + ' ' + util::hexfloat(detail.mean_hops) +
                         ' ' + util::hexfloat(detail.peak_temperature));
      }
    }
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
