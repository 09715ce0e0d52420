// Tests for the runtime-composition layer (src/api/): the type-erased
// AnyProblem, the Optimizer interface, the string-keyed registry, the knob
// bag and the problem factory.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/any_problem.hpp"
#include "api/optimizer.hpp"
#include "api/problems.hpp"
#include "api/registry.hpp"
#include "problems/dtlz.hpp"
#include "problems/zdt.hpp"
#include "util/rng.hpp"

namespace moela::api {
namespace {

using problems::Zdt;
using problems::ZdtVariant;

AnyProblem zdt1(std::size_t num_variables = 10) {
  return AnyProblem(Zdt(ZdtVariant::kZdt1, num_variables));
}

RunOptions small_options() {
  RunOptions o;
  o.max_evaluations = 800;
  o.snapshot_interval = 200;
  o.seed = 5;
  o.population_size = 12;
  o.n_local = 3;
  // Keep the ML-assisted variants cheap.
  o.knobs.set("moela.forest.trees", 4)
      .set("moela.forest.max_depth", 5)
      .set("moela.ls.max_evals", 30)
      .set("moos.ls.max_evals", 30)
      .set("stage.forest.trees", 4)
      .set("stage.forest.max_depth", 5)
      .set("stage.ls.max_steps", 6);
  return o;
}

// --- AnyDesign / AnyProblem ----------------------------------------------

TEST(AnyDesign, WrapsAndUnwraps) {
  const auto d = AnyDesign::wrap<std::vector<double>>({1.0, 2.0});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d.as<std::vector<double>>(), (std::vector<double>{1.0, 2.0}));
}

TEST(AnyDesign, WrongTypeThrows) {
  const auto d = AnyDesign::wrap<int>(7);
  EXPECT_THROW(d.as<double>(), std::runtime_error);
  EXPECT_THROW(AnyDesign().as<int>(), std::runtime_error);
}

TEST(AnyDesign, CopySharesPayload) {
  const auto a = AnyDesign::wrap<std::vector<double>>({3.0});
  const AnyDesign b = a;  // O(1): shares the immutable payload
  EXPECT_EQ(&a.as<std::vector<double>>(), &b.as<std::vector<double>>());
}

TEST(AnyProblem, ForwardsTheFullConcept) {
  const AnyProblem p = zdt1(8);
  const Zdt direct(ZdtVariant::kZdt1, 8);
  EXPECT_EQ(p.num_objectives(), 2u);
  EXPECT_EQ(p.num_features(), direct.num_features());

  util::Rng rng_any(3), rng_direct(3);
  const AnyDesign d = p.random_design(rng_any);
  const auto d_direct = direct.random_design(rng_direct);
  // Same seed, same draws: the erased path is bitwise-faithful.
  EXPECT_EQ(d.as<Zdt::Design>(), d_direct);
  EXPECT_EQ(p.evaluate(d), direct.evaluate(d_direct));
  EXPECT_EQ(p.features(d), direct.features(d_direct));
  EXPECT_EQ(p.random_neighbor(d, rng_any).as<Zdt::Design>(),
            direct.random_neighbor(d_direct, rng_direct));
  EXPECT_EQ(p.mutate(d, rng_any).as<Zdt::Design>(),
            direct.mutate(d_direct, rng_direct));
  EXPECT_EQ(p.crossover(d, d, rng_any).as<Zdt::Design>(),
            direct.crossover(d_direct, d_direct, rng_direct));
}

TEST(AnyProblem, TargetDowncast) {
  const AnyProblem p = zdt1();
  ASSERT_NE(p.target<Zdt>(), nullptr);
  EXPECT_EQ(p.target<Zdt>()->variant(), ZdtVariant::kZdt1);
  EXPECT_EQ(p.target<problems::Dtlz2>(), nullptr);
}

TEST(AnyProblem, EmptyThrows) {
  const AnyProblem p;
  EXPECT_FALSE(p.has_value());
  EXPECT_THROW(p.num_objectives(), std::runtime_error);
}

// --- KnobBag --------------------------------------------------------------

TEST(KnobBag, GetOrFallsBack) {
  KnobBag k;
  k.set("a", 2.5);
  EXPECT_DOUBLE_EQ(k.get_or("a", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(k.get_or("missing", 7.0), 7.0);
  EXPECT_EQ(k.get_or("a", std::size_t{9}), 2u);
  EXPECT_TRUE(k.get_or("a", false));
  EXPECT_FALSE(k.get_or("missing", false));
}

TEST(KnobBag, NegativeValueForCountKnobFallsBack) {
  KnobBag k;
  k.set("count", -1.0);
  // Casting a negative double to size_t is UB; the bag must fall back.
  EXPECT_EQ(k.get_or("count", std::size_t{7}), 7u);
}

TEST(KnobBag, ParseAssignment) {
  KnobBag k;
  EXPECT_TRUE(k.parse_assignment("moela.delta=0.7"));
  EXPECT_DOUBLE_EQ(k.get_or("moela.delta", 0.0), 0.7);
  EXPECT_FALSE(k.parse_assignment("no-equals"));
  EXPECT_FALSE(k.parse_assignment("=1"));
  EXPECT_FALSE(k.parse_assignment("x="));
  EXPECT_FALSE(k.parse_assignment("x=abc"));
}

// --- Registry -------------------------------------------------------------

TEST(Registry, ListsAllEightBuiltins) {
  const auto names = registry().names();
  const std::set<std::string> got(names.begin(), names.end());
  const std::set<std::string> want{
      "moela",        "moela-noguide", "moela-ea-only", "moela-ls-only",
      "moead",        "moos",          "moo-stage",     "nsga2"};
  for (const auto& name : want) {
    EXPECT_TRUE(got.count(name)) << "missing optimizer: " << name;
  }
  EXPECT_GE(got.size(), 8u);
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(registry().create("does-not-exist", zdt1()),
               std::out_of_range);
}

TEST(Registry, DuplicateRegistrationThrows) {
  EXPECT_THROW(registry().add("moela",
                              [](AnyProblem) -> std::unique_ptr<Optimizer> {
                                return nullptr;
                              }),
               std::invalid_argument);
}

TEST(Registry, EveryOptimizerSmokeRunsOnZdt1Deterministically) {
  const RunOptions options = small_options();
  for (const auto& name : registry().names()) {
    const RunReport a = registry().create(name, zdt1())->run(options);
    EXPECT_FALSE(a.algorithm.empty());
    EXPECT_GE(a.evaluations, options.max_evaluations) << name;
    EXPECT_FALSE(a.snapshots.empty()) << name;
    EXPECT_FALSE(a.final_front.empty()) << name;
    EXPECT_FALSE(a.final_designs.empty()) << name;
    EXPECT_EQ(a.final_designs.size(), a.final_objectives.size()) << name;
    // Designs round-trip to the concrete type.
    EXPECT_EQ(a.designs_as<Zdt::Design>().size(), a.final_designs.size());

    // Same seed => identical report (no wall-clock budget involved).
    const RunReport b = registry().create(name, zdt1())->run(options);
    EXPECT_EQ(a.final_front, b.final_front) << name;
    EXPECT_EQ(a.final_objectives, b.final_objectives) << name;
    EXPECT_EQ(a.evaluations, b.evaluations) << name;
  }
}

TEST(Registry, KnobsChangeBehavior) {
  RunOptions options = small_options();
  const RunReport base = registry().create("moead", zdt1())->run(options);
  options.knobs.set("moead.delta", 0.1).set("moead.neighborhood_size", 3);
  const RunReport tweaked = registry().create("moead", zdt1())->run(options);
  // Different mating behavior must change the search trajectory.
  EXPECT_NE(base.final_objectives, tweaked.final_objectives);
}

// --- Problem factory ------------------------------------------------------

TEST(ProblemFactory, BuildsEveryListedProblem) {
  for (const auto& name : problem_names()) {
    ProblemOptions options;
    options.small_platform = true;  // keep the NoC instance small
    const AnyProblem p = make_problem(name, options);
    ASSERT_TRUE(p.has_value()) << name;
    util::Rng rng(1);
    const AnyDesign d = p.random_design(rng);
    const auto obj = p.evaluate(d);
    EXPECT_EQ(obj.size(), p.num_objectives()) << name;
    EXPECT_EQ(p.features(d).size(), p.num_features()) << name;
  }
}

TEST(ProblemFactory, UnknownProblemThrows) {
  EXPECT_THROW(make_problem("no-such-problem"), std::out_of_range);
}

TEST(ProblemFactory, HonorsInstanceOptions) {
  ProblemOptions options;
  options.num_objectives = 4;
  EXPECT_EQ(make_problem("dtlz2", options).num_objectives(), 4u);
  options.num_objectives = 3;
  EXPECT_EQ(make_problem("knapsack", options).num_objectives(), 3u);
  EXPECT_THROW(make_problem("zdt1", options), std::invalid_argument);
}

TEST(Registry, AblationSwitchKnobsMatchTheirVariants) {
  // Turning a component off via knob on "moela" must reproduce the
  // dedicated ablation variant.
  RunOptions options = small_options();
  options.knobs.set("moela.use_ea", 0.0);
  const RunReport via_knob = registry().create("moela", zdt1())->run(options);
  const RunReport via_variant =
      registry().create("moela-ls-only", zdt1())->run(small_options());
  EXPECT_EQ(via_knob.final_objectives, via_variant.final_objectives);
  // And the variant pins its component: the knob cannot switch it back on.
  RunOptions force_on = small_options();
  force_on.knobs.set("moela.use_ea", 1.0);
  const RunReport pinned =
      registry().create("moela-ls-only", zdt1())->run(force_on);
  EXPECT_EQ(pinned.final_objectives, via_variant.final_objectives);
}

}  // namespace
}  // namespace moela::api
