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
#include "api/executor.hpp"
#include "api/optimizer.hpp"
#include "api/problems.hpp"
#include "api/registry.hpp"
#include "api/result_cache.hpp"
#include "api/serde.hpp"
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

// --- Report byte pins ------------------------------------------------------

/// The report's bytes with the wall-clock and transport fields cleared, as
/// perfbench's `content_bytes` takes them: what a run computes, nothing
/// about when or how it was served.
std::string content_bytes(RunReport report) {
  report.seconds = 0.0;
  for (auto& snapshot : report.snapshots) snapshot.seconds = 0.0;
  report.provenance.cache_hit = false;
  report.provenance.cache_key.clear();
  report.provenance.trace_id.clear();
  report.provenance.priority = "normal";
  return report_to_json(report).dump();
}

// FNV-1a digests of the cheap fleet cells' reports (perfbench's fleet-sweep
// runs: 1000 evaluations, population 24, snapshot every 100), three seeds a
// cell. Generated by the straightforward Pareto bookkeeping; an archive,
// sort or survival speedup must leave every one unchanged.
TEST(ReportDigestPins, CheapFleetCells) {
  struct Pin {
    const char* problem;
    const char* algorithm;
    std::uint64_t seed;
    const char* digest;
  };
  const Pin pins[] = {
      {"zdt1", "nsga2", 1, "f9a42a6585817b72"},
      {"zdt1", "nsga2", 2, "3079e47014b9084a"},
      {"zdt1", "nsga2", 3, "66b7fd0f608136ac"},
      {"zdt1", "moead", 1, "33cceecee843f8ab"},
      {"zdt1", "moead", 2, "cfdce84c8ab90447"},
      {"zdt1", "moead", 3, "19e808a95392bc75"},
      {"zdt1", "moela", 1, "e638c0401db4cbae"},
      {"zdt1", "moela", 2, "31cf6cb33f6cce0c"},
      {"zdt1", "moela", 3, "539de37f55f098a1"},
      {"zdt1", "moos", 1, "9d245ae0fcc92d4f"},
      {"zdt1", "moos", 2, "b51a9f9e8922d762"},
      {"zdt1", "moos", 3, "1d1e8d099da1f2bb"},
      {"dtlz2", "nsga2", 1, "ff5b1812d4619b91"},
      {"dtlz2", "nsga2", 2, "b1c5d4043cc2788b"},
      {"dtlz2", "nsga2", 3, "5727a3741ab3b247"},
      {"dtlz2", "moead", 1, "6fd6c81f84476000"},
      {"dtlz2", "moead", 2, "2d5439da1b414b4a"},
      {"dtlz2", "moead", 3, "ff97cb0f5d8992d8"},
      {"dtlz2", "moela", 1, "44e0ff0e6372c353"},
      {"dtlz2", "moela", 2, "cafecbf8bb4c16dd"},
      {"dtlz2", "moela", 3, "5a50ddb625b250a2"},
      {"dtlz2", "moos", 1, "5ca1f18de4043ad7"},
      {"dtlz2", "moos", 2, "60357534c11082fd"},
      {"dtlz2", "moos", 3, "5b1fe7a4ddd93cda"},
  };
  std::vector<RunRequest> requests;
  for (const Pin& pin : pins) {
    RunRequest r;
    r.problem = pin.problem;
    r.algorithm = pin.algorithm;
    r.options.max_evaluations = 1000;
    r.options.population_size = 24;
    r.options.snapshot_interval = 100;
    r.options.seed = pin.seed;
    requests.push_back(std::move(r));
  }
  Executor executor({.jobs = 1});
  const std::vector<RunReport> reports = executor.run_all(requests);
  ASSERT_EQ(reports.size(), std::size(pins));
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(ResultCache::hash_key(content_bytes(reports[i])),
              pins[i].digest)
        << pins[i].problem << "/" << pins[i].algorithm << " seed "
        << pins[i].seed;
  }
}

}  // namespace
}  // namespace moela::api
