#include <gtest/gtest.h>

#include <set>
#include <string>

#include "api/any_problem.hpp"
#include "api/optimizer.hpp"
#include "api/registry.hpp"
#include "exp/analysis.hpp"
#include "exp/edp_selection.hpp"
#include "noc/generator.hpp"
#include "problems/zdt.hpp"

namespace moela::exp {
namespace {

using problems::Zdt;
using problems::ZdtVariant;

api::RunOptions small_options() {
  api::RunOptions o;
  o.max_evaluations = 1500;
  o.snapshot_interval = 250;
  o.seed = 3;
  o.population_size = 16;
  o.n_local = 3;
  o.knobs.set("moela.neighborhood_size", 6)
      .set("moela.forest.trees", 6)
      .set("moela.forest.max_depth", 6)
      .set("moela.ls.max_steps", 10)
      .set("moela.ls.patience", 5)
      .set("moela.ls.max_evals", 40)
      .set("moos.ls.max_steps", 8)
      .set("moos.ls.patience", 4)
      .set("moos.ls.max_evals", 32)
      .set("stage.ls.max_steps", 8)
      .set("stage.ls.neighbors_per_step", 4)
      .set("stage.forest.trees", 6)
      .set("stage.forest.max_depth", 6);
  return o;
}

api::AnyProblem zdt1() { return api::AnyProblem(Zdt(ZdtVariant::kZdt1, 10)); }

TEST(Runner, EveryAlgorithmProducesAWellFormedResult) {
  const auto options = small_options();
  for (const std::string& key : api::registry().names()) {
    const auto optimizer = api::registry().create(key, zdt1());
    const api::RunReport result = optimizer->run(options);
    EXPECT_EQ(result.algorithm, optimizer->name()) << key;
    EXPECT_GE(result.evaluations, options.max_evaluations) << key;
    EXPECT_FALSE(result.snapshots.empty()) << key;
    EXPECT_FALSE(result.final_front.empty()) << key;
    EXPECT_FALSE(result.final_designs.empty()) << key;
    EXPECT_EQ(result.final_designs.size(), result.final_objectives.size())
        << key;
    // Snapshot evaluations must be non-decreasing.
    for (std::size_t i = 1; i < result.snapshots.size(); ++i) {
      EXPECT_GE(result.snapshots[i].evaluations,
                result.snapshots[i - 1].evaluations);
    }
  }
}

TEST(Runner, AlgorithmNamesAreUnique) {
  std::set<std::string> names;
  for (const std::string& key : api::registry().names()) {
    names.insert(api::registry().create(key, zdt1())->name());
  }
  EXPECT_EQ(names.size(), api::registry().names().size());
}

TEST(Analysis, GlobalBoundsCoverAllPoints) {
  SnapshotSet runs;
  runs.push_back({{100, 0.0, {{1.0, 5.0}, {2.0, 3.0}}}});
  runs.push_back({{100, 0.0, {{0.5, 8.0}}}});
  const auto bounds = global_bounds(runs);
  EXPECT_EQ(bounds.ideal, (moo::ObjectiveVector{0.5, 3.0}));
  EXPECT_EQ(bounds.nadir, (moo::ObjectiveVector{2.0, 8.0}));
}

TEST(Analysis, EmptySnapshotsThrow) {
  EXPECT_THROW(global_bounds({}), std::invalid_argument);
}

TEST(Analysis, TracesAreMonotoneForGrowingArchives) {
  const auto result =
      api::registry().create("moela", zdt1())->run(small_options());
  SnapshotSet runs{result.snapshots};
  const auto bounds = global_bounds(runs);
  const auto traces = phv_traces(runs, bounds);
  ASSERT_EQ(traces.size(), 1u);
  for (std::size_t i = 1; i < traces[0].size(); ++i) {
    // The all-time archive only grows, so PHV never decreases.
    EXPECT_GE(traces[0][i].phv, traces[0][i - 1].phv - 1e-12);
  }
}

TEST(Analysis, PhvGainFormula) {
  EXPECT_NEAR(phv_gain(1.2, 1.0), 0.2, 1e-12);
  EXPECT_NEAR(phv_gain(1.0, 1.0), 0.0, 1e-12);
  EXPECT_EQ(phv_gain(1.0, 0.0), 0.0);  // guarded
}

// --- The Fig. 3 selection rule, with synthetic scored designs. -----------

ScoredDesign make_scored(double edp, double temp, std::size_t index) {
  ScoredDesign s;
  s.score.edp = edp;
  s.score.peak_temperature = temp;
  s.score.energy = edp;  // placeholder
  s.score.exec_time = 1.0;
  s.index = index;
  return s;
}

TEST(EdpSelection, PicksLowestEdpWithinThreshold) {
  // Global min temperature is 100 -> threshold 105.
  std::vector<std::vector<ScoredDesign>> pops{
      {make_scored(50.0, 104.0, 0), make_scored(10.0, 120.0, 1),
       make_scored(40.0, 100.0, 2)},
      {make_scored(30.0, 103.0, 0), make_scored(20.0, 105.0, 1)},
  };
  const auto sel = select_by_edp(pops);
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_TRUE(sel[0].within_threshold);
  EXPECT_EQ(sel[0].chosen.index, 2u);  // 40 < 50, the 10-EDP one is too hot
  EXPECT_TRUE(sel[1].within_threshold);
  EXPECT_EQ(sel[1].chosen.index, 1u);  // 20 at exactly the threshold
}

TEST(EdpSelection, FallsBackToCoolestWhenNoneQualify) {
  std::vector<std::vector<ScoredDesign>> pops{
      {make_scored(5.0, 100.0, 0)},                       // sets threshold 105
      {make_scored(1.0, 200.0, 0), make_scored(2.0, 150.0, 1)},
  };
  const auto sel = select_by_edp(pops);
  EXPECT_TRUE(sel[0].within_threshold);
  EXPECT_FALSE(sel[1].within_threshold);
  EXPECT_EQ(sel[1].chosen.index, 1u);  // coolest, not lowest EDP
}

TEST(EdpSelection, EmptyThrows) {
  EXPECT_THROW(select_by_edp({}), std::invalid_argument);
}

TEST(EdpSelection, OverheadRelativeToBaseline) {
  std::vector<EdpSelection> sels(3);
  sels[0].chosen = make_scored(10.0, 0, 0);
  sels[1].chosen = make_scored(11.0, 0, 0);
  sels[2].chosen = make_scored(9.0, 0, 0);
  const auto over = edp_overheads(sels, 0);
  EXPECT_NEAR(over[0], 0.0, 1e-12);
  EXPECT_NEAR(over[1], 0.1, 1e-12);
  EXPECT_NEAR(over[2], -0.1, 1e-12);
}

TEST(EdpSelection, ScorePopulationScoresEveryDesign) {
  const auto spec = noc::PlatformSpec::small_3x3x3();
  const auto workload = sim::make_workload(spec, sim::RodiniaApp::kBfs, 1);
  noc::DesignOps ops(spec);
  util::Rng rng(5);
  std::vector<noc::NocDesign> designs;
  for (int i = 0; i < 4; ++i) designs.push_back(ops.random_design(rng));
  const auto scored = score_population(spec, designs, workload,
                                       sim::archetype(sim::RodiniaApp::kBfs));
  ASSERT_EQ(scored.size(), 4u);
  for (std::size_t i = 0; i < scored.size(); ++i) {
    EXPECT_EQ(scored[i].index, i);
    EXPECT_GT(scored[i].score.edp, 0.0);
    EXPECT_GT(scored[i].score.peak_temperature, 0.0);
  }
}

TEST(Metrics, SpeedupBetweenRealRuns) {
  // A fast run (MOELA) and a handicapped run (MOEA/D at the same budget) on
  // ZDT1: the speedup metric must be computable and positive.
  auto options = small_options();
  options.max_evaluations = 2500;
  const auto moela_run = api::registry().create("moela", zdt1())->run(options);
  const auto moead_run = api::registry().create("moead", zdt1())->run(options);
  SnapshotSet runs{moela_run.snapshots, moead_run.snapshots};
  const auto bounds = global_bounds(runs);
  const auto traces = phv_traces(runs, bounds);
  const auto s = moo::speedup_factor(traces[0], traces[1]);
  if (s.has_value()) {
    EXPECT_GT(*s, 0.0);
  }
}

}  // namespace
}  // namespace moela::exp
