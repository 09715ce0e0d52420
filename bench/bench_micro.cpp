// Microbenchmarks (google-benchmark) for the cost centers the paper
// discusses: hypervolume computation versus objective count (the overhead
// MOELA's decomposition-based local search avoids, Sec. IV.B), routing and
// objective evaluation (the evaluation cost), random-forest training and
// prediction (the Eval model), and the variation operators — plus an
// end-to-end algorithm x problem suite (BM_EndToEnd/*) whose wall time and
// evals_per_sec counter feed the committed BENCH_*.json baselines that
// scripts/bench_compare.py diffs for regressions:
//
//   bench_micro --benchmark_filter=BM_EndToEnd
//               --benchmark_format=json --benchmark_out=BENCH_new.json
//   scripts/bench_compare.py BENCH_7.json BENCH_new.json
#include <benchmark/benchmark.h>

#include "api/any_problem.hpp"
#include "api/executor.hpp"
#include "api/request.hpp"
#include "ml/random_forest.hpp"
#include "moo/hypervolume.hpp"
#include "moo/scalarize.hpp"
#include "moo/weights.hpp"
#include "noc/generator.hpp"
#include "noc/objectives.hpp"
#include "noc/problem.hpp"
#include "noc/routing.hpp"
#include "sim/rodinia.hpp"
#include "util/rng.hpp"

using namespace moela;

namespace {

std::vector<moo::ObjectiveVector> random_front(std::size_t n, std::size_t m,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<moo::ObjectiveVector> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    moo::ObjectiveVector p(m);
    double s = 0.0;
    for (auto& v : p) {
      v = -std::log(1.0 - rng.uniform());
      s += v;
    }
    for (auto& v : p) v = v / s + 0.02 * rng.uniform();
    points.push_back(std::move(p));
  }
  return points;
}

// Hypervolume cost grows steeply with objective count — the PHV-in-the-
// inner-loop overhead of MOOS/MOO-STAGE.
void BM_HypervolumeByObjectives(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto points = random_front(50, m, 7);
  const moo::ObjectiveVector ref(m, 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moo::hypervolume(points, ref));
  }
}
BENCHMARK(BM_HypervolumeByObjectives)->DenseRange(2, 6);

void BM_HypervolumeByFrontSize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = random_front(n, 5, 11);
  const moo::ObjectiveVector ref(5, 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moo::hypervolume(points, ref));
  }
}
BENCHMARK(BM_HypervolumeByFrontSize)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

// The Eq. (8) scalarization MOELA uses instead — constant in M for
// practical purposes.
void BM_WeightedDistance(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const moo::ObjectiveVector obj(m, 0.4);
  const moo::ObjectiveVector w(m, 1.0 / static_cast<double>(m));
  const moo::ObjectiveVector z(m, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moo::weighted_distance(obj, w, z));
  }
}
BENCHMARK(BM_WeightedDistance)->DenseRange(2, 6);

struct NocFixture {
  noc::PlatformSpec spec = noc::PlatformSpec::paper_4x4x4();
  noc::Workload workload = sim::make_workload(spec, sim::RodiniaApp::kBfs, 1);
  noc::DesignOps ops{spec};
  util::Rng rng{42};
  noc::NocDesign design = ops.random_design(rng);
};

// The routing share of one objective evaluation: index the design, then
// grow the route tree of every source tile.
void BM_RouteTreeBuild(benchmark::State& state) {
  NocFixture f;
  for (auto _ : state) {
    noc::RouteTree routes(f.spec, f.design);
    int hops = 0;
    for (std::size_t s = 0; s < routes.num_tiles(); ++s) {
      routes.build(static_cast<noc::TileId>(s));
      hops += routes.hops(0);
    }
    benchmark::DoNotOptimize(hops);
  }
}
BENCHMARK(BM_RouteTreeBuild);

void BM_FullObjectiveEvaluation(benchmark::State& state) {
  NocFixture f;
  const noc::NocObjectiveParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        noc::evaluate_objectives(f.spec, f.design, f.workload, params));
  }
}
BENCHMARK(BM_FullObjectiveEvaluation);

void BM_RandomDesign(benchmark::State& state) {
  NocFixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ops.random_design(f.rng));
  }
}
BENCHMARK(BM_RandomDesign);

void BM_RandomNeighbor(benchmark::State& state) {
  NocFixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ops.random_neighbor(f.design, f.rng));
  }
}
BENCHMARK(BM_RandomNeighbor);

void BM_Crossover(benchmark::State& state) {
  NocFixture f;
  const noc::NocDesign other = f.ops.random_design(f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ops.crossover(f.design, other, f.rng));
  }
}
BENCHMARK(BM_Crossover);

ml::Dataset eval_style_dataset(std::size_t samples, std::size_t features) {
  util::Rng rng(3);
  ml::Dataset d(features);
  for (std::size_t i = 0; i < samples; ++i) {
    std::vector<double> x(features);
    for (auto& v : x) v = rng.uniform();
    d.add(std::move(x), rng.uniform());
  }
  return d;
}

void BM_ForestTrain(benchmark::State& state) {
  const auto d =
      eval_style_dataset(static_cast<std::size_t>(state.range(0)), 260);
  ml::ForestConfig config;
  config.num_trees = 10;
  config.max_depth = 10;
  config.max_features = 24;
  config.subsample = 0.7;
  util::Rng rng(5);
  for (auto _ : state) {
    ml::RandomForest forest(config);
    forest.fit(d, rng);
    benchmark::DoNotOptimize(forest.num_trees());
  }
}
BENCHMARK(BM_ForestTrain)->Arg(500)->Arg(2000)->Arg(4000);

// A window shaped like MOELA's S_train on the paper's NoC: each row is a
// random-walk design's features (one-hot PE types, router degrees, link
// counts), its five objectives and one of 24 weight vectors; the target is
// its Eq. (8) value. On these one-hot, small-integer and few-valued
// columns the split search's bucket estimate rules out most features
// without sorting them, which BM_ForestTrain's uniform columns rarely show.
ml::Dataset noc_style_dataset(std::size_t samples) {
  NocFixture f;
  const noc::NocProblem problem(f.spec, f.workload, 5);
  const auto weights = moo::uniform_weights(5, 24);
  const moo::ObjectiveVector ref(5, 0.0);
  ml::Dataset d(problem.num_features() + 10);
  noc::NocDesign design = f.design;
  for (std::size_t i = 0; i < samples; ++i) {
    design = problem.random_neighbor(design, f.rng);
    auto x = problem.features(design);
    const auto objectives = problem.evaluate(design);
    const auto& w = weights[f.rng.below(weights.size())];
    x.insert(x.end(), objectives.begin(), objectives.end());
    x.insert(x.end(), w.begin(), w.end());
    d.add(std::move(x), moo::weighted_distance(objectives, w, ref));
  }
  return d;
}

void BM_ForestTrainNocShaped(benchmark::State& state) {
  const auto d = noc_style_dataset(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(5);
  for (auto _ : state) {
    ml::RandomForest forest;  // MOELA's default: 24 trees, depth 16
    forest.fit(d, rng);
    benchmark::DoNotOptimize(forest.num_trees());
  }
}
BENCHMARK(BM_ForestTrainNocShaped)
    ->Arg(500)
    ->Arg(1500)
    ->Unit(benchmark::kMillisecond);

void BM_ForestPredict(benchmark::State& state) {
  const auto d = eval_style_dataset(2000, 260);
  ml::ForestConfig config;
  config.num_trees = 10;
  config.max_depth = 10;
  config.max_features = 24;
  util::Rng rng(5);
  ml::RandomForest forest(config);
  forest.fit(d, rng);
  std::vector<double> x(260, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(x));
  }
}
BENCHMARK(BM_ForestPredict);

void BM_FeatureExtraction(benchmark::State& state) {
  noc::PlatformSpec spec = noc::PlatformSpec::paper_4x4x4();
  auto workload = sim::make_workload(spec, sim::RodiniaApp::kBfs, 1);
  noc::NocProblem problem(spec, workload, 5);
  util::Rng rng(7);
  const auto d = problem.random_design(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.features(d));
  }
}
BENCHMARK(BM_FeatureExtraction);

// Cost of the api::AnyProblem type-erasure layer on the hottest call
// (objective evaluation): one virtual dispatch + AnyDesign unwrap per call,
// which must stay negligible against the evaluation itself for the
// runtime-composition front-end to be free in practice.
void BM_EvaluateDirect(benchmark::State& state) {
  NocFixture f;
  noc::NocProblem problem(f.spec, f.workload, 5);
  const auto d = problem.random_design(f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.evaluate(d));
  }
}
BENCHMARK(BM_EvaluateDirect);

void BM_EvaluateTypeErased(benchmark::State& state) {
  NocFixture f;
  api::AnyProblem problem(noc::NocProblem(f.spec, f.workload, 5));
  const auto d = problem.random_design(f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.evaluate(d));
  }
}
BENCHMARK(BM_EvaluateTypeErased);

// The cheapest concept operation, where the erasure overhead (an AnyDesign
// heap allocation per returned design) is most visible.
void BM_NeighborTypeErased(benchmark::State& state) {
  NocFixture f;
  api::AnyProblem problem(noc::NocProblem(f.spec, f.workload, 5));
  const auto d = problem.random_design(f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.random_neighbor(d, f.rng));
  }
}
BENCHMARK(BM_NeighborTypeErased);

// End-to-end algorithm x problem runs through the api layer: each
// iteration is one full fixed-seed optimization, so real_time is the wall
// time per run and the evals_per_sec counter is the throughput number the
// committed BENCH_*.json baselines track across PRs.
void BM_EndToEnd(benchmark::State& state, const char* problem,
                 const char* algorithm) {
  api::RunRequest request;
  request.problem = problem;
  request.algorithm = algorithm;
  request.options.max_evaluations = 2000;
  request.options.snapshot_interval = 1000;
  request.options.seed = 1;
  request.options.population_size = 24;
  request.options.n_local = 3;
  std::size_t evaluations = 0;
  for (auto _ : state) {
    api::Executor executor({.jobs = 1});
    const api::RunReport report = executor.run_all({request}).front();
    evaluations += report.evaluations;
    benchmark::DoNotOptimize(report.evaluations);
  }
  // SetItemsProcessed (total evals over total elapsed) rather than a raw
  // rate counter: items_per_second is computed identically across
  // google-benchmark versions.
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluations));
  state.counters["evals_per_run"] = benchmark::Counter(
      static_cast<double>(evaluations), benchmark::Counter::kAvgIterations);
}

// UseRealTime: the optimization runs on the Executor's pool thread, so the
// timing thread's cpu_time is meaningless — wall time is the measurement.
// MinTime(2.0): a moela cell takes ~0.1–0.3 s a run, so the default minimum
// time gives it only 4–5 iterations, and one slow run then moves the cell
// past scripts/bench_compare.py's 10% gate.
#define MOELA_END_TO_END(problem, algorithm)                       \
  BENCHMARK_CAPTURE(BM_EndToEnd, problem##_##algorithm, #problem,  \
                    #algorithm)                                    \
      ->UseRealTime()                                              \
      ->MinTime(2.0)

MOELA_END_TO_END(zdt1, moela);
MOELA_END_TO_END(zdt1, nsga2);
MOELA_END_TO_END(zdt1, moead);
MOELA_END_TO_END(zdt1, moos);
MOELA_END_TO_END(dtlz2, moela);
MOELA_END_TO_END(dtlz2, nsga2);
MOELA_END_TO_END(dtlz2, moead);
MOELA_END_TO_END(dtlz2, moos);
MOELA_END_TO_END(knapsack, moela);
MOELA_END_TO_END(knapsack, nsga2);
MOELA_END_TO_END(knapsack, moead);
MOELA_END_TO_END(knapsack, moos);

#undef MOELA_END_TO_END

}  // namespace

BENCHMARK_MAIN();
