// Built-in Optimizer adapters: the algorithm templates of core/ and
// baselines/, instantiated once with P = AnyProblem and adapted to the
// uniform Optimizer interface. This file READS the knob keys; callers
// write them into RunOptions::knobs (moela_cli's --knob, the paper benches'
// exp::tuned_run_options). Unknown keys are ignored at run time by design,
// so every get_or() key below is also declared to the registry, whose
// unknown_knob_keys() flags a caller's misspelled key.
//
// Knob keys recognized here (all optional; fallbacks are the library
// defaults, population sizing comes from RunOptions):
//   moela.iter_early, moela.delta, moela.neighborhood_size,
//   moela.max_generations, moela.train_capacity, moela.train_interval,
//   moela.max_replacements, moela.guide_mode (0 = final-value,
//   1 = improvement), moela.{use_ml_guide,use_local_search,use_ea}
//   (0 switches the component off; the ablation variants pin theirs),
//   moela.ls.{patience,max_steps,max_evals},
//   moela.forest.{trees,max_features,max_depth,min_samples_leaf,
//                 min_samples_split,subsample}
//   moead.{delta,neighborhood_size,max_generations,max_replacements}
//   moos.{num_directions,max_iterations,temperature,gain_ema},
//   moos.ls.{patience,max_steps,max_evals}
//   stage.{max_iterations,iter_early,meta_candidates,train_capacity},
//   stage.forest.{...}, stage.ls.{max_steps,neighbors_per_step}
//   nsga2.max_generations
#include <memory>
#include <string>
#include <utility>

#include "api/any_problem.hpp"
#include "api/optimizer.hpp"
#include "api/registry.hpp"
#include "baselines/moead.hpp"
#include "baselines/moo_stage.hpp"
#include "baselines/moos.hpp"
#include "baselines/nsga2.hpp"
#include "core/moela.hpp"

namespace moela::api {
namespace {

core::LocalSearchConfig local_search_knobs(const KnobBag& k,
                                           const std::string& prefix,
                                           core::LocalSearchConfig base) {
  base.patience = k.get_or(prefix + ".patience", base.patience);
  base.max_steps = k.get_or(prefix + ".max_steps", base.max_steps);
  base.max_evaluations = k.get_or(prefix + ".max_evals", base.max_evaluations);
  return base;
}

ml::ForestConfig forest_knobs(const KnobBag& k, const std::string& prefix,
                              ml::ForestConfig base) {
  base.num_trees = k.get_or(prefix + ".trees", base.num_trees);
  base.max_features = k.get_or(prefix + ".max_features", base.max_features);
  base.max_depth = k.get_or(prefix + ".max_depth", base.max_depth);
  base.min_samples_leaf =
      k.get_or(prefix + ".min_samples_leaf", base.min_samples_leaf);
  base.min_samples_split =
      k.get_or(prefix + ".min_samples_split", base.min_samples_split);
  base.subsample = k.get_or(prefix + ".subsample", base.subsample);
  return base;
}

void report_population(const core::DecompositionPopulation<AnyProblem>& pop,
                       RunReport& report) {
  for (std::size_t i = 0; i < pop.size(); ++i) {
    report.final_designs.push_back(pop.design(i));
    report.final_objectives.push_back(pop.objectives(i));
  }
}

void report_archive(const baselines::DesignArchive<AnyProblem>& archive,
                    RunReport& report) {
  for (const auto& e : archive.entries()) {
    report.final_designs.push_back(e.design);
    report.final_objectives.push_back(e.objectives);
  }
}

/// MOELA and its three ablation variants (which differ only in the
/// component switches and the display name).
class MoelaOptimizer final : public Optimizer {
 public:
  MoelaOptimizer(AnyProblem problem, std::string display_name, bool ml_guide,
                 bool local_search, bool ea)
      : Optimizer(std::move(problem)),
        display_name_(std::move(display_name)),
        ml_guide_(ml_guide),
        local_search_(local_search),
        ea_(ea) {}

  std::string name() const override { return display_name_; }

 protected:
  void run_body(core::EvalContext<AnyProblem>& ctx, const RunOptions& options,
                RunReport& report) override {
    const KnobBag& k = options.knobs;
    core::MoelaConfig c;
    c.population_size = options.population_size;
    c.n_local = options.n_local;
    c.iter_early = k.get_or("moela.iter_early", c.iter_early);
    c.delta = k.get_or("moela.delta", c.delta);
    c.neighborhood_size =
        k.get_or("moela.neighborhood_size", c.neighborhood_size);
    c.max_generations = k.get_or("moela.max_generations", c.max_generations);
    c.train_capacity = k.get_or("moela.train_capacity", c.train_capacity);
    c.train_interval = k.get_or("moela.train_interval", c.train_interval);
    c.max_replacements =
        k.get_or("moela.max_replacements", c.max_replacements);
    c.local_search = local_search_knobs(k, "moela.ls", c.local_search);
    c.forest = forest_knobs(k, "moela.forest", c.forest);
    c.guide_mode =
        k.get_or("moela.guide_mode",
                 c.guide_mode == core::GuideMode::kImprovement)
            ? core::GuideMode::kImprovement
            : core::GuideMode::kFinalValue;
    // The registered variant fixes which component a knob can still switch
    // OFF (never back on): "moela" honors all three knobs, the ablation
    // variants pin their component regardless.
    c.use_ml_guide = k.get_or("moela.use_ml_guide", true) && ml_guide_;
    c.use_local_search =
        k.get_or("moela.use_local_search", true) && local_search_;
    c.use_ea = k.get_or("moela.use_ea", true) && ea_;

    core::Moela<AnyProblem> algo(c);
    report_population(algo.run(ctx), report);
  }

 private:
  std::string display_name_;
  bool ml_guide_;
  bool local_search_;
  bool ea_;
};

class MoeaDOptimizer final : public Optimizer {
 public:
  using Optimizer::Optimizer;
  std::string name() const override { return "MOEA/D"; }

 protected:
  void run_body(core::EvalContext<AnyProblem>& ctx, const RunOptions& options,
                RunReport& report) override {
    const KnobBag& k = options.knobs;
    baselines::MoeaDConfig c;
    c.population_size = options.population_size;
    c.delta = k.get_or("moead.delta", c.delta);
    c.neighborhood_size =
        k.get_or("moead.neighborhood_size", c.neighborhood_size);
    c.max_generations = k.get_or("moead.max_generations", c.max_generations);
    c.max_replacements =
        k.get_or("moead.max_replacements", c.max_replacements);

    baselines::MoeaD<AnyProblem> algo(c);
    report_population(algo.run(ctx), report);
  }
};

class MoosOptimizer final : public Optimizer {
 public:
  using Optimizer::Optimizer;
  std::string name() const override { return "MOOS"; }

 protected:
  void run_body(core::EvalContext<AnyProblem>& ctx, const RunOptions& options,
                RunReport& report) override {
    const KnobBag& k = options.knobs;
    baselines::MoosConfig c;
    c.archive_capacity = options.population_size;
    c.initial_designs = options.population_size;
    c.num_directions = k.get_or("moos.num_directions", options.population_size);
    c.searches_per_iteration = options.n_local;
    c.max_iterations = k.get_or("moos.max_iterations", c.max_iterations);
    c.temperature = k.get_or("moos.temperature", c.temperature);
    c.gain_ema = k.get_or("moos.gain_ema", c.gain_ema);
    c.search = local_search_knobs(k, "moos.ls", c.search);

    baselines::Moos<AnyProblem> algo(c);
    report_archive(algo.run(ctx), report);
  }
};

class MooStageOptimizer final : public Optimizer {
 public:
  using Optimizer::Optimizer;
  std::string name() const override { return "MOO-STAGE"; }

 protected:
  void run_body(core::EvalContext<AnyProblem>& ctx, const RunOptions& options,
                RunReport& report) override {
    const KnobBag& k = options.knobs;
    baselines::MooStageConfig c;
    c.archive_capacity = options.population_size;
    c.initial_designs = options.population_size;
    c.searches_per_iteration = options.n_local;
    c.max_iterations = k.get_or("stage.max_iterations", c.max_iterations);
    c.iter_early = k.get_or("stage.iter_early", c.iter_early);
    c.meta_candidates = k.get_or("stage.meta_candidates", c.meta_candidates);
    c.train_capacity = k.get_or("stage.train_capacity", c.train_capacity);
    c.forest = forest_knobs(k, "stage.forest", c.forest);
    c.search.max_steps = k.get_or("stage.ls.max_steps", c.search.max_steps);
    c.search.neighbors_per_step =
        k.get_or("stage.ls.neighbors_per_step", c.search.neighbors_per_step);

    baselines::MooStage<AnyProblem> algo(c);
    report_archive(algo.run(ctx), report);
  }
};

class Nsga2Optimizer final : public Optimizer {
 public:
  using Optimizer::Optimizer;
  std::string name() const override { return "NSGA-II"; }

 protected:
  void run_body(core::EvalContext<AnyProblem>& ctx, const RunOptions& options,
                RunReport& report) override {
    baselines::Nsga2Config c;
    c.population_size = options.population_size;
    c.max_generations =
        options.knobs.get_or("nsga2.max_generations", c.max_generations);

    baselines::Nsga2<AnyProblem> algo(c);
    auto pop = algo.run(ctx);
    report.final_designs = std::move(pop.designs);
    report.final_objectives = std::move(pop.objectives);
  }
};

}  // namespace

namespace detail {

namespace {

// Declared knob keys, kept literally in sync with the get_or() reads above
// (the registry uses them to flag --knob typos; see
// OptimizerRegistry::unknown_knob_keys).

void append_local_search_keys(std::vector<std::string>& keys,
                              const std::string& prefix) {
  keys.push_back(prefix + ".patience");
  keys.push_back(prefix + ".max_steps");
  keys.push_back(prefix + ".max_evals");
}

void append_forest_keys(std::vector<std::string>& keys,
                        const std::string& prefix) {
  keys.push_back(prefix + ".trees");
  keys.push_back(prefix + ".max_features");
  keys.push_back(prefix + ".max_depth");
  keys.push_back(prefix + ".min_samples_leaf");
  keys.push_back(prefix + ".min_samples_split");
  keys.push_back(prefix + ".subsample");
}

std::vector<std::string> moela_knob_keys() {
  std::vector<std::string> keys{
      "moela.iter_early",       "moela.delta",
      "moela.neighborhood_size", "moela.max_generations",
      "moela.train_capacity",   "moela.train_interval",
      "moela.max_replacements", "moela.guide_mode",
      "moela.use_ml_guide",     "moela.use_local_search",
      "moela.use_ea"};
  append_local_search_keys(keys, "moela.ls");
  append_forest_keys(keys, "moela.forest");
  return keys;
}

std::vector<std::string> moead_knob_keys() {
  return {"moead.delta", "moead.neighborhood_size", "moead.max_generations",
          "moead.max_replacements"};
}

std::vector<std::string> moos_knob_keys() {
  std::vector<std::string> keys{"moos.num_directions", "moos.max_iterations",
                                "moos.temperature", "moos.gain_ema"};
  append_local_search_keys(keys, "moos.ls");
  return keys;
}

std::vector<std::string> stage_knob_keys() {
  std::vector<std::string> keys{"stage.max_iterations", "stage.iter_early",
                                "stage.meta_candidates",
                                "stage.train_capacity"};
  append_forest_keys(keys, "stage.forest");
  keys.push_back("stage.ls.max_steps");
  keys.push_back("stage.ls.neighbors_per_step");
  return keys;
}

}  // namespace

void register_builtin_optimizers(OptimizerRegistry& registry) {
  auto moela_variant = [](std::string display, bool guide, bool ls, bool ea) {
    return [display = std::move(display), guide, ls, ea](AnyProblem p) {
      return std::make_unique<MoelaOptimizer>(std::move(p), display, guide,
                                              ls, ea);
    };
  };
  registry.add("moela", moela_variant("MOELA", true, true, true),
               moela_knob_keys());
  registry.add("moela-noguide",
               moela_variant("MOELA-noguide", false, true, true),
               moela_knob_keys());
  registry.add("moela-ea-only",
               moela_variant("MOELA-EA-only", true, false, true),
               moela_knob_keys());
  registry.add("moela-ls-only",
               moela_variant("MOELA-LS-only", true, true, false),
               moela_knob_keys());
  registry.add(
      "moead",
      [](AnyProblem p) { return std::make_unique<MoeaDOptimizer>(std::move(p)); },
      moead_knob_keys());
  registry.add(
      "moos",
      [](AnyProblem p) { return std::make_unique<MoosOptimizer>(std::move(p)); },
      moos_knob_keys());
  registry.add(
      "moo-stage",
      [](AnyProblem p) {
        return std::make_unique<MooStageOptimizer>(std::move(p));
      },
      stage_knob_keys());
  registry.add(
      "nsga2",
      [](AnyProblem p) { return std::make_unique<Nsga2Optimizer>(std::move(p)); },
      {"nsga2.max_generations"});
}

}  // namespace detail
}  // namespace moela::api
