// MOELA (Algorithms 1 and 2 of the paper): a hybrid multi-objective
// evolutionary/learning design-space-exploration algorithm.
//
// Per iteration:
//  1. pick n_local starting sub-problems — uniformly at random during the
//     first iter_early iterations, afterwards by the learned Eval function
//     (MLguide, Algorithm 2: the population members with the lowest
//     predicted final local-search value);
//  2. run a greedy local search (Eq. 8 weighted distance toward the
//     reference point z) from each start; record trajectories into S_train;
//     the improved design replaces the sub-problem incumbent and propagates
//     through the MOEA/D population-update rule;
//  3. retrain Eval (random forest) on S_train;
//  4. run one generation of the decomposition EA (neighborhood mating with
//     probability delta, Tchebycheff population update) over all
//     sub-problems.
//
// The ablation switches (use_ml_guide / use_local_search / use_ea) reduce
// MOELA to its components for the ablation study (bench/bench_ablation.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "core/decomposition.hpp"
#include "core/eval_context.hpp"
#include "core/eval_model.hpp"
#include "core/local_search.hpp"
#include "moo/problem.hpp"

namespace moela::core {

/// How MLguide ranks local-search starting points (Algorithm 2).
enum class GuideMode {
  /// Lowest predicted final Eq. (8) value e_i (Algorithm 2 as printed).
  kFinalValue,
  /// Largest predicted drop e_i, where the forest learns each visit's g
  /// minus the search's final g ("how much a design can improve towards
  /// the reference point", Sec. IV.B).
  kImprovement,
};

struct MoelaConfig {
  /// N: population size (= number of sub-problems / weight vectors).
  std::size_t population_size = 50;
  /// iter_early: iterations with random (un-guided) local-search starts.
  std::size_t iter_early = 2;
  /// n_local: local searches per iteration.
  std::size_t n_local = 5;
  /// delta: probability of mating within the weight neighborhood.
  double delta = 0.9;
  /// T: weight-neighborhood size.
  std::size_t neighborhood_size = 10;
  /// Max generations (the evaluation budget usually binds first).
  std::size_t max_generations = 1000;
  /// |S_train| bound (sliding window over trajectory samples).
  std::size_t train_capacity = 10000;
  /// Retrain Eval every k iterations (1 = every iteration, as in Alg. 1).
  std::size_t train_interval = 1;
  /// MOEA/D-style replacement cap per candidate.
  std::size_t max_replacements = 2;
  LocalSearchConfig local_search;
  ml::ForestConfig forest;
  GuideMode guide_mode = GuideMode::kFinalValue;

  // --- Ablation switches (all true = full MOELA) ---
  bool use_ml_guide = true;      // false: starts stay random forever
  bool use_local_search = true;  // false: pure decomposition EA (= MOEA/D)
  bool use_ea = true;            // false: pure ML-guided local search
};

template <moo::MooProblem P>
class Moela {
 public:
  using Design = typename P::Design;

  explicit Moela(MoelaConfig config = {}) : config_(config) {}

  /// Runs until the evaluation budget or max_generations is exhausted.
  /// Returns the final population (the N designs of Algorithm 1).
  DecompositionPopulation<P> run(EvalContext<P>& ctx) {
    const std::size_t m = ctx.problem().num_objectives();
    DecompositionPopulation<P> pop(config_.population_size, m,
                                   config_.neighborhood_size);
    // Snapshots measure the population MOELA maintains (the paper's PHV).
    ctx.set_solution_set_provider([&pop] { return pop.objective_set(); });
    pop.initialize(ctx);

    EvalModel eval_model(ctx.problem().num_features(), m,
                         config_.train_capacity, config_.forest);

    for (std::size_t gen = 0;
         gen < config_.max_generations && !ctx.exhausted(); ++gen) {
      if (config_.use_local_search) {
        run_local_search_stage(ctx, pop, eval_model, gen);
      }
      if (config_.use_ea) {
        decomposition_ea_generation(ctx, pop, config_.delta,
                                    config_.max_replacements);
      }
    }
    ctx.set_solution_set_provider(nullptr);  // pop is about to be moved
    return pop;
  }

  const MoelaConfig& config() const { return config_; }

 private:
  /// Algorithm 1 lines 3-11: start selection, descents, training.
  void run_local_search_stage(EvalContext<P>& ctx,
                              DecompositionPopulation<P>& pop,
                              EvalModel& eval_model, std::size_t gen) {
    const std::vector<std::size_t> starts =
        select_starts(ctx, pop, eval_model, gen);

    const moo::ObjectiveVector scale = pop.objective_scale();
    // Index pool for the population updates below, built once per stage and
    // reshuffled in place per visit. Reshuffling the previous permutation is
    // still uniformly random and draws the same RNG stream, but yields a
    // different (equally valid) permutation sequence than rebuilding from
    // iota — seeded trajectories changed when this O(N) per-visit
    // allocation was hoisted out of the hot path.
    std::vector<std::size_t> pool(pop.size());
    std::iota(pool.begin(), pool.end(), std::size_t{0});
    for (std::size_t s : starts) {
      if (ctx.exhausted()) break;
      LocalSearchResult<P> result =
          local_search(ctx, pop.design(s), pop.objectives(s), pop.weight(s),
                       pop.reference_point(), scale, config_.local_search);
      // Label the trajectory with the search outcome (STAGE). Targets:
      //  * kFinalValue — the final Eq. (8) value (Algorithm 2 as printed);
      //  * kImprovement — the drop from each visit to the final value
      //    ("how much a design can improve towards the reference point").
      for (auto& visit : result.trajectory) {
        const double target =
            config_.guide_mode == GuideMode::kImprovement
                ? visit.g - result.best_g
                : result.best_g;
        eval_model.add_sample(std::move(visit.features), visit.objectives,
                              pop.weight(s), target);
      }
      // The sub-problem's incumbent improves if the search found better.
      const double incumbent = moo::weighted_distance_scaled(
          pop.objectives(s), pop.weight(s), pop.reference_point(), scale);
      if (result.best_g < incumbent) {
        pop.replace(s, result.best, result.best_objectives);
      }
      // Algorithm 1 line 8: P <- updatePopulation(P, p_new, W). Every
      // design the search accepted is a p_new already paid for in
      // evaluations; each one updates the sub-problem whose weight it fits
      // best (full weight set W, one replacement per visit so a single
      // trajectory cannot flood the population).
      for (std::size_t v = 1; v < result.trajectory.size(); ++v) {
        const auto& visit = result.trajectory[v];
        ctx.rng().shuffle(pool);
        pop.update(visit.design, visit.objectives, pool,
                   /*max_replacements=*/1);
      }
    }

    if (config_.use_ml_guide &&
        (gen + 1) % std::max<std::size_t>(1, config_.train_interval) == 0) {
      eval_model.train(ctx.rng());
    }
  }

  /// Algorithm 2 (MLguide) or random selection during warm-up.
  std::vector<std::size_t> select_starts(EvalContext<P>& ctx,
                                         const DecompositionPopulation<P>& pop,
                                         const EvalModel& eval_model,
                                         std::size_t gen) const {
    const std::size_t n_local =
        std::min(config_.n_local, pop.size());
    const bool guided = config_.use_ml_guide && gen >= config_.iter_early &&
                        eval_model.trained();
    if (!guided) {
      return ctx.rng().sample_indices(pop.size(), n_local);
    }
    // e_i = Eval(p_i, w_i) predicts the label run_local_search_stage() trains
    // on for a local search from p_i; g_i(current) is never subtracted.
    //  * kFinalValue (the registry default): e_i is the predicted final
    //    Eq. (8) value, and the lowest e_i start first. Raw final values
    //    are not comparable across sub-problems (each weight has its own g
    //    scale), so this favours sub-problems already close to z.
    //  * kImprovement: e_i is the predicted drop from p_i to the search's
    //    final value (Sec. IV.B, "how much a design can improve towards
    //    the reference point"), and the largest e_i start first.
    std::vector<std::pair<double, std::size_t>> scored;
    scored.reserve(pop.size());
    for (std::size_t i = 0; i < pop.size(); ++i) {
      const double e = eval_model.predict(
          ctx.problem().features(pop.design(i)), pop.objectives(i),
          pop.weight(i));
      // The sort below is ascending, so a predicted drop is negated.
      const double score =
          config_.guide_mode == GuideMode::kImprovement ? -e : e;
      scored.push_back({score, i});
    }
    std::partial_sort(scored.begin(),
                      scored.begin() + static_cast<std::ptrdiff_t>(n_local),
                      scored.end());
    std::vector<std::size_t> out;
    out.reserve(n_local);
    for (std::size_t k = 0; k < n_local; ++k) out.push_back(scored[k].second);
    return out;
  }

  MoelaConfig config_;
};

}  // namespace moela::core
