// Decomposition-based population (Sec. IV.C): N sub-problems defined by
// uniformly spread weight vectors, Tchebycheff scalarization, weight-space
// neighborhoods, and the MOEA/D population-update rule shared by MOELA's EA
// stage and the MOEA/D baseline.
#pragma once

#include <cstddef>
#include <vector>

#include "moo/objective.hpp"
#include "moo/problem.hpp"
#include "moo/scalarize.hpp"
#include "moo/weights.hpp"
#include "core/eval_context.hpp"

namespace moela::core {

/// A population where member i is the incumbent of sub-problem i (weight
/// w_i). Holds designs, their objective vectors, the shared reference point
/// z, and the T-nearest-weight neighborhoods.
template <moo::MooProblem P>
class DecompositionPopulation {
 public:
  using Design = typename P::Design;

  DecompositionPopulation(std::size_t population_size,
                          std::size_t num_objectives,
                          std::size_t neighborhood_size)
      : weights_(moo::uniform_weights(num_objectives, population_size)),
        neighborhoods_(moo::weight_neighborhoods(weights_, neighborhood_size)),
        z_(num_objectives) {}

  /// Fills the population with random evaluated designs.
  void initialize(EvalContext<P>& ctx) {
    designs_.clear();
    objectives_.clear();
    designs_.reserve(weights_.size());
    objectives_.reserve(weights_.size());
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      Design d = ctx.problem().random_design(ctx.rng());
      moo::ObjectiveVector obj = ctx.evaluate(d);
      z_.update(obj);
      designs_.push_back(std::move(d));
      objectives_.push_back(std::move(obj));
    }
  }

  std::size_t size() const { return weights_.size(); }
  const Design& design(std::size_t i) const { return designs_[i]; }
  const moo::ObjectiveVector& objectives(std::size_t i) const {
    return objectives_[i];
  }
  const moo::WeightVector& weight(std::size_t i) const { return weights_[i]; }
  const std::vector<std::size_t>& neighborhood(std::size_t i) const {
    return neighborhoods_[i];
  }
  const moo::ObjectiveVector& reference_point() const { return z_.value(); }

  /// Per-objective normalization scale: the range between the reference
  /// point (all-time ideal) and the current population's nadir. Objectives
  /// on the paper's platform span several orders of magnitude, so all
  /// scalarizations are applied to range-normalized deviations.
  moo::ObjectiveVector objective_scale() const {
    moo::ObjectiveVector scale;
    fill_scale(scale);
    return scale;
  }

  /// MOEA/D population update: walks `pool` (a sub-problem index set, in the
  /// caller's order) and replaces incumbents whose Tchebycheff value for
  /// THEIR OWN weight is worse than the candidate's. At most
  /// `max_replacements` incumbents are replaced (MOEA/D-DE's n_r rule, which
  /// prevents a strong candidate from flooding the population). Returns the
  /// number of replacements.
  std::size_t update(const Design& candidate,
                     const moo::ObjectiveVector& candidate_obj,
                     const std::vector<std::size_t>& pool,
                     std::size_t max_replacements = 2) {
    z_.update(candidate_obj);
    fill_scale(scale_);
    std::size_t replaced = 0;
    for (std::size_t idx : pool) {
      if (replaced >= max_replacements) break;
      const double incumbent = moo::tchebycheff_scaled(
          objectives_[idx], weights_[idx], z_.value(), scale_);
      const double challenger = moo::tchebycheff_scaled(
          candidate_obj, weights_[idx], z_.value(), scale_);
      if (challenger < incumbent) {
        designs_[idx] = candidate;
        objectives_[idx] = candidate_obj;
        ++replaced;
      }
    }
    return replaced;
  }

  /// Directly replaces sub-problem i's incumbent (used when a local search
  /// improves the sub-problem it was launched for).
  void replace(std::size_t i, Design d, moo::ObjectiveVector obj) {
    z_.update(obj);
    designs_[i] = std::move(d);
    objectives_[i] = std::move(obj);
  }

  /// Copies of all objective vectors (metrics / tests).
  std::vector<moo::ObjectiveVector> objective_set() const {
    return objectives_;
  }

 private:
  /// objective_scale() into `scale`, reusing its capacity.
  void fill_scale(moo::ObjectiveVector& scale) const {
    const auto& z = z_.value();
    scale.assign(z.size(), 1.0);
    for (std::size_t k = 0; k < scale.size(); ++k) {
      double nadir = z[k];
      for (const auto& obj : objectives_) nadir = std::max(nadir, obj[k]);
      scale[k] = std::max(nadir - z[k], 1e-12);
    }
  }

  std::vector<moo::WeightVector> weights_;
  std::vector<std::vector<std::size_t>> neighborhoods_;
  moo::ReferencePoint z_;
  std::vector<Design> designs_;
  std::vector<moo::ObjectiveVector> objectives_;
  /// update()'s scale, refilled per candidate without an allocation.
  moo::ObjectiveVector scale_;
};

/// One generation of the decomposition EA (Sec. IV.C), shared by MOELA's EA
/// stage and the MOEA/D baseline. For each sub-problem (random order): build
/// the parent pool Q from the weight neighborhood with probability `delta`
/// (else the whole population), produce one child by crossover + mutation,
/// and apply the Tchebycheff population update over Q.
template <moo::MooProblem P>
void decomposition_ea_generation(EvalContext<P>& ctx,
                                 DecompositionPopulation<P>& pop,
                                 double delta,
                                 std::size_t max_replacements = 2) {
  std::vector<std::size_t> order(pop.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  ctx.rng().shuffle(order);
  for (std::size_t i : order) {
    if (ctx.exhausted()) break;
    const bool use_hood = ctx.rng().chance(delta);
    const std::vector<std::size_t>& hood = pop.neighborhood(i);
    auto pick_parent = [&]() -> std::size_t {
      if (use_hood) return hood[ctx.rng().below(hood.size())];
      return ctx.rng().below(pop.size());
    };
    const std::size_t p1 = pick_parent();
    std::size_t p2 = pick_parent();
    if (p2 == p1) p2 = pick_parent();

    typename P::Design child = ctx.problem().crossover(
        pop.design(p1), pop.design(p2), ctx.rng());
    child = ctx.problem().mutate(child, ctx.rng());
    const moo::ObjectiveVector obj = ctx.evaluate(child);

    if (use_hood) {
      pop.update(child, obj, hood, max_replacements);
    } else {
      std::vector<std::size_t> pool(pop.size());
      std::iota(pool.begin(), pool.end(), std::size_t{0});
      ctx.rng().shuffle(pool);
      pop.update(child, obj, pool, max_replacements);
    }
  }
}

}  // namespace moela::core
