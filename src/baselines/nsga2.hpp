// NSGA-II baseline (Deb et al. 2002, reference [4] of the paper): elitist
// non-dominated sorting GA with crowding-distance diversity. Included as an
// extension baseline (the paper discusses it as the classic EA for computer
// system design problems).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/eval_context.hpp"
#include "moo/pareto.hpp"
#include "moo/problem.hpp"

namespace moela::baselines {

struct Nsga2Config {
  std::size_t population_size = 50;
  std::size_t max_generations = 1000;
};

template <moo::MooProblem P>
class Nsga2 {
 public:
  using Design = typename P::Design;

  /// A population as parallel arrays: member i is (designs[i],
  /// objectives[i]).
  struct Population {
    std::vector<Design> designs;
    std::vector<moo::ObjectiveVector> objectives;
    std::size_t size() const { return designs.size(); }
  };

  explicit Nsga2(Nsga2Config config = {}) : config_(config) {}

  Population run(core::EvalContext<P>& ctx) {
    const std::size_t n = config_.population_size;
    // Members [0, live) are the current population. A generation appends
    // its children after them; survival moves the kept members into
    // `next`, which then swaps in.
    Population pop, next;
    for (Population* p : {&pop, &next}) {
      p->designs.reserve(2 * n);
      p->objectives.reserve(2 * n);
    }
    std::size_t live = 0;
    ctx.set_solution_set_provider([&pop, &live] {
      return std::vector<moo::ObjectiveVector>(
          pop.objectives.begin(), pop.objectives.begin() + live);
    });
    for (; live < n && !ctx.exhausted(); ++live) {
      Design d = ctx.problem().random_design(ctx.rng());
      pop.objectives.push_back(ctx.evaluate(d));
      pop.designs.push_back(std::move(d));
    }

    for (std::size_t gen = 0;
         gen < config_.max_generations && !ctx.exhausted(); ++gen) {
      // Rank + crowding of the current population for tournament selection.
      auto [rank, crowd] = rank_and_crowding(pop.objectives);

      while (pop.size() < 2 * live && !ctx.exhausted()) {
        const std::size_t p1 = tournament(ctx, rank, crowd);
        const std::size_t p2 = tournament(ctx, rank, crowd);
        Design child = ctx.problem().crossover(pop.designs[p1],
                                               pop.designs[p2], ctx.rng());
        child = ctx.problem().mutate(child, ctx.rng());
        pop.objectives.push_back(ctx.evaluate(child));
        pop.designs.push_back(std::move(child));
      }

      // Elitist (mu + lambda) survival by front then crowding.
      survive(pop, next, n);
      std::swap(pop, next);
      live = pop.size();
    }
    ctx.set_solution_set_provider(nullptr);
    return pop;
  }

  const Nsga2Config& config() const { return config_; }

 private:
  static std::pair<std::vector<std::size_t>, std::vector<double>>
  rank_and_crowding(const std::vector<moo::ObjectiveVector>& points) {
    const auto fronts = moo::non_dominated_sort(points);
    std::vector<std::size_t> rank(points.size(), 0);
    std::vector<double> crowd(points.size(), 0.0);
    for (std::size_t f = 0; f < fronts.size(); ++f) {
      const auto dist = moo::crowding_distance(points, fronts[f]);
      for (std::size_t k = 0; k < fronts[f].size(); ++k) {
        rank[fronts[f][k]] = f;
        crowd[fronts[f][k]] = dist[k];
      }
    }
    return {std::move(rank), std::move(crowd)};
  }

  std::size_t tournament(core::EvalContext<P>& ctx,
                         const std::vector<std::size_t>& rank,
                         const std::vector<double>& crowd) const {
    const std::size_t a = ctx.rng().below(rank.size());
    const std::size_t b = ctx.rng().below(rank.size());
    if (rank[a] != rank[b]) return rank[a] < rank[b] ? a : b;
    return crowd[a] >= crowd[b] ? a : b;
  }

  /// Moves the best `target` members of `merged` into the empty `next`,
  /// front by front, then empties `merged`.
  static void survive(Population& merged, Population& next,
                      std::size_t target) {
    const auto fronts = moo::non_dominated_sort(merged.objectives);
    const auto keep = [&](std::size_t i) {
      next.designs.push_back(std::move(merged.designs[i]));
      next.objectives.push_back(std::move(merged.objectives[i]));
    };
    for (const auto& front : fronts) {
      if (next.size() + front.size() <= target) {
        for (std::size_t i : front) keep(i);
      } else {
        // Partial front: keep the most crowded-distant members. Only this
        // front's members are read, and none of them has moved yet.
        const auto dist = moo::crowding_distance(merged.objectives, front);
        std::vector<std::size_t> order(front.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t x, std::size_t y) {
                    return dist[x] > dist[y];
                  });
        for (std::size_t k = 0; k < order.size() && next.size() < target;
             ++k) {
          keep(front[order[k]]);
        }
      }
      if (next.size() >= target) break;
    }
    merged.designs.clear();
    merged.objectives.clear();
  }

  Nsga2Config config_;
};

}  // namespace moela::baselines
