// Feasible-design generation and variation operators for the NoC problem.
//
// Every operator returns a design satisfying ALL Sec. III constraints:
//  * placement is a permutation of cores, LLCs on edge tiles,
//  * exact planar/vertical link budgets, links geometrically legal,
//  * router degree <= max, network connected.
//
// Key operator choices:
//  * random link placement builds a budgeted randomized spanning tree
//    (Kruskal over shuffled candidate pools) and fills the remaining budget
//    randomly — connectivity by construction;
//  * the placement crossover is cycle crossover (CX), which provably yields
//    a permutation whose every position is inherited from one feasible
//    parent, so the LLC-on-edge constraint is preserved for free;
//  * the link crossover runs the same budgeted Kruskal over the union of
//    the parents' links, then (only if needed) the global candidate pool,
//    without preferring links common to both parents.
#pragma once

#include <vector>

#include "noc/design.hpp"
#include "noc/platform.hpp"
#include "util/rng.hpp"

namespace moela::noc {

class DesignOps {
 public:
  explicit DesignOps(const PlatformSpec& spec) : spec_(&spec) {}

  /// Uniformly random feasible design.
  NocDesign random_design(util::Rng& rng) const;

  /// One local-search move: either a core swap or a single link relocation,
  /// chosen uniformly; always feasible.
  NocDesign random_neighbor(const NocDesign& d, util::Rng& rng) const;

  /// Feasible child of two feasible parents (CX placement + pooled link
  /// Kruskal).
  NocDesign crossover(const NocDesign& a, const NocDesign& b,
                      util::Rng& rng) const;

  /// 1-3 stacked neighbor moves (geometric, p = 0.3 continuation).
  NocDesign mutate(const NocDesign& d, util::Rng& rng) const;

  // Individual move kinds, exposed for tests and ablations. Each returns
  // true on success and mutates `d` in place; on failure `d` is unchanged.
  bool swap_cores(NocDesign& d, util::Rng& rng) const;
  bool move_planar_link(NocDesign& d, util::Rng& rng) const;
  bool move_vertical_link(NocDesign& d, util::Rng& rng) const;

 private:
  /// Random feasible placement (LLCs on shuffled edge tiles).
  std::vector<CoreId> random_placement(util::Rng& rng) const;

  /// Builds a feasible link set of exact budget drawing candidates from the
  /// given pools in order (earlier pools are preferred). Pools may overlap;
  /// the last pool must be (a superset of) the full candidate set, which
  /// guarantees success. Throws std::runtime_error if budgets cannot be met
  /// (cannot happen with sane platform specs; kept as a hard failure for
  /// defense).
  std::vector<Link> build_links(
      const std::vector<std::vector<Link>>& planar_pools,
      const std::vector<std::vector<Link>>& vertical_pools,
      util::Rng& rng) const;

  const PlatformSpec* spec_;
};

}  // namespace moela::noc
