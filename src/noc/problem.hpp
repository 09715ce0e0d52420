// NocProblem: the Sec. III design problem packaged behind the MooProblem
// concept so every algorithm in the library can explore it.
#pragma once

#include <cstddef>
#include <memory>

#include "moo/objective.hpp"
#include "noc/design.hpp"
#include "noc/generator.hpp"
#include "noc/objectives.hpp"
#include "noc/platform.hpp"
#include "noc/workload.hpp"
#include "moo/problem.hpp"
#include "util/rng.hpp"

namespace moela::noc {

/// Adapts (platform, workload, params, m) into the MooProblem interface.
/// `m` selects the paper's scenario: 3-obj (objectives 1-3), 4-obj (1-4),
/// or 5-obj (1-5).
class NocProblem {
 public:
  using Design = NocDesign;

  NocProblem(PlatformSpec spec, Workload workload, std::size_t num_objectives,
             NocObjectiveParams params = {})
      : spec_(std::make_shared<const PlatformSpec>(std::move(spec))),
        workload_(std::make_shared<const Workload>(std::move(workload))),
        params_(params),
        num_objectives_(num_objectives),
        ops_(*spec_) {
    if (num_objectives_ < 2 || num_objectives_ > 5) {
      throw std::invalid_argument("NocProblem: 2..5 objectives supported");
    }
  }

  std::size_t num_objectives() const { return num_objectives_; }

  moo::ObjectiveVector evaluate(const Design& d) const {
    return evaluate_objectives(*spec_, d, *workload_, params_)
        .first(num_objectives_);
  }

  Design random_design(util::Rng& rng) const { return ops_.random_design(rng); }
  Design random_neighbor(const Design& d, util::Rng& rng) const {
    return ops_.random_neighbor(d, rng);
  }
  Design crossover(const Design& a, const Design& b, util::Rng& rng) const {
    return ops_.crossover(a, b, rng);
  }
  Design mutate(const Design& d, util::Rng& rng) const {
    return ops_.mutate(d, rng);
  }

  /// Fixed-width numeric encoding for the learned Eval model:
  ///  * one-hot PE type per tile (3 x num_tiles),
  ///  * router degree per tile (num_tiles, read from a RouteTree),
  ///  * planar link count per layer (nz),
  ///  * vertical link count per layer boundary (nz - 1).
  /// Cheap to compute (the RouteTree is indexed, but no route is grown) yet
  /// captures both decision dimensions.
  std::vector<double> features(const Design& d) const;
  std::size_t num_features() const {
    return 4 * spec_->num_tiles() + 2 * static_cast<std::size_t>(spec_->nz()) -
           1;
  }

  const PlatformSpec& spec() const { return *spec_; }
  const Workload& workload() const { return *workload_; }
  const NocObjectiveParams& params() const { return params_; }
  const DesignOps& ops() const { return ops_; }

 private:
  std::shared_ptr<const PlatformSpec> spec_;
  std::shared_ptr<const Workload> workload_;
  NocObjectiveParams params_;
  std::size_t num_objectives_;
  DesignOps ops_;
};

static_assert(moo::MooProblem<NocProblem>);

}  // namespace moela::noc
