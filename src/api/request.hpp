// Batched execution layer, part 1: RunRequest, the schedulable unit of
// work. Where Optimizer::run is an inline call, a RunRequest is a VALUE
// describing one (problem x algorithm x options) cell — it can sit in a
// queue, be hashed into a cache key, be replicated across seeds, and be
// executed by any worker thread. The Executor (api/executor.hpp) schedules
// vectors of them; the ResultCache (api/result_cache.hpp) keys on them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/any_problem.hpp"
#include "api/optimizer.hpp"
#include "api/problems.hpp"
#include "util/numeric.hpp"

namespace moela::api {

/// Version salt folded into every cache_key(). Bump it whenever the key
/// schema, the report serialization, or any algorithm's search behavior
/// changes in a way that makes old cached reports wrong — stale entries
/// written by older binaries then read as misses instead of being served
/// (or, worse, aliased). History: v1 = PR 2 initial schema; v2 = PR 3
/// (serve daemon; report schema gained the JSON wire form).
inline constexpr unsigned kCacheSchemaVersion = 2;

/// One schedulable run: which problem, which algorithm, which budgets.
/// A plain value — copying is cheap (the bound problem, if any, is shared).
struct RunRequest {
  /// make_problem() key ("zdt1", "noc", ...). May be empty when
  /// `bound_problem` is set.
  std::string problem;
  /// Instance parameters for make_problem (app / objectives / seed / ...).
  ProblemOptions problem_options;
  /// Registry key of the algorithm ("moela", "nsga2", ...). Required.
  std::string algorithm;
  /// Budgets, sizing, seed, and the per-algorithm knob bag.
  RunOptions options;
  /// Optional pre-built problem; when set it is used instead of
  /// make_problem(problem, problem_options). If `problem` is ALSO set, the
  /// caller asserts the key + options describe this instance (they feed the
  /// cache key); with an empty `problem` the request is simply uncacheable.
  AnyProblem bound_problem;
  /// When true, a disk-cache hit whose stored report lacks designs (design
  /// type without a serializer) is rejected and the run is recomputed, so
  /// callers that unwrap designs_as<D>() always get them.
  bool need_designs = false;
  /// Optional display label for progress/logs; label_or_default() falls
  /// back to "problem:algorithm:seed".
  std::string label;
  /// Correlation id minted by the submitting CLI/coordinator
  /// (util::mint_trace_id) and echoed through provenance, run logs, and
  /// progress events. Transport metadata only: two requests differing only
  /// in trace_id are the SAME work, so it is deliberately absent from
  /// cache_key() and never alters report content.
  std::string trace_id;
  /// Opt-in checkpointing: the run records its evaluation journal and
  /// emits RunSnapshots at the snapshot cadence (streamed on progress
  /// events; persisted by an Executor with a snapshot_dir). Run-durability
  /// metadata only: a checkpointed run produces the same report as an
  /// uncheckpointed one, so like label/trace_id this is deliberately absent
  /// from cache_key().
  bool checkpoint = false;
  /// Optional snapshot to resume from (shared, immutable — copying the
  /// request is still cheap). Consumers validate the fingerprint against
  /// snapshot_fingerprint(*this) and silently run fresh on a mismatch;
  /// a valid resume replays to a report bit-identical to the
  /// uninterrupted run, which is exactly why it must never feed
  /// cache_key(): resumed and fresh are the SAME work.
  std::shared_ptr<const RunSnapshot> resume;

  /// Canonical content key of this request: identical requests — same
  /// problem instance, algorithm, budgets, seed, and knob values — map to
  /// the same string, and any differing field changes it. Doubles are
  /// rendered as hexfloats so the key is exact, not rounded. Returns ""
  /// (uncacheable) when the problem is only bound, not keyed.
  std::string cache_key() const;

  std::string label_or_default() const {
    if (!label.empty()) return label;
    return (problem.empty() ? std::string("<custom>") : problem) + ":" +
           algorithm + ":" + util::dec(options.seed);
  }
};

/// Expands `base` into `replicates` requests differing only in the run
/// seed: replicate i runs with seed base.options.seed + i (the problem
/// instance seed stays fixed — replicates vary the search, not the
/// instance). expand_replicates(r, 1) == {r}.
std::vector<RunRequest> expand_replicates(const RunRequest& base,
                                          std::size_t replicates);

/// The report of a run stopped before it started: empty and well formed,
/// marked cancelled, with the request's provenance. The Executor and the
/// ShardedExecutor both answer a never-started run with it.
RunReport cancelled_report(const RunRequest& request);

inline std::string RunRequest::cache_key() const {
  if (problem.empty()) return {};
  std::string key = "moela-run-v" + util::dec(kCacheSchemaVersion);
  key += "|problem=" + problem;
  key += "|objectives=" + util::dec(problem_options.num_objectives);
  key += "|variables=" + util::dec(problem_options.num_variables);
  key += "|instance_seed=" + util::dec(problem_options.seed);
  key += "|app=" + problem_options.app;
  key += std::string("|small=") + (problem_options.small_platform ? "1" : "0");
  key += "|algorithm=" + algorithm;
  key += "|evals=" + util::dec(options.max_evaluations);
  key += "|seconds=" + util::hexfloat(options.max_seconds);
  key += "|snapshot=" + util::dec(options.snapshot_interval);
  key += "|seed=" + util::dec(options.seed);
  key += "|pop=" + util::dec(options.population_size);
  key += "|n_local=" + util::dec(options.n_local);
  key += "|knobs=";
  bool first = true;
  // std::map iterates in sorted key order, so knob insertion order cannot
  // change the key.
  for (const auto& [name, value] : options.knobs.values()) {
    if (!first) key += ",";
    first = false;
    key += name + "=" + util::hexfloat(value);
  }
  return key;
}

inline RunReport cancelled_report(const RunRequest& request) {
  RunReport report;
  report.algorithm = request.algorithm;
  report.provenance.problem = request.problem;
  report.provenance.algorithm_key = request.algorithm;
  report.provenance.seed = request.options.seed;
  report.provenance.knobs = request.options.knobs.values();
  report.provenance.cache_key = request.cache_key();
  report.provenance.trace_id = request.trace_id;
  report.provenance.cancelled = true;
  return report;
}

inline std::vector<RunRequest> expand_replicates(const RunRequest& base,
                                                 std::size_t replicates) {
  std::vector<RunRequest> out;
  out.reserve(replicates);
  for (std::size_t i = 0; i < replicates; ++i) {
    RunRequest r = base;
    r.options.seed = base.options.seed + i;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace moela::api
