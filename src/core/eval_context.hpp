// Evaluation bookkeeping shared by every algorithm in the library.
//
// The number of full objective evaluations is the experiment time axis:
// EvalContext counts them, maintains the all-time Pareto archive, and
// records archive snapshots at a fixed evaluation cadence so the harness can
// compute anytime-PHV traces after the fact with a globally consistent
// normalization.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "moo/archive.hpp"
#include "moo/objective.hpp"
#include "moo/problem.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace moela::core {

/// One archive snapshot: the non-dominated objective set after
/// `evaluations` objective evaluations.
struct ArchiveSnapshot {
  std::size_t evaluations = 0;
  double seconds = 0.0;
  std::vector<moo::ObjectiveVector> front;
};

template <moo::MooProblem P>
class EvalContext {
 public:
  using Design = typename P::Design;

  /// `max_evaluations` is the evaluation budget; `snapshot_interval` is the
  /// trace cadence (0 disables snapshots); `max_seconds` > 0 adds a
  /// wall-clock budget (the paper's T_stop runs every algorithm for the
  /// same wall time — the axis on which the baselines pay their
  /// per-candidate overheads).
  EvalContext(const P& problem, std::uint64_t seed,
              std::size_t max_evaluations, std::size_t snapshot_interval = 0,
              double max_seconds = 0.0)
      : problem_(&problem),
        rng_(seed),
        max_evaluations_(max_evaluations),
        snapshot_interval_(snapshot_interval),
        max_seconds_(max_seconds) {}

  /// Evaluates a design, counts it, and folds the result into the archive.
  ///
  /// Replay-based resume: while `evaluations_` is below the replay limit
  /// installed by resume_from(), the objective vector is served from the
  /// journal instead of calling the problem. The algorithm itself still
  /// runs — same RNG draws, same design proposals, same archive folds — so
  /// its internal state after the replayed prefix is bit-identical to the
  /// original run's, at journal-lookup cost instead of evaluation cost.
  moo::ObjectiveVector evaluate(const Design& d) {
    // Replay and journaling live in noinline cold helpers: a plain run
    // (the overwhelming majority) pays two predicted-false branches and
    // nothing else over the pre-checkpoint code. Keeping the helpers'
    // bodies out of this function matters — inlining the vector-growth
    // and replay machinery here pushes evaluate() past the inlining
    // budget of the algorithm loops that call it, a measured double-digit
    // throughput hit on cheap-evaluation problems.
    if (evaluations_ < replay_limit_) [[unlikely]] {
      return evaluate_replayed();
    }
    moo::ObjectiveVector obj = problem_->evaluate(d);
    if (record_journal_) [[unlikely]] {
      record_evaluation(obj);
    }
    ++evaluations_;
    archive_.insert(obj);
    if (snapshot_interval_ > 0 &&
        evaluations_ >= next_snapshot_) {
      take_snapshot();
      next_snapshot_ = evaluations_ + snapshot_interval_;
      if (progress_hook_) progress_hook_(evaluations_, timer_.elapsed_seconds());
    }
    return obj;
  }

  const P& problem() const { return *problem_; }
  util::Rng& rng() { return rng_; }

  std::size_t evaluations() const { return evaluations_; }
  std::size_t max_evaluations() const { return max_evaluations_; }
  bool exhausted() const {
    if (evaluations_ >= max_evaluations_) return true;
    if (external_stop_ != nullptr &&
        external_stop_->load(std::memory_order_relaxed)) {
      return true;
    }
    return max_seconds_ > 0.0 && timer_.elapsed_seconds() >= max_seconds_;
  }
  double elapsed_seconds() const { return timer_.elapsed_seconds(); }

  /// Installs an external stop flag (owned by the caller, e.g. an
  /// api::RunControl); once it reads true the budget counts as exhausted and
  /// the algorithm winds down at its next budget check.
  void set_stop_flag(const std::atomic<bool>* stop) { external_stop_ = stop; }

  /// Installs a progress observer invoked at the snapshot cadence with
  /// (evaluations, elapsed seconds). Called from the run's own thread.
  void set_progress_hook(std::function<void(std::size_t, double)> hook) {
    progress_hook_ = std::move(hook);
  }

  /// Enables the evaluation journal: every objective vector returned by
  /// evaluate() is recorded in evaluation order, the raw material of a
  /// api::RunSnapshot. Off by default — journaling is only paid for by runs
  /// that asked to be checkpointable.
  void record_journal(bool on) { record_journal_ = on; }

  /// The recorded journal (empty unless record_journal(true) or
  /// resume_from() was called). Entry i is the objective vector of
  /// evaluation i+1.
  const std::vector<moo::ObjectiveVector>& journal() const { return journal_; }

  /// Installs a journal prefix for replay-based resume: the first
  /// journal.size() calls to evaluate() are served from it without touching
  /// the problem. Implies journaling (new evaluations append after the
  /// prefix, so later snapshots cover the whole run). Call before the
  /// algorithm starts.
  void resume_from(std::vector<moo::ObjectiveVector> journal) {
    replay_limit_ = journal.size();
    journal_ = std::move(journal);
    record_journal_ = true;
  }

  /// True while evaluate() is still serving the resume prefix.
  bool replaying() const { return evaluations_ < replay_limit_; }

 private:
  /// Journal-recording arm of evaluate(), out of line (see there).
  [[gnu::noinline]] [[gnu::cold]] void record_evaluation(
      const moo::ObjectiveVector& obj) {
    journal_.push_back(obj);
  }

  /// The replay arm of evaluate(): serves the next objective vector from
  /// the journal prefix instead of the problem. Snapshot bookkeeping still
  /// runs (the trace must cover the replayed ground), but progress — and
  /// therefore checkpoint — hooks stay quiet: observers would see a sprint
  /// through old ground, and re-checkpointing evaluations the snapshot
  /// already covers is wasted motion.
  [[gnu::noinline]] [[gnu::cold]] moo::ObjectiveVector evaluate_replayed() {
    moo::ObjectiveVector obj = journal_[evaluations_];
    ++evaluations_;
    archive_.insert(obj);
    if (snapshot_interval_ > 0 && evaluations_ >= next_snapshot_) {
      take_snapshot();
      next_snapshot_ = evaluations_ + snapshot_interval_;
    }
    return obj;
  }

 public:

  /// All-time non-dominated set over every evaluation in this run.
  const moo::ParetoArchive& archive() const { return archive_; }

  const std::vector<ArchiveSnapshot>& snapshots() const { return snapshots_; }

  /// Registers a callback returning the algorithm's CURRENT solution set
  /// (population or bounded archive). Snapshots then record that set — the
  /// paper's PHV is measured on what the algorithm maintains, not on the
  /// union of everything it ever evaluated. Algorithms install this right
  /// after constructing their population; without a provider, snapshots
  /// fall back to the all-time archive front.
  void set_solution_set_provider(
      std::function<std::vector<moo::ObjectiveVector>()> provider) {
    solution_set_provider_ = std::move(provider);
  }

  /// Appends a snapshot of the current solution set (harness calls this
  /// once a run finishes; evaluate() calls it at the snapshot cadence).
  void take_snapshot() {
    std::vector<moo::ObjectiveVector> front;
    if (solution_set_provider_) front = solution_set_provider_();
    if (front.empty()) front = archive_.objective_set();
    snapshots_.push_back(
        {evaluations_, timer_.elapsed_seconds(), std::move(front)});
  }

 private:
  const P* problem_;
  util::Rng rng_;
  std::size_t max_evaluations_;
  std::size_t snapshot_interval_;
  double max_seconds_ = 0.0;
  std::size_t next_snapshot_ = 1;
  std::size_t evaluations_ = 0;
  /// Evaluation journal: objective vectors in evaluation order. Doubles as
  /// the replay source on resume (entries below replay_limit_) and the
  /// recording target afterwards.
  std::vector<moo::ObjectiveVector> journal_;
  std::size_t replay_limit_ = 0;
  bool record_journal_ = false;
  moo::ParetoArchive archive_;
  std::vector<ArchiveSnapshot> snapshots_;
  std::function<std::vector<moo::ObjectiveVector>()> solution_set_provider_;
  const std::atomic<bool>* external_stop_ = nullptr;
  std::function<void(std::size_t, double)> progress_hook_;
  util::Timer timer_;
};

}  // namespace moela::core
