// Batched execution layer, part 3: the thread-pooled Executor.
//
// Schedules a vector of RunRequests onto a fixed pool of worker threads and
// hands back one std::future<RunReport> per request (index-aligned), so the
// paper's (application x objectives x algorithm x seed) grid runs as one
// batch instead of a serial loop:
//
//   api::Executor executor({.jobs = 4, .cache = &cache});
//   api::RunControl control;            // optional: progress + Ctrl-C stop
//   auto reports = executor.run_all(requests, &control);
//
// The pool drains a weighted-fair queue (api/fair_queue.hpp). In-process
// callers submit under one class on one lane, which the queue pops in FIFO
// order; the moela_serve daemon submits each connection's batches under
// the batch's priority class on the connection's lane, bounded by
// `max_queued` (a batch is admitted whole or shed whole). Per-class
// queued/running counts feed the daemon's health verb; lifetime counts go
// to the metrics registry only.
//
// Guarantees:
//   * Determinism — each run owns its EvalContext and RNG (seeded from its
//     request), so reports are bit-identical to serial execution for the
//     same seeds, regardless of jobs, class, or completion order:
//     scheduling reorders start times only.
//   * Observability — progress events flow through the shared RunControl
//     at the snapshot cadence, plus one `finished` event per run.
//   * Cancellation — RunControl::request_stop() stops queued requests
//     before they start and winds down in-flight runs at their next budget
//     check; every future still yields a well-formed report.
//   * Caching — with a ResultCache attached, a request whose cache_key()
//     hits is served without running (provenance.cache_hit = true).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "api/fair_queue.hpp"
#include "api/optimizer.hpp"
#include "api/priority.hpp"
#include "api/request.hpp"
#include "api/result_cache.hpp"
#include "util/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace moela::api {

struct ExecutorConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t jobs = 0;
  /// Optional result cache consulted before and filled after each run
  /// (not owned; must outlive the Executor).
  ResultCache* cache = nullptr;
  /// Optional per-run JSONL logger (not owned; must outlive the Executor).
  /// Left null, the Executor falls back to RunLogger::from_env(), so
  /// MOELA_RUN_LOG=<path> enables structured logs in any Executor-based
  /// tool without code changes.
  class RunLogger* run_log = nullptr;
  /// Optional telemetry registry (not owned; must outlive the Executor).
  /// Each executed (not cached) run observes its wall time into a
  /// per-algorithm moela_run_seconds histogram, and checkpointing counts
  /// into moela_snapshots_written_total / moela_runs_resumed_total.
  /// Each dispatched run also observes its admission-to-start wait into a
  /// per-class moela_sched_queue_wait_seconds histogram (whose count is
  /// the class's runs started), and cancelled and shed runs count into
  /// per-class moela_runs_cancelled_total / moela_runs_shed_total.
  /// Telemetry only: nothing here feeds back into reports or cache keys.
  util::MetricsRegistry* metrics = nullptr;
  /// Directory for persisted RunSnapshots (next to the run log, in
  /// deployments that keep both). Empty disables persistence: checkpointed
  /// runs still stream snapshots on progress events, they just leave no
  /// disk state. Files follow the ResultCache discipline — schema-salted
  /// fingerprint hashed to the file stem, atomic write-temp-then-rename —
  /// and a request that asks to checkpoint resumes from its snapshot file
  /// automatically when one exists. A completed (non-cancelled) run deletes
  /// its file: the snapshot's job is done.
  std::string snapshot_dir{};
  /// Per-class dispatch weights of the fair queue.
  Weights weights{};
  /// Admission bound: runs QUEUED (admitted, not yet started) across all
  /// classes. A batch that would push past it is shed whole. Running runs
  /// do not count — capacity in flight is not backlog. The default is no
  /// bound, so an in-process batch is never shed.
  std::size_t max_queued = std::numeric_limits<std::size_t>::max();
};

class Executor {
 public:
  explicit Executor(ExecutorConfig config = {});
  /// Joins the workers after draining the queue (a pending stop request
  /// makes the drain fast: remaining runs return cancelled reports).
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Worker threads (the resolved `jobs`).
  std::size_t jobs() const { return jobs_; }

  /// Outcome of one submit(): either the batch's futures (index-aligned
  /// with the submitted requests) or a shed decision with the structured
  /// overload facts the serve protocol reports.
  struct Admission {
    bool admitted = false;
    /// Queued runs at decision time (before this batch, when shed; after
    /// enqueueing it, when admitted).
    std::size_t queue_depth = 0;
    /// Coarse back-off hint for a shed client, milliseconds.
    std::uint64_t retry_after_ms = 0;
    std::vector<std::future<RunReport>> futures;
  };

  /// Admits the whole batch under `priority` on lane `lane`, or sheds it
  /// whole (only when max_queued is set). Lanes share a class round-robin
  /// (the daemon gives each connection its own). A run that throws (unknown
  /// registry key, bad problem options, ...) surfaces the exception from
  /// that future's get(). `control` (optional) is shared by every run in
  /// the batch.
  Admission submit(std::vector<RunRequest> requests,
                   RunControl* control = nullptr,
                   Priority priority = Priority::kNormal,
                   std::uint64_t lane = 0);

  /// submit() + get(): blocks until the whole batch is done and returns the
  /// reports index-aligned with `requests`. Throws std::runtime_error only
  /// when a configured max_queued sheds the batch.
  std::vector<RunReport> run_all(std::vector<RunRequest> requests,
                                 RunControl* control = nullptr);

  /// One class's load right now (the daemon's health verb).
  ClassCounters counters(Priority priority) const;
  /// Runs queued across all classes right now.
  std::size_t queued_total() const;
  /// Runs executing right now.
  std::size_t running_total() const;

  /// The shed response's back-off hint for a given backlog: scales with
  /// queue depth over worker count, clamped to [50ms, 5s]. Deterministic
  /// in its inputs so tests can pin it.
  std::uint64_t retry_after_hint(std::size_t queue_depth) const;

 private:
  /// Shared per-batch bookkeeping for the `completed / total` progress
  /// fields.
  struct BatchState {
    std::atomic<std::size_t> completed{0};
    std::size_t total = 0;
  };
  /// One admitted run: its request, batch, and promise (executor.cpp).
  struct Job;

  RunReport execute(const RunRequest& request, RunControl* control,
                    std::size_t index, const std::shared_ptr<BatchState>& batch);
  /// Takes one run of class index `cls` off the running count (and counts
  /// it cancelled when its report says so). Called by the job itself just
  /// before it fulfills its promise, so the load and counts a caller reads
  /// are never behind a report it already holds.
  void retire(std::size_t cls, bool cancelled);
  void worker_loop();

  ExecutorConfig config_;
  /// Pre-resolved checkpoint counters (null when metrics is null) so the
  /// hot path never does a registry name lookup.
  util::Counter* snapshots_written_ = nullptr;
  util::Counter* runs_resumed_ = nullptr;
  /// Pre-resolved per-class queue-wait histograms and cancelled / shed
  /// counters; null without a registry.
  util::Histogram* queue_wait_[kNumClasses] = {};
  util::Counter* runs_cancelled_[kNumClasses] = {};
  util::Counter* runs_shed_[kNumClasses] = {};
  std::size_t jobs_ = 0;
  std::vector<std::thread> workers_;
  mutable util::Mutex mutex_;
  util::CondVar wake_;
  /// The FairQueue is deliberately not internally synchronized; this
  /// annotation IS its locking contract (see fair_queue.hpp).
  FairQueue queue_ MOELA_GUARDED_BY(mutex_);
  /// queued is derived from queue_; running lives here.
  ClassCounters counters_[kNumClasses] MOELA_GUARDED_BY(mutex_);
  bool shutting_down_ MOELA_GUARDED_BY(mutex_) = false;
};

}  // namespace moela::api
