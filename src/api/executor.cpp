#include "api/executor.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "api/run_log.hpp"
#include "api/snapshot.hpp"
#include "util/file.hpp"
#include "util/timer.hpp"

namespace moela::api {
namespace {

namespace fs = std::filesystem;

/// The snapshot file for a fingerprint: hashed stem (fingerprints embed
/// whole cache keys — too long and too shell-hostile for a filename), own
/// extension so a snapshot directory pointed at the cache dir could never
/// collide with ".moela" entries.
std::string snapshot_file(const std::string& dir,
                          const std::string& fingerprint) {
  return (fs::path(dir) / (ResultCache::hash_key(fingerprint) + ".snap"))
      .string();
}

/// Best-effort read + strict validation. Anything wrong — unreadable file,
/// bad JSON, checksum mismatch, foreign fingerprint — returns null and the
/// run starts fresh: a stale snapshot must never poison a result.
std::shared_ptr<const RunSnapshot> load_snapshot_file(
    const std::string& path, const std::string& fingerprint) {
  const auto text = util::read_file(path);
  if (!text) return nullptr;
  try {
    RunSnapshot snapshot = snapshot_from_text(*text);
    if (snapshot.fingerprint != fingerprint) return nullptr;
    return std::make_shared<const RunSnapshot>(std::move(snapshot));
  } catch (const std::exception&) {
    return nullptr;
  }
}

/// Atomic persistence, same discipline as the ResultCache disk tier: a
/// reader (or a crash) never observes a half-written snapshot.
bool write_snapshot_file(const std::string& path,
                         const RunSnapshot& snapshot) {
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  return util::write_file_atomic(path, snapshot_to_text(snapshot));
}

std::size_t class_index(Priority priority) {
  return static_cast<std::size_t>(priority);
}

}  // namespace

/// Everything one queued run needs to execute and answer its future. Held
/// by shared_ptr because QueueItem::work is a copyable std::function.
struct Executor::Job {
  RunRequest request;
  RunControl* control = nullptr;
  std::size_t index = 0;
  std::shared_ptr<BatchState> batch;
  std::promise<RunReport> promise;
  /// Started at admission; read when a worker dequeues the run, so the
  /// per-class queue-wait histogram measures time spent waiting, not
  /// running.
  util::Timer queued_at;
};

Executor::Executor(ExecutorConfig config)
    : config_(config), queue_(config.weights) {
  if (config_.run_log == nullptr) config_.run_log = RunLogger::from_env();
  if (config_.metrics != nullptr) {
    snapshots_written_ = &config_.metrics->counter(
        "moela_snapshots_written_total",
        "RunSnapshots persisted to the snapshot directory");
    runs_resumed_ = &config_.metrics->counter(
        "moela_runs_resumed_total",
        "Runs resumed from a RunSnapshot instead of starting fresh");
    for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
      const util::MetricLabels labels = {
          {"class", priority_name(static_cast<Priority>(cls))}};
      queue_wait_[cls] = &config_.metrics->histogram(
          "moela_sched_queue_wait_seconds",
          "Admission-to-dispatch wait of scheduled runs by priority class",
          util::exponential_bounds(0.001, 4.0, 12), labels);
      runs_cancelled_[cls] = &config_.metrics->counter(
          "moela_runs_cancelled_total",
          "Runs whose report came back cancelled, by priority class", labels);
      runs_shed_[cls] = &config_.metrics->counter(
          "moela_runs_shed_total",
          "Runs shed at admission (queue full), by priority class", labels);
    }
  }
  jobs_ = config.jobs;
  if (jobs_ == 0) {
    jobs_ = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(jobs_);
  for (std::size_t i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Executor::~Executor() {
  {
    util::MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::uint64_t Executor::retry_after_hint(std::size_t queue_depth) const {
  const std::uint64_t hint = 50 * (1 + queue_depth / jobs_);
  return std::min<std::uint64_t>(hint, 5000);
}

Executor::Admission Executor::submit(std::vector<RunRequest> requests,
                                     RunControl* control, Priority priority,
                                     std::uint64_t lane) {
  const std::size_t n = requests.size();
  const std::size_t cls = class_index(priority);
  Admission admission;
  auto batch = std::make_shared<BatchState>();
  batch->total = n;
  admission.futures.reserve(n);
  {
    util::MutexLock lock(mutex_);
    // Admission is all-or-nothing ON THE QUEUED BACKLOG: work in flight
    // is capacity being used, not load waiting, so it does not count
    // against the bound.
    if (queue_.size() + n > config_.max_queued) {
      admission.queue_depth = queue_.size();
      admission.retry_after_ms = retry_after_hint(queue_.size());
      admission.futures.clear();
      if (runs_shed_[cls] != nullptr) runs_shed_[cls]->add(n);
      return admission;
    }
    for (std::size_t i = 0; i < n; ++i) {
      auto job = std::make_shared<Job>();
      job->request = std::move(requests[i]);
      job->control = control;
      job->index = i;
      job->batch = batch;
      admission.futures.push_back(job->promise.get_future());
      QueueItem item;
      // The counters settle BEFORE the promise: a caller that has seen its
      // report must never read a snapshot still counting that run as
      // running — the health verb is how clients observe the queue.
      item.work = [this, job, cls] {
        if (queue_wait_[cls] != nullptr) {
          queue_wait_[cls]->observe(job->queued_at.elapsed_seconds());
        }
        try {
          RunReport report =
              execute(job->request, job->control, job->index, job->batch);
          retire(cls, report.provenance.cancelled);
          job->promise.set_value(std::move(report));
        } catch (...) {
          retire(cls, false);
          job->promise.set_exception(std::current_exception());
        }
      };
      queue_.push(priority, lane, std::move(item));
    }
    admission.admitted = true;
    admission.queue_depth = queue_.size();
  }
  wake_.notify_all();
  return admission;
}

std::vector<RunReport> Executor::run_all(std::vector<RunRequest> requests,
                                         RunControl* control) {
  const std::size_t n = requests.size();
  Admission admission = submit(std::move(requests), control);
  if (!admission.admitted) {
    throw std::runtime_error(
        "Executor: batch shed (" + util::dec(admission.queue_depth) +
        " run(s) queued + " + util::dec(n) + " requested > max_queued " +
        util::dec(config_.max_queued) + ")");
  }
  std::vector<RunReport> reports;
  reports.reserve(n);
  for (auto& future : admission.futures) reports.push_back(future.get());
  return reports;
}

void Executor::retire(std::size_t cls, bool cancelled) {
  if (cancelled && runs_cancelled_[cls] != nullptr) {
    runs_cancelled_[cls]->add();
  }
  util::MutexLock lock(mutex_);
  --counters_[cls].running;
}

void Executor::worker_loop() {
  for (;;) {
    Priority priority = Priority::kNormal;
    QueueItem item;
    {
      util::MutexLock lock(mutex_);
      while (!shutting_down_ && queue_.empty()) wake_.wait(lock);
      if (queue_.empty()) return;  // shutting down and drained
      queue_.pop(priority, item);
      ++counters_[class_index(priority)].running;
    }
    item.work();  // settles the counters; exceptions land in the promise
  }
}

ClassCounters Executor::counters(Priority priority) const {
  util::MutexLock lock(mutex_);
  ClassCounters out = counters_[class_index(priority)];
  out.queued = queue_.size(priority);
  return out;
}

std::size_t Executor::queued_total() const {
  util::MutexLock lock(mutex_);
  return queue_.size();
}

std::size_t Executor::running_total() const {
  util::MutexLock lock(mutex_);
  std::size_t running = 0;
  for (const ClassCounters& counters : counters_) {
    running += counters.running;
  }
  return running;
}

RunReport Executor::execute(const RunRequest& request, RunControl* control,
                            std::size_t index,
                            const std::shared_ptr<BatchState>& batch) {
  // The completed counter must advance on every exit path (including a
  // throwing make_problem / registry lookup), or batch progress displays
  // would stall short of `total`.
  auto finish = [&](const RunReport* report) {
    const std::size_t done =
        batch->completed.fetch_add(1, std::memory_order_relaxed) + 1;
    if (control == nullptr) return;
    RunProgress progress;
    progress.batch_index = index;
    progress.batch_size = batch->total;
    progress.completed = done;
    progress.max_evaluations = request.options.max_evaluations;
    progress.finished = true;
    if (report != nullptr) {
      progress.algorithm = report->algorithm;
      progress.evaluations = report->evaluations;
      progress.seconds = report->seconds;
      progress.cache_hit = report->provenance.cache_hit;
    }
    control->notify(progress);
  };

  util::Timer wall;
  try {
    const std::string key = request.cache_key();
    RunReport report;
    bool ran = false;
    if (config_.cache != nullptr) {
      if (auto hit = config_.cache->lookup(key, request.need_designs)) {
        report = std::move(*hit);
      }
    }
    std::string snap_path;
    if (!report.provenance.cache_hit) {
      if (control != nullptr && control->stop_requested()) {
        report = cancelled_report(request);  // never started
      } else {
        AnyProblem problem =
            request.bound_problem.has_value()
                ? request.bound_problem
                : make_problem(request.problem, request.problem_options);
        auto optimizer =
            registry().create(request.algorithm, std::move(problem));
        RunCheckpoint ckpt;
        if (request.checkpoint) {
          // A bound problem has no fingerprint (cache_key is empty), which
          // makes it uncheckpointable: the request silently runs plain.
          ckpt.fingerprint = snapshot_fingerprint(request);
          ckpt.checkpoint = !ckpt.fingerprint.empty();
        }
        if (ckpt.checkpoint) {
          if (request.resume != nullptr &&
              request.resume->fingerprint == ckpt.fingerprint) {
            ckpt.resume = request.resume;
          }
          if (!config_.snapshot_dir.empty()) {
            snap_path = snapshot_file(config_.snapshot_dir, ckpt.fingerprint);
            if (ckpt.resume == nullptr) {
              // Auto-resume: a snapshot file left by a crashed/cancelled
              // earlier attempt at this exact request.
              ckpt.resume = load_snapshot_file(snap_path, ckpt.fingerprint);
            }
            ckpt.on_snapshot = [this, &snap_path](const RunSnapshot& s) {
              if (write_snapshot_file(snap_path, s) &&
                  snapshots_written_ != nullptr) {
                snapshots_written_->add();
              }
            };
          }
          if (ckpt.resume != nullptr && runs_resumed_ != nullptr) {
            runs_resumed_->add();
          }
        }
        report =
            optimizer->run(request.options, control, index, batch->total, ckpt);
        ran = true;
        if (!snap_path.empty() && !report.provenance.cancelled) {
          // The run completed; its snapshot has served its purpose. A
          // cancelled run keeps the file so the next attempt resumes.
          std::error_code ec;
          fs::remove(snap_path, ec);
        }
      }
    }
    report.provenance.problem = request.problem;
    report.provenance.algorithm_key = request.algorithm;
    report.provenance.cache_key = key;
    // Stamped on EVERY path (run, cache hit, cancelled) so a replayed
    // report always echoes THIS request's trace, not the filler's.
    report.provenance.trace_id = request.trace_id;
    if (ran && config_.cache != nullptr) {
      config_.cache->store(key, report);  // ignores cancelled partials
    }
    if (ran && config_.metrics != nullptr) {
      config_.metrics
          ->histogram("moela_run_seconds",
                      "Wall time of executed (non-cached) runs by algorithm",
                      util::exponential_bounds(0.001, 2.0, 16),
                      {{"algorithm", request.algorithm}})
          .observe(wall.elapsed_seconds());
    }
    if (config_.run_log != nullptr) {
      config_.run_log->append(request, report, wall.elapsed_seconds());
    }
    finish(&report);
    return report;
  } catch (const std::exception& e) {
    if (config_.run_log != nullptr) {
      config_.run_log->append_error(request, e.what(),
                                    wall.elapsed_seconds());
    }
    finish(nullptr);
    throw;  // delivered by this request's future
  } catch (...) {
    if (config_.run_log != nullptr) {
      config_.run_log->append_error(request, "unknown exception",
                                    wall.elapsed_seconds());
    }
    finish(nullptr);
    throw;
  }
}

}  // namespace moela::api
