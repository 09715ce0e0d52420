// The moela_serve daemon core: a long-lived TCP server that multiplexes
// line-delimited JSON requests (serve/protocol.hpp) onto ONE shared
// api::Executor backed by ONE process-lifetime api::ResultCache — so
// every connection benefits from every other connection's completed runs,
// and a repeated request is answered without re-running. Results are
// bit-identical to inline execution for fixed seeds: the daemon adds
// serialization (api/serde.hpp) and scheduling (start-time ordering), not
// arithmetic.
//
// Scheduling: each "run" batch carries a priority class (interactive /
// normal / batch). Admitted runs queue in the Executor's weighted-fair
// queue (api/fair_queue.hpp) — per-class weights, round-robin across
// connections within a class — and admission is bounded: when max_queued
// runs are already waiting, the batch is shed whole with a structured
// "overloaded" error (queue depth + retry-after hint) instead of queueing
// unboundedly.
//
// Threading model:
//   * one accept thread;
//   * one reader thread per connection (verbs other than "run" answer
//     inline);
//   * one collector thread per "run" batch, which awaits the batch's
//     futures from the Executor and streams progress events back on the
//     submitting connection (writes serialized by a per-connection mutex);
//   * the Executor's worker pool (ServeConfig::jobs threads) executing
//     dequeued runs;
//   * one watcher thread parked on a self-pipe, the async-signal-safe
//     bridge from SIGINT/SIGTERM to an orderly drain.
//
// Cancellation: each in-flight "run" batch is a record on its connection
// (Connection::Batch), so a "cancel" verb read on the same connection can
// flip it mid-batch — the batch still answers, its unfinished runs marked
// cancelled, and its in-flight slots are released before the response.
//
// Shutdown ladder: request_shutdown()/signal_shutdown() stop the accept
// loop, reject new "run" verbs, nudge idle readers (SHUT_RD), and let
// in-flight batches finish and deliver their responses. signal_hard_stop()
// additionally flips every unanswered batch's RunControl, so in-flight runs
// wind down at their next budget check with partial (cancelled) reports.
//
// Lock order: conn_mutex_, then a connection's batch_mutex, then its
// write_mutex. No thread holds conn_mutex_ or batch_mutex across a socket
// write.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/executor.hpp"
#include "api/priority.hpp"
#include "api/result_cache.hpp"
#include "api/run_log.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace moela::serve {

struct ServeConfig {
  /// Bind address; "0.0.0.0" serves non-local clients.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  int port = kDefaultPort;
  /// Executor worker threads; 0 = all cores.
  std::size_t jobs = 0;
  /// Result cache: on by default, disk tier under `cache_dir` (empty =
  /// ResultCache::default_disk_dir()).
  bool use_cache = true;
  std::string cache_dir;
  /// Per-connection bound on runs queued or running at once; a "run" verb
  /// that would exceed it is rejected with an error response. (The
  /// fairness bound for ONE client; `max_queued` below bounds ALL of
  /// them.)
  std::size_t max_inflight = 256;
  /// Admission bound: runs queued (admitted, not yet started) across all
  /// connections and classes. A batch that would push past it is shed
  /// whole with a structured "overloaded" error instead of queueing.
  std::size_t max_queued = 1024;
  /// Weighted-fair dispatch weights per priority class.
  api::Weights weights;
  /// Optional per-run JSONL logger (not owned). Null falls back to
  /// $MOELA_RUN_LOG via the Executor.
  api::RunLogger* run_log = nullptr;
  /// Directory for persisted RunSnapshots (ExecutorConfig::snapshot_dir —
  /// typically next to the run log). Empty disables persistence; requests
  /// asking to checkpoint then only stream snapshots over the wire.
  std::string snapshot_dir;
};

class Server {
 public:
  explicit Server(ServeConfig config);
  /// Drains and joins everything (equivalent to request_shutdown() +
  /// wait()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept/watcher threads. Throws
  /// std::runtime_error when the address cannot be bound.
  void start();

  /// The bound port (resolves config.port == 0 after start()).
  int port() const { return port_; }

  /// Blocks until the server has fully shut down (accept loop exited,
  /// connections drained, all threads joined). Idempotent.
  void wait();

  /// Graceful shutdown from normal (non-signal) context: stop accepting,
  /// reject new runs, drain in-flight work. Returns immediately.
  void request_shutdown();

  /// Async-signal-safe graceful shutdown (atomic store + self-pipe write);
  /// what a SIGINT/SIGTERM handler should call.
  void signal_shutdown();

  /// Async-signal-safe escalation: also cancel in-flight runs via their
  /// RunControls (performed by the watcher thread; runs stop at their next
  /// budget check and still report, marked cancelled).
  void signal_hard_stop();

  bool shutdown_requested() const {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Shared cache (for stats); nullptr when the cache is disabled.
  api::ResultCache* cache() {
    return config_.use_cache ? &cache_ : nullptr;
  }

  /// Runs queued or running across all connections right now (for tests
  /// and the health verb): the runs of every unanswered batch record.
  std::size_t inflight_total();

  /// The daemon's telemetry registry, the one store of every lifetime
  /// count: verb dispatch, the cache, the Executor and its queue all feed
  /// it (runs started, cancelled, shed, resumed; snapshots written; cache
  /// outcomes). The `metrics` verb snapshots it as JSON and metrics_text()
  /// as Prometheus exposition (moela_serve --metrics-dump). Telemetry only
  /// — nothing here touches cache keys or report bytes.
  const util::MetricsRegistry& metrics() const { return metrics_; }
  std::string metrics_text() const { return metrics_.prometheus_text(); }

  /// Monotonic seconds since start() (0 before it): the health verb's
  /// uptime_seconds, so operators can tell a fresh (cold-cache) daemon
  /// from a long-lived one.
  double uptime_seconds() const {
    return started_ ? started_at_.elapsed_seconds() : 0.0;
  }

 private:
  struct Connection {
    Connection(int fd, std::uint64_t lane) : fd(fd), lane(lane) {}
    const int fd;
    /// This connection's lane in the weighted-fair queue: connections at
    /// the same priority share that class's slots round-robin by lane.
    const std::uint64_t lane;
    /// Serializes response/event lines from concurrent batch threads.
    /// Guards the fd's write side (a kernel resource, not a field), so
    /// there is nothing to MOELA_GUARDED_BY — holding it around every
    /// send_line is the whole protocol.
    util::Mutex write_mutex;
    /// One admitted "run" batch: the record the cancel verb, the hard
    /// stop, the in-flight bound and the health verb's load all read.
    /// handle_run inserts it BEFORE the batch reaches the Executor, so a
    /// cancel that chases its run down the same pipe finds it, and it is
    /// kept until its collector thread is joined.
    struct Batch {
      /// Client-chosen, so not unique: cancel stops every unanswered batch
      /// carrying the target id.
      std::uint64_t id = 0;
      /// Queued or running until the batch has answered.
      std::size_t runs = 0;
      /// Dropped by the collector once the reply is out, which marks the
      /// record for reaping.
      std::shared_ptr<api::RunControl> control;
      /// Awaits the batch's futures and sends its reply.
      std::thread collector;
      /// Every report is in (set before the reply goes out): the batch is
      /// no longer load, and neither a cancel nor the hard stop touches it.
      bool answered = false;
    };
    util::Mutex batch_mutex;
    std::list<Batch> batches MOELA_GUARDED_BY(batch_mutex);
    /// Runs queued or running on this connection (the in-flight bound).
    std::size_t inflight() const MOELA_REQUIRES(batch_mutex) {
      std::size_t runs = 0;
      for (const Batch& batch : batches) {
        if (!batch.answered) runs += batch.runs;
      }
      return runs;
    }
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void watcher_loop();
  void serve_connection(const std::shared_ptr<Connection>& connection);
  void handle_line(const std::shared_ptr<Connection>& connection,
                   const std::string& line);
  void handle_run(const std::shared_ptr<Connection>& connection,
                  std::uint64_t id, const util::Json& message);
  void handle_cancel(const std::shared_ptr<Connection>& connection,
                     std::uint64_t id, const util::Json& message);
  /// Awaits one admitted batch's futures (completion order decided by the
  /// Executor's queue), stamps the class into each report's provenance,
  /// marks the batch answered and sends the final response.
  void run_batch(std::shared_ptr<Connection> connection,
                 Connection::Batch* batch,
                 std::vector<std::future<api::RunReport>> futures,
                 api::Priority priority);
  /// The health verb's per-class load block (queued, running).
  util::Json sched_classes_json() const;
  /// Stops the listener and nudges idle connection readers; safe to call
  /// repeatedly, from the watcher or teardown.
  void begin_drain();
  void reap_connections();

  ServeConfig config_;
  /// Declared before cache_/executor_ (so it is destroyed after them):
  /// they hold handles into it.
  util::MetricsRegistry metrics_;
  /// Pre-resolved per-verb telemetry: handle_line looks the verb up here
  /// and touches only atomics, keeping the dispatch path lock-free. Verbs
  /// outside the protocol's fixed set share the "other" series so a
  /// misbehaving client cannot grow label cardinality.
  struct VerbMetrics {
    util::Counter* requests = nullptr;
    util::Histogram* seconds = nullptr;
  };
  std::map<std::string, VerbMetrics> verb_metrics_;
  VerbMetrics other_verb_metrics_;
  /// Monotonic clock started by start(): the health verb's uptime.
  util::Timer started_at_;
  api::ResultCache cache_;
  std::unique_ptr<api::Executor> executor_;
  std::atomic<std::uint64_t> next_lane_{0};

  int listen_fd_ = -1;
  int port_ = 0;
  int signal_pipe_[2] = {-1, -1};

  std::thread accept_thread_;
  std::thread watcher_thread_;
  util::Mutex conn_mutex_;
  /// Every connection with its reader thread. wait() moves the threads out
  /// to join them but leaves the connections, so a hard stop arriving
  /// during the drain still reaches their batches.
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>>
      connections_ MOELA_GUARDED_BY(conn_mutex_);

  std::atomic<bool> stop_{false};
  std::atomic<bool> hard_stop_{false};
  std::atomic<bool> watcher_exit_{false};
  /// Written by start() before any server thread spawns, read-only after
  /// — so uptime_seconds() may read it lock-free.
  bool started_ = false;
  util::Mutex wait_mutex_;
  bool joined_ MOELA_GUARDED_BY(wait_mutex_) = false;
};

}  // namespace moela::serve
