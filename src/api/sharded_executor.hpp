// Sharded batch execution: the coordinator that fans one RunRequest batch
// across several moela_serve daemons and merges the answers back into
// request order. A drop-in sibling of api::Executor for workloads too big
// for one machine:
//
//   api::ShardedExecutorConfig config;
//   config.endpoints = {{"10.0.0.1", 7313}, {"10.0.0.2", 7313}};
//   api::ShardedExecutor sharded(config);
//   std::vector<api::RunReport> reports = sharded.run_all(requests);
//
// Guarantees (mirroring the Executor's):
//   * Determinism — reports[i] always answers requests[i], and because a
//     daemon-served report is bit-identical to inline execution for fixed
//     seeds (the serde layer carries hexfloat doubles end to end), a
//     sharded sweep is bit-identical to an inline run regardless of the
//     shard count or which shard served which request.
//   * Fault tolerance — a shard that cannot be reached or fails mid-batch
//     is retired for the rest of the run and its outstanding requests are
//     requeued onto the surviving shards; each request is attempted at
//     most `max_attempts` times, so a poison request terminates instead of
//     ping-ponging. With `checkpoint` (the default), requests stream
//     RunSnapshots while they run, and a request requeued from a dead
//     shard ships its latest snapshot to the survivor — the continuation
//     replays to the same bit-identical report instead of starting over.
//     Requests that no shard could serve fail the batch.
//   * Observability — per-run `finished` events (and, with
//     `stream_progress`, the daemons' snapshot-cadence progress events)
//     are forwarded to the RunControl passed to run_all, index-tagged in
//     the merged batch order; shard_stats() reports placement afterwards.
//   * Cancellation — a RunControl stop crosses the wire: every lane with
//     an in-flight chunk sends the protocol's cancel verb, the daemons
//     stop those runs at their next budget check, and the merged batch
//     marks exactly the unfinished runs cancelled (runs completed before
//     the stop keep their bit-identical reports; unstarted requests
//     return cancelled reports, as the Executor's queued runs do). A
//     cancelled chunk answers normally, so cancellation never charges
//     attempts or retires a shard.
//
// Each shard is driven by two lanes, each a thread owning one serve::Client
// (the Client is single-connection, not thread-safe) that connects when
// the lane first has a chunk. Placement is work stealing: every lane pulls
// its next chunk from one shared queue only once its previous reply has
// arrived, so a fast (or cache-warm) daemon serves more of the batch, and a
// daemon already busy with other clients' work holds at most one chunk per
// lane while the rest of the batch goes to its peers. While one lane's
// chunk executes, the other lane's chunk already waits in the daemon's
// queue, so the daemon never idles through a round trip; a one-chunk batch
// still uses one connection. Both lanes of a shard retire together when
// either loses the daemon. Every endpoint's `health` verb is probed first;
// dead or draining daemons get no lanes.
// A chunk (one wire batch) is sized from the probe: a lone shard takes the
// whole batch, capped at its daemon's max_inflight (uncapped when the probe
// reported none; the bound is per connection, so the two lanes may each
// carry a capped piece); with peers, a chunk is the daemon's worker count
// (1 when unreported), so one chunk saturates its Executor pool and the
// other lane's waits in its queue.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "api/optimizer.hpp"
#include "api/priority.hpp"
#include "api/request.hpp"
#include "util/metrics.hpp"

namespace moela::api {

/// One moela_serve daemon address.
struct ShardEndpoint {
  std::string host = "127.0.0.1";
  /// TCP port; 0 means the moela_serve default (serve::kDefaultPort).
  int port = 0;

  std::string to_string() const;
};

/// Parses "host:port" / ":port" / "host" / "port" (the same rules as
/// moela_cli --connect). Returns false on a malformed port.
bool parse_shard_endpoint(const std::string& spec, ShardEndpoint& out);

struct ShardedExecutorConfig {
  /// The daemon fleet. At least one endpoint is required.
  std::vector<ShardEndpoint> endpoints;
  /// Per-request cap on executions attempted across shards before the
  /// request is declared failed (>= 1). Only a request that fails ALONE is
  /// charged: a failed multi-request chunk is requeued with its members
  /// forced to retry one at a time (the failure cannot be attributed to
  /// any one member), and transport failures that requeue never-started
  /// requests do not count either.
  std::size_t max_attempts = 3;
  /// Checkpoint every dispatched request (RunRequest::checkpoint): the
  /// daemons stream RunSnapshots at the snapshot cadence, the coordinator
  /// keeps the latest per request, and a request requeued after a shard
  /// death resumes from it on the next shard instead of re-running from
  /// scratch. Reports stay bit-identical either way (resume is replay);
  /// this only changes how much work a failure wastes. Off: failures
  /// re-run whole requests, as before PR 9.
  bool checkpoint = true;
  /// Ask the daemons for snapshot-cadence progress events and forward
  /// them (finished events are always forwarded).
  bool stream_progress = false;
  /// The batch's scheduling class, forwarded to every shard on every wire
  /// batch (including requeued chunks), so a fleet-wide sweep competes
  /// under one class everywhere. Scheduling only: reports stay
  /// bit-identical to inline execution whatever the class.
  Priority priority = Priority::kNormal;
  /// Optional telemetry registry (not owned; must outlive run_all).
  /// Requests dispatched to and requeued from each endpoint count into
  /// per-endpoint moela_shard_placed_total / moela_shard_requeued_total.
  util::MetricsRegistry* metrics = nullptr;
};

/// Per-shard outcome of the last run_all(), index-aligned with
/// config.endpoints.
struct ShardStats {
  std::string endpoint;
  /// Answered the health probe, and no lane's connect to it failed after.
  bool healthy = false;
  /// Reports this shard contributed to the merged batch.
  std::size_t completed = 0;
  /// Chunks that failed on this shard (transport or server error).
  std::size_t failures = 0;
  /// Completed requests that resumed from a mid-run snapshot (i.e. work
  /// this shard continued for a failed peer rather than restarted).
  std::size_t resumed = 0;
  /// The shard's last error, empty when it never failed.
  std::string error;
};

class ShardedExecutor {
 public:
  /// Throws std::invalid_argument on an empty endpoint list or zero
  /// max_attempts.
  explicit ShardedExecutor(ShardedExecutorConfig config);

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Fans the batch across the fleet and blocks until every request has a
  /// report (or has exhausted its attempts). Reports are index-aligned
  /// with `requests`. Throws std::runtime_error when requests remain
  /// unserved; the message names the failing endpoints and requests. Not
  /// thread-safe: one run_all at a time.
  std::vector<RunReport> run_all(const std::vector<RunRequest>& requests,
                                 RunControl* control = nullptr);

  /// Placement/fault outcome of the last run_all().
  const std::vector<ShardStats>& shard_stats() const { return stats_; }

 private:
  ShardedExecutorConfig config_;
  std::vector<ShardStats> stats_;
};

}  // namespace moela::api
