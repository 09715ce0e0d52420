#include "api/sharded_executor.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "api/snapshot.hpp"
// The documented exception to the layer DAG (docs/architecture.md): the
// sharding coordinator lives in api/ but acts as a serve/ protocol client.
// moela-lint: allow(layer-order) coordinator-as-client exception, see docs/architecture.md
#include "serve/client.hpp"
// moela-lint: allow(layer-order) coordinator-as-client exception, see docs/architecture.md
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/thread_annotations.hpp"

namespace moela::api {
namespace {

using util::Json;

/// Lanes (connection + thread) per healthy shard: one chunk executing on
/// the daemon and the next already waiting in its Executor queue, so the
/// daemon's workers never idle through a round trip. A deeper queue would
/// only drain the stealable pool faster.
constexpr std::size_t kLanesPerShard = 2;

/// The work pool shared by the lanes. `pending` holds every request that
/// waits for a lane, requeued ones included. An index is always in exactly
/// one place: pending, in flight at a lane, or retired (done/failed).
struct SharedState {
  util::Mutex mutex;
  util::CondVar work_cv;
  std::deque<std::size_t> pending MOELA_GUARDED_BY(mutex);
  /// Per shard: a lane lost the daemon, so every lane of that shard stops
  /// at its next chunk boundary.
  std::vector<char> retired MOELA_GUARDED_BY(mutex);
  std::size_t inflight MOELA_GUARDED_BY(mutex) = 0;
  std::vector<std::size_t> attempts MOELA_GUARDED_BY(mutex);
  std::vector<std::string> request_error MOELA_GUARDED_BY(mutex);
  std::vector<char> done MOELA_GUARDED_BY(mutex);
  /// Member of a failed multi-request chunk: must be retried ALONE so the
  /// failure is attributable to it (and charged to it) rather than to
  /// whatever shared its wire batch.
  std::vector<char> solo MOELA_GUARDED_BY(mutex);
  /// Requests that have fired a `finished` progress event, so retried
  /// chunks (which re-fire events for re-executed members) cannot inflate
  /// the forwarded `completed` count.
  std::vector<char> finish_reported MOELA_GUARDED_BY(mutex);
  std::size_t finish_count MOELA_GUARDED_BY(mutex) = 0;
  /// Requests for which any event has arrived — proof the daemon actually
  /// started executing them. A transport failure charges an attempt only
  /// for started requests: a request whose shard died before touching it
  /// has not consumed anything.
  std::vector<char> started MOELA_GUARDED_BY(mutex);
  /// Latest harvested RunSnapshot per request (null until one arrives).
  /// A requeued request ships this to its next shard so the continuation
  /// resumes instead of restarting.
  std::vector<std::shared_ptr<const RunSnapshot>> latest_snapshot
      MOELA_GUARDED_BY(mutex);
  /// Lock-free by design: lanes poll it at chunk boundaries and a stop
  /// must be visible without waiting on whoever holds the mutex.
  std::atomic<bool> stopped{false};
};

/// One lane of a shard: owns one connection, opened when the lane first has
/// a chunk, pulls chunks from the shared pool, submits them, and merges
/// replies into `reports` by original index. On a transport failure the
/// lane requeues its chunk and retires the shard; on a server error answer
/// it requeues and keeps serving (the connection survived).
void run_shard(const ShardedExecutorConfig& config,
               const ShardEndpoint& endpoint, ShardStats& stats,
               std::size_t shard, std::size_t chunk_size,
               std::size_t batch_size,
               const std::vector<RunRequest>& requests,
               std::vector<RunReport>& reports, SharedState& shared,
               RunControl* control) {
  // Per-endpoint dispatch/requeue tallies; resolved once per lane so the
  // loop below only touches atomics. Telemetry only.
  util::Counter* placed = nullptr;
  util::Counter* requeued = nullptr;
  if (config.metrics != nullptr) {
    placed = &config.metrics->counter(
        "moela_shard_placed_total",
        "Requests dispatched to each shard endpoint (retries included)",
        {{"endpoint", endpoint.to_string()}});
    requeued = &config.metrics->counter(
        "moela_shard_requeued_total",
        "Requests handed back to the pool after a shard failure",
        {{"endpoint", endpoint.to_string()}});
  }

  serve::Client client;
  for (;;) {
    std::vector<std::size_t> chunk;
    {
      util::MutexLock lock(shared.mutex);
      for (;;) {
        if (control != nullptr && control->stop_requested()) {
          shared.stopped.store(true, std::memory_order_relaxed);
        }
        if (shared.stopped.load(std::memory_order_relaxed)) {
          shared.work_cv.notify_all();
          return;
        }
        if (shared.retired[shard]) return;  // the other lane lost the daemon
        // Fill the chunk from the pool; a `solo` request always rides
        // alone (see SharedState::solo).
        while (!shared.pending.empty() && chunk.size() < chunk_size) {
          const std::size_t next = shared.pending.front();
          if (shared.solo[next] && !chunk.empty()) break;
          shared.pending.pop_front();
          chunk.push_back(next);
          if (shared.solo[next]) break;
        }
        if (!chunk.empty()) {
          shared.inflight += chunk.size();
          break;
        }
        if (shared.pending.empty() && shared.inflight == 0) {
          return;  // batch drained (or every leftover exhausted its cap)
        }
        // Idle but the batch is not drained: a peer may still fail and
        // requeue its work here.
        shared.work_cv.wait(lock);
      }
    }

    if (!client.connected()) {
      try {
        client.connect(endpoint.host, endpoint.port);
      } catch (const std::exception& e) {
        // Never reached a daemon, so this is not an attempt on any
        // request: hand the chunk to the surviving shards and retire.
        util::MutexLock lock(shared.mutex);
        stats.healthy = false;
        stats.failures += 1;
        stats.error = e.what();
        for (const std::size_t i : chunk) shared.pending.push_back(i);
        shared.inflight -= chunk.size();
        shared.retired[shard] = 1;
        if (requeued != nullptr) requeued->add(chunk.size());
        shared.work_cv.notify_all();
        return;
      }
    }

    if (placed != nullptr) placed->add(chunk.size());
    std::vector<RunRequest> batch;
    batch.reserve(chunk.size());
    for (const std::size_t i : chunk) batch.push_back(requests[i]);
    std::size_t resuming = 0;
    if (config.checkpoint) {
      // Attach the latest harvested snapshots (under the mutex: a peer's
      // handler may be storing new ones concurrently). A request seen
      // before resumes mid-run on this shard instead of starting over.
      util::MutexLock lock(shared.mutex);
      for (std::size_t k = 0; k < chunk.size(); ++k) {
        batch[k].checkpoint = true;
        batch[k].resume = shared.latest_snapshot[chunk[k]];
        if (batch[k].resume != nullptr) ++resuming;
      }
    }

    serve::Client::EventHandler handler;
    if (control != nullptr || config.checkpoint) {
      handler = [&config, &shared, &chunk, batch_size,
                 control](const Json& event) {
        // A version-skewed daemon with a missing/garbled index: drop the
        // event rather than misattribute it to another request (the
        // fallback is deliberately out of range).
        const std::size_t local =
            util::u64_field_or(event, "index", chunk.size());
        if (local >= chunk.size()) return;
        const bool finished =
            util::string_field_or(event, "event") == "finished";
        {
          // Any event proves the daemon started executing this request (a
          // later transport failure then charges its attempt), and a
          // snapshot payload becomes its resume point. A garbled snapshot
          // keeps the previous one: never resume from garbage.
          util::MutexLock lock(shared.mutex);
          shared.started[chunk[local]] = 1;
          if (config.checkpoint) {
            if (const Json* snap = event.find("snapshot")) {
              try {
                shared.latest_snapshot[chunk[local]] =
                    std::make_shared<const RunSnapshot>(
                        snapshot_from_json(*snap));
              } catch (const std::exception&) {
              }
            }
          }
        }
        if (control == nullptr) return;
        // Cadence events forward only when the caller asked for streaming
        // (checkpoint-only runs harvest them silently above).
        if (!finished && !config.stream_progress) return;
        // Stale cadence events racing a requested stop are dropped (the
        // Client already suppresses them once ITS cancel went out; this
        // covers the window before, and other shards' chunks): nobody
        // wants to watch progress climb after "cancelling".
        if (control->stop_requested() && !finished) return;
        RunProgress progress;
        progress.batch_size = batch_size;
        progress.batch_index = chunk[local];
        progress.algorithm = util::string_field_or(event, "algorithm");
        progress.evaluations = util::u64_field_or(event, "evaluations", 0);
        progress.max_evaluations =
            util::u64_field_or(event, "max_evaluations", 0);
        progress.seconds = util::double_field_or(event, "seconds", 0.0);
        if (finished) {
          progress.finished = true;
          {
            // First completion per request only: a retried chunk re-fires
            // events for re-executed members, which must not advance (or
            // overrun) the forwarded count.
            util::MutexLock lock(shared.mutex);
            if (!shared.finish_reported[progress.batch_index]) {
              shared.finish_reported[progress.batch_index] = 1;
              ++shared.finish_count;
            }
            progress.completed = shared.finish_count;
          }
          if (const Json* hit = event.find("cache_hit");
              hit != nullptr && hit->is_bool()) {
            progress.cache_hit = hit->as_bool();
          }
        }
        control->notify(progress);
      };
    }

    std::string error;
    bool transport = false;
    try {
      // `control` rides into the client so a stop requested while this
      // chunk is in flight sends the cancel verb to THIS daemon; the
      // chunk then answers normally with its unfinished members marked
      // cancelled — a successful response, so no attempt is charged and
      // the shard is not retired.
      std::vector<RunReport> served = client.run(
          batch, config.stream_progress, handler, control, config.priority);
      if (served.size() != chunk.size()) {
        throw std::runtime_error(client.endpoint() +
                                 ": response size mismatch");
      }
      util::MutexLock lock(shared.mutex);
      for (std::size_t k = 0; k < chunk.size(); ++k) {
        reports[chunk[k]] = std::move(served[k]);
        shared.done[chunk[k]] = 1;
      }
      shared.inflight -= chunk.size();
      stats.completed += chunk.size();
      stats.resumed += resuming;
      shared.work_cv.notify_all();
      continue;
    } catch (const serve::RemoteError& e) {
      error = e.what();  // server answered: the connection is still usable
    } catch (const std::exception& e) {
      error = e.what();
      transport = true;  // connection-level failure: retire this shard
    }

    {
      util::MutexLock lock(shared.mutex);
      stats.failures += 1;
      stats.error = error;
      std::uint64_t handed_back = 0;
      for (const std::size_t i : chunk) {
        shared.request_error[i] = error;
        if (chunk.size() > 1) {
          // A multi-request failure is not attributed to a single member
          // here (the client surfaces only the first per-entry error, and
          // a transport drop names none): retry each alone, attempt
          // uncharged — a chunk-mate that never executed must not burn
          // its cap for a neighbor's poison. Completed chunk-mates do get
          // re-executed (or served from the daemon's cache); the cost is
          // bounded by one solo round.
          shared.solo[i] = 1;
          shared.started[i] = 0;
          shared.pending.push_back(i);
          ++handed_back;
        } else if (transport && !shared.started[i]) {
          // The connection died before the daemon emitted a single event
          // for this request: it never started executing, so no attempt
          // is charged. (A RemoteError always charges: the server
          // answered, so the request genuinely ran and failed.)
          shared.pending.push_back(i);
          ++handed_back;
        } else if (++shared.attempts[i] < config.max_attempts) {
          // Reset the started mark so the NEXT shard's transport failure
          // is charged (or not) on its own evidence.
          shared.started[i] = 0;
          shared.pending.push_back(i);
          ++handed_back;
        }
        // Otherwise its attempts are exhausted: it is never requeued again.
      }
      // The daemon is gone: the shard's other lane stops at its next chunk
      // boundary.
      if (transport) shared.retired[shard] = 1;
      if (requeued != nullptr && handed_back > 0) requeued->add(handed_back);
      shared.inflight -= chunk.size();
      shared.work_cv.notify_all();
    }
    if (transport) return;
  }
}

}  // namespace

std::string ShardEndpoint::to_string() const {
  return host + ":" +
         std::to_string(port == 0 ? serve::kDefaultPort : port);
}

bool parse_shard_endpoint(const std::string& spec, ShardEndpoint& out) {
  return serve::parse_host_port(spec, out.host, out.port);
}

ShardedExecutor::ShardedExecutor(ShardedExecutorConfig config)
    : config_(std::move(config)) {
  if (config_.endpoints.empty()) {
    throw std::invalid_argument("ShardedExecutor: no endpoints");
  }
  if (config_.max_attempts == 0) {
    throw std::invalid_argument("ShardedExecutor: max_attempts must be >= 1");
  }
  for (auto& endpoint : config_.endpoints) {
    if (endpoint.port == 0) endpoint.port = serve::kDefaultPort;
  }
}

std::vector<RunReport> ShardedExecutor::run_all(
    const std::vector<RunRequest>& requests, RunControl* control) {
  const std::size_t n = requests.size();
  std::vector<RunReport> reports(n);
  stats_.assign(config_.endpoints.size(), ShardStats{});
  for (std::size_t s = 0; s < config_.endpoints.size(); ++s) {
    stats_[s].endpoint = config_.endpoints[s].to_string();
  }
  if (n == 0) return reports;

  // Placement gate: probe each endpoint's `health` verb and give dead or
  // draining daemons no lanes. Probes run concurrently so one blackholed
  // endpoint cannot serialize the whole fleet's startup behind its TCP
  // connect timeout.
  std::vector<std::size_t> healthy;
  /// What each probe reported; zero when the probe failed or the daemon
  /// did not report the field. `max_inflight` is the daemon's
  /// per-connection bound.
  struct Probed {
    std::size_t jobs = 0;
    std::size_t max_inflight = 0;
  };
  std::vector<Probed> probed(config_.endpoints.size());
  std::vector<std::thread> probes;
  probes.reserve(config_.endpoints.size());
  for (std::size_t s = 0; s < config_.endpoints.size(); ++s) {
    probes.emplace_back([this, s, &probed] {
      const ShardEndpoint& endpoint = config_.endpoints[s];
      try {
        serve::Client probe;
        probe.connect(endpoint.host, endpoint.port);
        const Json health = probe.health();
        bool accepting = true;
        if (const Json* a = health.find("accepting");
            a != nullptr && a->is_bool()) {
          accepting = a->as_bool();
        }
        probed[s].jobs = util::u64_field_or(health, "jobs", 0);
        probed[s].max_inflight = util::u64_field_or(health, "max_inflight", 0);
        if (accepting) {
          stats_[s].healthy = true;
        } else {
          stats_[s].error =
              endpoint.to_string() + ": draining, not accepting runs";
        }
      } catch (const std::exception& e) {
        stats_[s].failures += 1;
        stats_[s].error = e.what();
      }
    });
  }
  for (auto& probe : probes) probe.join();
  for (std::size_t s = 0; s < config_.endpoints.size(); ++s) {
    if (stats_[s].healthy) healthy.push_back(s);
  }

  SharedState shared;
  {
    // No lane exists yet, but the capability discipline is uniform:
    // SharedState is touched under its mutex, always.
    util::MutexLock lock(shared.mutex);
    for (std::size_t i = 0; i < n; ++i) shared.pending.push_back(i);
    shared.retired.assign(config_.endpoints.size(), 0);
    shared.attempts.assign(n, 0);
    shared.request_error.assign(n, std::string());
    shared.done.assign(n, 0);
    shared.solo.assign(n, 0);
    shared.finish_reported.assign(n, 0);
    shared.started.assign(n, 0);
    shared.latest_snapshot.assign(n, nullptr);
  }

  if (!healthy.empty()) {
    std::vector<std::thread> lanes;
    lanes.reserve(healthy.size() * kLanesPerShard);
    for (const std::size_t s : healthy) {
      // Wire-batch size. A lone shard gets the whole batch in one wire
      // batch (capped at its probed in-flight bound, which is per
      // connection, so both lanes may carry a capped piece at once):
      // splitting it would only add rounds, each waiting on its slowest
      // run. With peers, each chunk is the daemon's probed worker count (1
      // when unreported), so a chunk saturates the daemon's Executor pool,
      // the other lane's chunk waits in its queue, and the rest of the
      // batch stays stealable.
      std::size_t chunk_size = std::max<std::size_t>(1, probed[s].jobs);
      if (healthy.size() == 1) {
        const std::size_t cap = probed[s].max_inflight;
        chunk_size = cap > 0 ? std::min(n, cap) : n;
      }
      for (std::size_t lane = 0; lane < kLanesPerShard; ++lane) {
        lanes.emplace_back([this, s, chunk_size, n, &requests, &reports,
                            &shared, control] {
          run_shard(config_, config_.endpoints[s], stats_[s], s, chunk_size,
                    n, requests, reports, shared, control);
        });
      }
    }
    for (auto& lane : lanes) lane.join();
  }

  // Every lane has been joined: from here SharedState is single-threaded
  // again, but the lock discipline stays uniform (the locks below are
  // uncontended by construction).
  std::vector<std::size_t> undone;
  {
    util::MutexLock lock(shared.mutex);
    for (std::size_t i = 0; i < n; ++i) {
      if (!shared.done[i]) undone.push_back(i);
    }
  }
  if (undone.empty()) return reports;

  if (control != nullptr && control->stop_requested()) {
    for (const std::size_t i : undone) {
      reports[i] = cancelled_report(requests[i]);
    }
    return reports;
  }

  // Not stopped: the batch genuinely failed. Name the endpoints and the
  // first few per-request errors so a fleet operator can tell which daemon
  // to look at.
  std::string what = "sharded run: " + std::to_string(undone.size()) + " of " +
                     std::to_string(n) + " request(s) unserved";
  for (const ShardStats& shard : stats_) {
    if (!shard.error.empty()) what += "; " + shard.error;
  }
  std::size_t listed = 0;
  {
    util::MutexLock lock(shared.mutex);
    for (const std::size_t i : undone) {
      if (shared.request_error[i].empty()) continue;
      if (listed == 3) {
        what += "; ...";
        break;
      }
      what += "; '" + requests[i].label_or_default() + "' after " +
              std::to_string(shared.attempts[i]) +
              " attempt(s): " + shared.request_error[i];
      ++listed;
    }
  }
  throw std::runtime_error(what);
}

}  // namespace moela::api
