// Client side of the moela_serve protocol: connects to a daemon, submits
// RunRequest batches, and yields RunReports that are bit-identical to the
// ones a local Executor would have produced (the wire carries hexfloat
// doubles end to end). Used by api::ShardedExecutor (which runs every
// `moela_cli --connect` batch), by moela_cli's --list/--metrics/--shutdown
// verbs, and by the serve tests; the protocol itself is documented in
// serve/protocol.hpp.
//
// One Client is one connection and is NOT thread-safe: calls are issued
// and awaited sequentially (the daemon multiplexes many clients, not one
// client many threads). Cancellation rides the same thread: run() with an
// api::RunControl polls between response lines and interleaves the cancel
// verb itself, so no second thread ever touches the socket.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/optimizer.hpp"
#include "api/priority.hpp"
#include "api/request.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace moela::serve {

/// A server-reported failure ({"ok":false} or a per-report error entry).
class RemoteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The daemon shed the batch at admission (its queue is full). Carries the
/// structured facts from the "overloaded" error so a caller can back off
/// instead of string-matching: the queue depth the daemon saw and its
/// retry-after hint.
class OverloadedError : public RemoteError {
 public:
  OverloadedError(const std::string& what, std::size_t queue_depth,
                  std::uint64_t retry_after_ms)
      : RemoteError(what),
        queue_depth_(queue_depth),
        retry_after_ms_(retry_after_ms) {}

  std::size_t queue_depth() const { return queue_depth_; }
  std::uint64_t retry_after_ms() const { return retry_after_ms_; }

 private:
  std::size_t queue_depth_ = 0;
  std::uint64_t retry_after_ms_ = 0;
};

/// Decodes a line of the conversation of `run` batch `id` straight from
/// its text, with no util::Json tree, when it is the batch's reply with a
/// "reports" array and "ok":true: returns the reports, or throws what the
/// reply stands for (RemoteError for a failed run, named from `requests`;
/// util::JsonError for a wrong-shaped entry). Returns nullopt for every
/// other line (events, other ids' lines, malformed text, rejections),
/// which Client::run reads as a tree. `where` prefixes error messages.
std::optional<std::vector<api::RunReport>> read_run_reply(
    std::string_view line, std::uint64_t id,
    const std::vector<api::RunRequest>& requests, const std::string& where);

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to host:port. Throws std::runtime_error when the daemon is
  /// unreachable.
  void connect(const std::string& host, int port);
  bool connected() const { return fd_ >= 0; }
  void disconnect();

  /// Called for each streamed event line ("progress" / "finished") while
  /// a run() is in flight.
  using EventHandler = std::function<void(const util::Json& event)>;

  /// Submits the batch and blocks until the final response. Reports come
  /// back index-aligned with `requests`. `stream_progress` additionally
  /// requests snapshot-cadence progress events. `control` (optional) makes
  /// the wait cancellable: once control->stop_requested() flips, a
  /// "cancel" verb is sent for this batch — the daemon stops its in-flight
  /// runs at their next budget check and the final response returns the
  /// unfinished entries as cancelled reports (identical in shape to an
  /// inline Executor stop). Progress events arriving after the cancel was
  /// sent are dropped (the run is winding down; a climbing counter would
  /// be a lie). `priority` is the batch's scheduling class (the wire's
  /// optional "priority" field; daemons predating it ignore the field).
  /// Throws OverloadedError when the daemon shed the batch at admission,
  /// RemoteError when it rejected the batch otherwise or any run failed,
  /// and std::runtime_error when the connection drops.
  std::vector<api::RunReport> run(
      const std::vector<api::RunRequest>& requests,
      bool stream_progress = false, EventHandler on_event = nullptr,
      api::RunControl* control = nullptr,
      api::Priority priority = api::Priority::kNormal);

  /// Sends a standalone cancel for an earlier run id on this connection
  /// (see last_run_id()). Returns true when an in-flight batch was found
  /// and stopped, false for the benign no-op (already finished, unknown
  /// id). Idempotent.
  bool cancel(std::uint64_t run_id);

  /// The request id assigned to the most recent run() call — the cancel
  /// verb's target handle. 0 before the first run().
  std::uint64_t last_run_id() const { return last_run_id_; }

  /// "host:port" of the daemon this client (last) connected to; empty
  /// before the first connect(). Error messages carry it so multi-shard
  /// failures stay attributable.
  const std::string& endpoint() const { return endpoint_; }

  /// True when the daemon answers a ping.
  bool ping();
  /// Load/health snapshot (health verb): jobs, inflight, max_inflight,
  /// runs_handled, accepting, cache counters. Throws RemoteError when the
  /// daemon predates the verb.
  util::Json health();
  /// {"name", "knobs": [...]} per registered algorithm.
  util::Json list_algorithms();
  std::vector<std::string> list_problems();
  /// The daemon's cache/runs counters (cache_stats verb).
  util::Json cache_stats();
  /// Full telemetry snapshot (metrics verb): the daemon's MetricsRegistry
  /// as JSON plus uptime_seconds/version. Throws RemoteError when the
  /// daemon predates the verb.
  util::Json metrics();
  /// Asks the daemon to drain and exit.
  void shutdown_server();

 private:
  /// Sends one verb object (assigning the id unless the caller already
  /// did) and reads lines until the matching final response; event lines
  /// go to `on_event`. With `control`, reads poll at a short cadence so a
  /// requested stop can interleave a cancel send mid-conversation.
  /// `take_final`, when set, is offered every line before it is parsed;
  /// returning true ends the conversation with that line taken, and
  /// transact then returns null.
  util::Json transact(
      util::Json message, const EventHandler& on_event,
      api::RunControl* control = nullptr,
      const std::function<bool(std::string_view line)>& take_final = {});
  /// "moela_serve client[host:port]" — the prefix of every error message.
  std::string where() const;

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  std::uint64_t last_run_id_ = 0;
  std::string endpoint_;
  std::unique_ptr<LineReader> reader_;
};

}  // namespace moela::serve
