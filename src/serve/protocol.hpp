// moela_serve wire protocol: line-delimited JSON over TCP, one object per
// line in each direction. Shared by the server (serve/server.hpp) and the
// client (serve/client.hpp); the full reference (framing, error envelopes,
// worked examples) lives in docs/protocol.md.
//
// Client → server, each line an object with a client-chosen "id" (echoed
// back on every response line) and a "verb":
//
//   {"id":1,"verb":"ping"}
//   {"id":2,"verb":"list_algorithms"}
//   {"id":3,"verb":"list_problems"}
//   {"id":4,"verb":"cache_stats"}
//   {"id":5,"verb":"run","requests":[<RunRequest JSON, api/serde.hpp>,...],
//    "progress":true}
//                                — a request may set "checkpoint":true
//                                  (stream RunSnapshots; persist them when
//                                  the daemon has --snapshot-dir) and/or
//                                  carry a "resume" snapshot
//                                  (api/snapshot.hpp) to continue an
//                                  interrupted run bit-identically. A
//                                  malformed resume payload rejects the
//                                  batch whole.
//   {"id":6,"verb":"health"}     — load snapshot (jobs, inflight,
//                                  runs_handled, runs_cancelled,
//                                  runs_resumed, snapshots_written,
//                                  accepting, cache counters);
//                                  api::ShardedExecutor probes it for
//                                  placement
//   {"id":9,"verb":"metrics"}    — full telemetry snapshot (the
//                                  MetricsRegistry's JSON form: per-verb
//                                  request counters/latency, per-class
//                                  queue waits, cache and shard counters,
//                                  per-algorithm run times) plus
//                                  uptime_seconds and version. The same
//                                  numbers scrape as Prometheus text via
//                                  moela_serve --metrics-dump.
//   {"id":7,"verb":"cancel","target":5}
//                                — stop the in-flight "run" batch submitted
//                                  with id 5 ON THIS CONNECTION. Idempotent
//                                  and race-free: an unknown or already-
//                                  finished target answers
//                                  {"ok":true,"cancelled":false}. Cancelled
//                                  runs still deliver the batch's final
//                                  response, unfinished entries marked
//                                  provenance.cancelled — the same reports
//                                  an inline Executor stop produces.
//   {"id":8,"verb":"shutdown"}
//
// Server → client, every line tagged with the request's "id":
//
//   * streamed events while a "run" is in flight (an "event" field is
//     present; "progress" fires at the snapshot cadence only when the
//     request asked for it, "finished" fires once per completed run).
//     Every event carries "elapsed_ms" (server-side monotonic time since
//     the batch was admitted, so clients can spot a stalled run without
//     local bookkeeping) and, when the submitting client minted one, the
//     batch's "trace" id. A checkpointing run's cadence events also carry
//     a "snapshot" object (api/snapshot.hpp JSON form) — streamed even
//     when "progress" was not requested, since the resume payload is the
//     point of checkpointing:
//       {"id":5,"event":"progress","label":...,"algorithm":...,
//        "evaluations":...,"max_evaluations":...,"seconds":...,
//        "elapsed_ms":...,"trace":"9f2c..."}
//       {"id":5,"event":"finished","label":...,"completed":k,"total":n,
//        "evaluations":...,"seconds":...,"cache_hit":false,
//        "elapsed_ms":...,"trace":"9f2c..."}
//   * exactly one final response ("ok" present, no "event"):
//       {"id":5,"ok":true,"reports":[<RunReport JSON>|{"error":...},...]}
//       {"id":5,"ok":false,"error":"..."}
//
// Verbs on one connection may be answered out of submission order ("run"
// executes asynchronously; everything else answers inline) — the "id" is
// the correlation, not the line order. Requests are capped at
// kMaxLineBytes per line; a connection that exceeds it is dropped.
//
// Transport: every message is one line written by one send(), and both
// ends set TCP_NODELAY (set_no_delay). A run's "finished" event and the
// batch's reply go out back to back; with Nagle's algorithm on, the reply
// would wait up to 40 ms for the client's delayed ACK of the event. A
// third-party client that writes a line in pieces, or pipelines several
// requests, should set the option too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/json.hpp"

namespace moela::serve {

/// Default TCP port of moela_serve.
inline constexpr int kDefaultPort = 7313;

/// Protocol revision, reported by the "ping" verb. Bump on breaking wire
/// changes.
inline constexpr int kProtocolVersion = 1;

/// Build/schema version string, reported by the "health" and "metrics"
/// verbs so an operator can tell which build a long-lived daemon runs.
/// Tracks the PR sequence growing this repo, not kProtocolVersion (which
/// only moves on breaking wire changes).
inline constexpr const char* kServerVersion = "0.9.0";

/// Upper bound on one framed line (requests can carry whole batches, and
/// responses whole report sets, so this is generous).
inline constexpr std::size_t kMaxLineBytes = 64u << 20;

/// Buffered '\n'-framed reads over a socket/pipe fd.
class LineReader {
 public:
  explicit LineReader(int fd, std::size_t max_line_bytes = kMaxLineBytes)
      : fd_(fd), max_line_bytes_(max_line_bytes) {}

  /// Outcome of a bounded read: a whole line, nothing yet (only with a
  /// timeout), or a closed/oversized/errored conversation.
  enum class ReadResult { kLine, kTimeout, kClosed };

  /// Reads one line into `out` (terminator stripped). Returns false on
  /// EOF, a read error, or an over-long line — all of which end the
  /// conversation.
  bool read_line(std::string& out) {
    return read_line_for(out, -1) == ReadResult::kLine;
  }

  /// As read_line, but gives up after `timeout_ms` without data so the
  /// caller can interleave a send (e.g. a cancel verb) on the same
  /// conversation. `timeout_ms` < 0 blocks indefinitely. Buffered lines
  /// are returned without touching the socket.
  ReadResult read_line_for(std::string& out, int timeout_ms);

 private:
  int fd_;
  std::size_t max_line_bytes_;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

/// Writes `line` + '\n' fully (handles short writes; suppresses SIGPIPE).
/// Returns false once the peer is gone.
bool send_line(int fd, const std::string& line);

/// Sets TCP_NODELAY on a connected stream socket (see "Transport" above).
/// Best-effort: a socket that refuses the option still works, only slower.
void set_no_delay(int fd);

/// Serializes and sends one protocol object.
inline bool send_json(int fd, const util::Json& json) {
  return send_line(fd, json.dump());
}

/// Parses "host:port" / ":port" / "host" / "port". Empty host means
/// 127.0.0.1; a missing port means kDefaultPort. Returns false on a
/// malformed port.
bool parse_host_port(const std::string& spec, std::string& host, int& port);

/// Protocol message builders (id-tagged).
util::Json make_error(std::uint64_t id, const std::string& message);
util::Json make_ok(std::uint64_t id);

}  // namespace moela::serve
