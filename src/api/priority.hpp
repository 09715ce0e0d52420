// Scheduling policy vocabulary shared by the Executor's queue and every
// serving layer: the three priority classes a batch can ride under, their
// wire names, and the per-class dispatch weights of the weighted-fair
// queue (api/fair_queue.hpp).
//
// A class is a *scheduling* attribute, never an execution attribute: it
// decides when a run starts (queue order, admission) and what the health
// verb reports, but a run produces the same bit-identical report whatever
// class carried it — determinism is why priority lives beside the wire
// protocol instead of inside RunOptions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace moela::api {

/// Priority classes, most to least urgent. The enum values are the array
/// index used throughout (queues, weights, counters).
enum class Priority : std::uint8_t {
  /// A user is waiting on the answer: favored heavily at dispatch.
  kInteractive = 0,
  /// The default for an unlabeled "run" verb.
  kNormal = 1,
  /// Bulk sweeps and benches: gets the leftover share, never starved
  /// (every class's weight is >= 1).
  kBatch = 2,
};

inline constexpr std::size_t kNumClasses = 3;

/// The wire spelling of each class ("interactive" / "normal" / "batch").
inline std::string priority_name(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBatch:
      return "batch";
    case Priority::kNormal:
      break;
  }
  return "normal";
}

/// Parses a wire spelling. Returns false (leaving `out` untouched) for
/// anything else, so callers can reject typos instead of misclassifying.
inline bool parse_priority(const std::string& text, Priority& out) {
  if (text == "interactive") {
    out = Priority::kInteractive;
    return true;
  }
  if (text == "normal") {
    out = Priority::kNormal;
    return true;
  }
  if (text == "batch") {
    out = Priority::kBatch;
    return true;
  }
  return false;
}

/// Per-class dispatch weights: while several classes have runnable work,
/// class c receives weight(c) dispatches per weighted round-robin cycle.
/// Every weight is clamped to >= 1 at use, so no class can be starved by
/// configuration — batch work always drains, just last.
struct Weights {
  std::uint32_t interactive = 8;
  std::uint32_t normal = 4;
  std::uint32_t batch = 1;

  std::uint32_t of(Priority priority) const {
    switch (priority) {
      case Priority::kInteractive:
        return interactive > 0 ? interactive : 1;
      case Priority::kBatch:
        return batch > 0 ? batch : 1;
      case Priority::kNormal:
        break;
    }
    return normal > 0 ? normal : 1;
  }
};

/// One class's scheduler counters, as reported per-class by the health
/// verb. `queued`/`running` are instantaneous; `completed`/`shed` are
/// lifetime totals. All counts are in runs (a shed batch of 8 adds 8).
struct ClassCounters {
  std::uint64_t queued = 0;
  std::uint64_t running = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  /// Lifetime total of completed runs whose report came back cancelled;
  /// the health verb reports only its sum across classes.
  std::uint64_t cancelled = 0;
};

}  // namespace moela::api
