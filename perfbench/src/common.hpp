// Shared plumbing of the benchmark driver: arguments, the pinned reference
// data (perfbench/pins.json), report content bytes and digests, and the
// result every workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/optimizer.hpp"
#include "api/request.hpp"
#include "exp/analysis.hpp"

namespace perfbench {

namespace api = moela::api;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Print only the workload's output digest for this seed (used to pin
  /// perfbench/pins.json), without timing anything.
  bool digest_only = false;
  /// Print per-run objective ranges, PHV and EDP (used to pin the
  /// normalization in perfbench/pins.json), without timing anything.
  bool calibrate = false;
  std::string pins_path;
  /// Scratch directory for caches, daemon logs and the span file.
  std::string work_dir;
  std::string serve_path;
};

/// Reference data pinned in perfbench/pins.json.
struct Pins {
  /// Normalization per problem key: "zdt1", "dtlz2", "noc:BFS", ...
  std::map<std::string, moela::exp::ObjectiveBounds> bounds;
  /// Normalized-PHV target per "workload/problem key" ("noc-moela/noc:BFS",
  /// "fleet-sweep/zdt1", ...).
  std::map<std::string, double> targets;
  /// Reference EDP (J*s) per NoC application tag, pinned only for the
  /// applications whose picked EDP depends on the design.
  std::map<std::string, double> edp_reference;
  /// Output digest per workload per seed.
  std::map<std::string, std::map<std::uint64_t, std::string>> digests;

  /// Throws std::runtime_error when the file is missing or malformed.
  static Pins load(const std::string& path);

  const moela::exp::ObjectiveBounds& bounds_for(const std::string& key) const;
  double target_for(const std::string& workload,
                    const std::string& problem) const;
  /// The pinned digest, or nullopt when this seed was never pinned.
  std::optional<std::string> digest_for(const std::string& workload,
                                        std::uint64_t seed) const;
};

/// Problem key used by the pins: the problem name, plus ":APP" for NoC.
std::string problem_key(const api::RunRequest& request);

/// A report's content: its JSON wire form with every wall-clock field
/// zeroed and the transport-only provenance (cache hit, cache key, trace id,
/// priority) cleared. Two runs of the same request must give equal bytes
/// wherever they ran.
std::string content_bytes(const api::RunReport& report);

/// FNV-1a 64-bit hex digest.
std::string digest(const std::string& bytes);

/// Output checks every workload applies to a fresh (not cache-served) run:
/// budget respected, front and population present, and every final design
/// re-evaluated by `problem` reproduces its reported objectives bit for bit.
bool report_is_sound(const api::RunReport& report,
                     const api::RunRequest& request,
                     const api::AnyProblem& problem);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// End-to-end figures printed for people but kept out of the result
  /// line, because their spread over seeds exceeds any bound they could
  /// carry (see perfbench/README.md).
  std::vector<Metric> ungated;
  /// Human-readable lines printed before the result (sample counts, layer
  /// accounting, failure reasons).
  std::vector<std::string> notes;

  void note(std::string line) { notes.push_back(std::move(line)); }
  void fail(const std::string& why) {
    correct = false;
    note("FAILED: " + why);
  }
};

/// The closed-loop client's Executor: one worker, an optional cache.
api::ExecutorConfig single_job(api::ResultCache* cache = nullptr);

/// `part` as a percentage of `whole`, one decimal ("12.3%").
std::string percent(double part, double whole);

/// Seconds since `start` on the steady clock.
double seconds_since(std::chrono::steady_clock::time_point start);

}  // namespace perfbench
