// Tracing for the benchmark's per-layer run: spans recorded from outside the
// program, around calls into each layer's public functions, kept in memory
// and written out once at the end.
//
// The problem layer is timed by TimedProblem, a moo::MooProblem decorator
// bound into a run through RunRequest::bound_problem. It forwards every call
// unchanged (same designs, same RNG draws), so a traced run's report must be
// byte-identical to the untraced one; the benchmark checks that.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "moo/objective.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace moo = moela::moo;
using Clock = std::chrono::steady_clock;

/// Nanoseconds since the recorder's epoch.
inline std::int64_t ns_since(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

/// One traced interval. `parent` is the index of the span that caused it
/// (-1 for a root); spans of one run share `run`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t run = -1;
};

/// In-memory span store. Single-threaded: the benchmark records spans only
/// from its own thread (in-process runs execute on one Executor worker while
/// the benchmark thread blocks in run_all, so the two never record at once).
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span now; returns its index.
  std::int64_t open(std::string name, std::int64_t parent = -1,
                    std::int64_t run = -1) {
    const std::int64_t now = ns_since(epoch_);
    spans_.push_back({std::move(name), now, now, parent, run});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = ns_since(epoch_);
  }
  /// Records an interval measured elsewhere (the problem decorator).
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t parent, std::int64_t run) {
    spans_.push_back({std::move(name), start_ns, end_ns, parent, run});
  }

  Clock::time_point epoch() const { return epoch_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of its interval
  /// covered by its children (overlapping children count once).
  std::vector<std::int64_t> self_ns() const;

  /// Writes the spans as one JSON object per line. Returns false when the
  /// file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Per-layer counters of the problem calls a TimedProblem observed.
struct ProblemTally {
  std::size_t evaluate_calls = 0;
  std::int64_t evaluate_ns = 0;
  /// random_design, random_neighbor, crossover and mutate.
  std::size_t variation_calls = 0;
  std::int64_t variation_ns = 0;
  std::size_t features_calls = 0;
  std::int64_t features_ns = 0;
  /// features() calls that built MOELA training samples: all of them except
  /// the population-wide bursts MLguide issues before each prediction round
  /// (a run of >= population consecutive features() calls holds exactly one
  /// such burst).
  std::size_t training_samples = 0;
};

/// Where a TimedProblem reports: the tally plus, optionally, the recorder
/// and the span its calls hang under.
struct TraceSink {
  ProblemTally tally;
  SpanRecorder* recorder = nullptr;
  std::int64_t parent = -1;
  std::int64_t run = -1;
  /// Population size of the run, for the features() burst accounting.
  std::size_t population = 0;
  /// Length of the current run of consecutive features() calls.
  std::size_t features_streak = 0;

  void end_features_streak() {
    if (features_streak == 0) return;
    tally.training_samples += features_streak >= population && population > 0
                                  ? features_streak - population
                                  : features_streak;
    features_streak = 0;
  }
};

/// Transparent timing decorator over a concrete MooProblem. Copies share the
/// sink, so the copy the optimizer holds reports into the benchmark's sink.
template <typename P>
class TimedProblem {
 public:
  using Design = typename P::Design;

  TimedProblem(P problem, std::shared_ptr<TraceSink> sink)
      : problem_(std::move(problem)), sink_(std::move(sink)) {}

  std::size_t num_objectives() const { return problem_.num_objectives(); }
  std::size_t num_features() const { return problem_.num_features(); }

  moo::ObjectiveVector evaluate(const Design& d) const {
    return timed("noc.evaluate", &ProblemTally::evaluate_calls,
                 &ProblemTally::evaluate_ns,
                 [&] { return problem_.evaluate(d); });
  }
  Design random_design(moela::util::Rng& rng) const {
    return variation([&] { return problem_.random_design(rng); });
  }
  Design random_neighbor(const Design& d, moela::util::Rng& rng) const {
    return variation([&] { return problem_.random_neighbor(d, rng); });
  }
  Design crossover(const Design& a, const Design& b,
                   moela::util::Rng& rng) const {
    return variation([&] { return problem_.crossover(a, b, rng); });
  }
  Design mutate(const Design& d, moela::util::Rng& rng) const {
    return variation([&] { return problem_.mutate(d, rng); });
  }
  std::vector<double> features(const Design& d) const {
    ++sink_->features_streak;
    return timed_keep_streak("noc.features", &ProblemTally::features_calls,
                             &ProblemTally::features_ns,
                             [&] { return problem_.features(d); });
  }

 private:
  template <typename F>
  auto variation(F&& call) const {
    return timed("noc.variation", &ProblemTally::variation_calls,
                 &ProblemTally::variation_ns, std::forward<F>(call));
  }

  template <typename F>
  auto timed(const char* name, std::size_t ProblemTally::*calls,
             std::int64_t ProblemTally::*busy, F&& call) const {
    sink_->end_features_streak();
    return timed_keep_streak(name, calls, busy, std::forward<F>(call));
  }

  template <typename F>
  auto timed_keep_streak(const char* name, std::size_t ProblemTally::*calls,
                         std::int64_t ProblemTally::*busy, F&& call) const {
    TraceSink& sink = *sink_;
    const Clock::time_point epoch =
        sink.recorder ? sink.recorder->epoch() : Clock::time_point{};
    const std::int64_t start = ns_since(epoch);
    auto result = call();
    const std::int64_t end = ns_since(epoch);
    ++(sink.tally.*calls);
    sink.tally.*busy += end - start;
    if (sink.recorder != nullptr) {
      sink.recorder->add(name, start, end, sink.parent, sink.run);
    }
    return result;
  }

  P problem_;
  std::shared_ptr<TraceSink> sink_;
};

}  // namespace perfbench
