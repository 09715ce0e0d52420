// Dependency-free telemetry registry: labeled counters and fixed-bucket
// histograms with deterministic bounds, plus trace-id minting
// for cross-process run correlation (docs/observability.md).
//
// Design constraints, in order:
//   1. The increment path is hot (per-verb, per-run, per-cache-lookup), so
//      Counter/Histogram mutate through std::atomic with relaxed
//      ordering — no locks, no allocation. The registry mutex guards only
//      metric CREATION and SNAPSHOTS; callers resolve handles once (at
//      construction/startup) and hold the returned reference.
//   2. Snapshots must be deterministic functions of the observations:
//      histogram bucket bounds are fixed at registration (log-scale bounds
//      come from exponential_bounds(), computed by repeated multiply so
//      every build agrees bit-for-bit), and the histogram sum is kept as an
//      integer nanocount so concurrent observes commute — no floating-point
//      accumulation order to vary under TSan.
//   3. Telemetry NEVER feeds back into results: nothing here is consulted
//      by cache_key(), serde, or report content. Metrics observe the run;
//      they must not perturb it (enforced by tests/test_serve.cpp's
//      bit-identity round-trips).
//
// Exposition: snapshot_json() for the `metrics` wire verb, and
// prometheus_text() (# HELP / # TYPE / cumulative le-buckets) for scraping
// and the daemon's --metrics-dump flag.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/thread_annotations.hpp"

namespace moela::util {

/// Label set for one time series, e.g. {{"verb", "run"}}. Stored sorted by
/// key so equal sets always name the same series.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bucket histogram with Prometheus le-semantics: an observation
/// lands in the first bucket whose upper bound is >= the value; values
/// above every bound land in the implicit +Inf bucket. The sum is held as
/// integer nanounits (round(v * 1e9)) so concurrent observes are exact and
/// order-independent.
class Histogram {
 public:
  /// `bounds` are the finite upper bounds, strictly increasing; the +Inf
  /// bucket is implicit. An empty bounds list leaves only +Inf.
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1,
  /// last entry is the +Inf bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const;
  /// Sum of observations in nanounits (exact integer).
  std::int64_t sum_nano() const {
    return sum_nano_.load(std::memory_order_relaxed);
  }
  /// Sum of observations (derived from the exact nanocount).
  double sum() const { return static_cast<double>(sum_nano()) * 1e-9; }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::int64_t> sum_nano_{0};
};

/// Log-scale bucket bounds: count values starting at `lo`, each `factor`
/// times the last. Computed by repeated multiply — no pow(), so every
/// platform and build produces bit-identical bounds and therefore stable
/// snapshot text.
std::vector<double> exponential_bounds(double lo, double factor,
                                       std::size_t count);

/// Mints a 16-hex-digit trace id. Entropy comes from the monotonic and
/// wall clocks, the pid, and a process-local counter, mixed through
/// SplitMix64 — the project's sanctioned generator (moela_lint bans
/// std::random_device). Uniqueness per mint is guaranteed by the counter
/// even when two mints share a clock tick.
std::string mint_trace_id();

/// The registry: named families of counters/histograms, each family
/// fanning out into label-keyed series. Creation and snapshotting lock;
/// the returned references stay valid (and lock-free) for the registry's
/// lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Gets or creates. `help` is recorded on first creation of the family;
  /// registering the same (name, labels) twice returns the same object.
  Counter& counter(const std::string& name, const std::string& help,
                   MetricLabels labels = {});
  /// `bounds` applies on family creation; later calls for the same family
  /// reuse the family's bounds (per-family bounds keep exposition sane).
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, MetricLabels labels = {});

  /// JSON snapshot, deterministic given the observations: families and
  /// series in sorted order, counts as exact integers.
  Json snapshot_json() const;

  /// Prometheus text exposition: # HELP / # TYPE headers, cumulative
  /// le-buckets, _sum/_count. Deterministic given the observations.
  std::string prometheus_text() const;

 private:
  enum class Kind { kCounter, kHistogram };

  struct Series {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::vector<double> bounds;  // histograms only
    /// Keyed by the canonical label rendering so lookup and sorted
    /// exposition share one order.
    std::map<std::string, Series> series;
  };

  Series& resolve(const std::string& name, const std::string& help,
                  Kind kind, MetricLabels labels,
                  const std::vector<double>* bounds);

  mutable util::Mutex mutex_;
  /// Guarded for CREATION and iteration only; the Counter/Histogram
  /// objects a Series owns are lock-free by design (design constraint 1
  /// above: relaxed atomics on the increment path), stable-addressed via
  /// unique_ptr, and deliberately mutate without this capability.
  std::map<std::string, Family> families_ MOELA_GUARDED_BY(mutex_);
};

}  // namespace moela::util
