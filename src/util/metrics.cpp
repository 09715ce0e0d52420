#include "util/metrics.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace moela::util {

namespace {

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Canonical `key="value",...` rendering of a sorted label set; doubles as
/// the series map key and the exposition body.
std::string render_labels(const MetricLabels& labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) out += ',';
    out += key;
    out += "=\"";
    out += escape_label_value(value);
    out += '"';
  }
  return out;
}

/// `name{k="v"}` — or bare `name` with no labels. `extra` appends one more
/// label (the histogram `le`).
std::string series_name(const std::string& name, const std::string& labels,
                        const std::string& extra = {}) {
  std::string body = labels;
  if (!extra.empty()) {
    if (!body.empty()) body += ',';
    body += extra;
  }
  if (body.empty()) return name;
  return name + '{' + body + '}';
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw std::invalid_argument(
          "Histogram bounds must be strictly increasing");
    }
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double value) {
  // le-semantics: first bucket whose upper bound is >= value; past the
  // last finite bound, the +Inf bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  sum_nano_.fetch_add(static_cast<std::int64_t>(std::llround(value * 1e9)),
                      std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<double> exponential_bounds(double lo, double factor,
                                       std::size_t count) {
  if (!(lo > 0.0) || !(factor > 1.0)) {
    throw std::invalid_argument(
        "exponential_bounds needs lo > 0 and factor > 1");
  }
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = lo;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;  // repeated multiply, never pow(): bit-stable bounds
  }
  return bounds;
}

std::string mint_trace_id() {
  static std::atomic<std::uint64_t> sequence{0};
  const auto mono = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  const auto wall = static_cast<std::uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count());
  const auto stamp =
      (static_cast<std::uint64_t>(::getpid()) << 32) |
      (sequence.fetch_add(1, std::memory_order_relaxed) & 0xffffffffULL);
  // Three independently mixed sources XOR together; the per-process
  // counter term alone makes ids distinct within a process.
  std::uint64_t id = SplitMix64(mono).next();
  id ^= SplitMix64(wall).next();
  id ^= SplitMix64(stamp).next();
  static constexpr char kDigits[] = "0123456789abcdef";
  char text[16];
  for (int i = 15; i >= 0; --i) {
    text[i] = kDigits[id & 0xf];
    id >>= 4;
  }
  return std::string(text, sizeof(text));
}

MetricsRegistry::Series& MetricsRegistry::resolve(
    const std::string& name, const std::string& help, Kind kind,
    MetricLabels labels, const std::vector<double>* bounds) {
  std::sort(labels.begin(), labels.end());
  const std::string key = render_labels(labels);
  MutexLock lock(mutex_);
  auto [family_it, family_created] = families_.try_emplace(name);
  Family& family = family_it->second;
  if (family_created) {
    family.kind = kind;
    family.help = help;
    if (bounds != nullptr) family.bounds = *bounds;
  } else if (family.kind != kind) {
    throw std::logic_error("metric family '" + name +
                           "' registered with two different types");
  }
  auto [series_it, series_created] = family.series.try_emplace(key);
  Series& series = series_it->second;
  if (series_created) {
    series.labels = std::move(labels);
    switch (kind) {
      case Kind::kCounter:
        series.counter = std::make_unique<Counter>();
        break;
      case Kind::kHistogram:
        series.histogram = std::make_unique<Histogram>(family.bounds);
        break;
    }
  }
  return series;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  MetricLabels labels) {
  return *resolve(name, help, Kind::kCounter, std::move(labels), nullptr)
              .counter;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> bounds,
                                      MetricLabels labels) {
  return *resolve(name, help, Kind::kHistogram, std::move(labels), &bounds)
              .histogram;
}

Json MetricsRegistry::snapshot_json() const {
  MutexLock lock(mutex_);
  Json out = Json::object();
  for (const auto& [name, family] : families_) {
    Json entry = Json::object();
    switch (family.kind) {
      case Kind::kCounter: entry.set("type", "counter"); break;
      case Kind::kHistogram: entry.set("type", "histogram"); break;
    }
    entry.set("help", family.help);
    Json series_array = Json::array();
    for (const auto& [key, series] : family.series) {
      Json row = Json::object();
      Json labels = Json::object();
      for (const auto& [label_key, label_value] : series.labels) {
        labels.set(label_key, label_value);
      }
      row.set("labels", std::move(labels));
      switch (family.kind) {
        case Kind::kCounter:
          row.set("value", Json(series.counter->value()));
          break;
        case Kind::kHistogram: {
          const Histogram& h = *series.histogram;
          Json bounds = Json::array();
          for (double b : h.bounds()) bounds.append(Json(b));
          Json buckets = Json::array();
          for (std::uint64_t c : h.bucket_counts()) buckets.append(Json(c));
          row.set("bounds", std::move(bounds));
          row.set("buckets", std::move(buckets));
          row.set("count", Json(h.count()));
          row.set("sum", Json(h.sum()));
          break;
        }
      }
      series_array.append(std::move(row));
    }
    entry.set("series", std::move(series_array));
    out.set(name, std::move(entry));
  }
  return out;
}

std::string MetricsRegistry::prometheus_text() const {
  MutexLock lock(mutex_);
  std::string out;
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + name + ' ' + family.help + '\n';
    }
    out += "# TYPE " + name + ' ';
    switch (family.kind) {
      case Kind::kCounter: out += "counter\n"; break;
      case Kind::kHistogram: out += "histogram\n"; break;
    }
    for (const auto& [key, series] : family.series) {
      switch (family.kind) {
        case Kind::kCounter:
          out += series_name(name, key) + ' ' +
                 dec(series.counter->value()) + '\n';
          break;
        case Kind::kHistogram: {
          const Histogram& h = *series.histogram;
          const auto counts = h.bucket_counts();
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            cumulative += counts[i];
            out += series_name(name + "_bucket", key,
                               "le=\"" + shortest_double(h.bounds()[i]) +
                                   "\"") +
                   ' ' + dec(cumulative) + '\n';
          }
          cumulative += counts[h.bounds().size()];
          out += series_name(name + "_bucket", key, "le=\"+Inf\"") + ' ' +
                 dec(cumulative) + '\n';
          out += series_name(name + "_sum", key) + ' ' +
                 shortest_double(h.sum()) + '\n';
          out += series_name(name + "_count", key) + ' ' + dec(h.count()) +
                 '\n';
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace moela::util
