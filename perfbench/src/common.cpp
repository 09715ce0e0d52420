#include "common.hpp"

#include <chrono>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include <sys/resource.h>

#include "api/result_cache.hpp"
#include "api/serde.hpp"
#include "util/json.hpp"
#include "util/numeric.hpp"

namespace perfbench {
namespace {

using moela::util::Json;

/// The named field of a pins object; throws when it is missing.
const Json& field(const Json& object, const std::string& key) {
  const Json* value = object.find(key);
  if (value == nullptr) throw std::runtime_error("pins: missing '" + key + "'");
  return *value;
}

std::vector<double> doubles(const Json& array) {
  std::vector<double> out;
  for (const Json& v : array.as_array()) out.push_back(v.as_double());
  return out;
}

}  // namespace

Pins Pins::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pins file " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const Json json = Json::parse(text);
  Pins pins;
  for (const auto& [key, b] : field(json, "bounds").as_object()) {
    pins.bounds[key] = {doubles(field(b, "ideal")), doubles(field(b, "nadir"))};
  }
  for (const auto& [key, v] : field(json, "targets").as_object()) {
    pins.targets[key] = v.as_double();
  }
  for (const auto& [key, v] : field(json, "edp_reference").as_object()) {
    pins.edp_reference[key] = v.as_double();
  }
  for (const auto& [workload, seeds] : field(json, "digests").as_object()) {
    for (const auto& [seed, d] : seeds.as_object()) {
      std::uint64_t parsed = 0;
      if (!moela::util::parse_u64(seed, parsed)) {
        throw std::runtime_error("pins: bad seed '" + seed + "'");
      }
      pins.digests[workload][parsed] = d.as_string();
    }
  }
  return pins;
}

const moela::exp::ObjectiveBounds& Pins::bounds_for(
    const std::string& key) const {
  const auto it = bounds.find(key);
  if (it == bounds.end()) {
    throw std::runtime_error("pins: no normalization bounds for " + key);
  }
  return it->second;
}

double Pins::target_for(const std::string& workload,
                        const std::string& problem) const {
  const auto it = targets.find(workload + "/" + problem);
  if (it == targets.end()) {
    throw std::runtime_error("pins: no PHV target for " + workload + "/" +
                             problem);
  }
  return it->second;
}

std::optional<std::string> Pins::digest_for(const std::string& workload,
                                            std::uint64_t seed) const {
  const auto w = digests.find(workload);
  if (w == digests.end()) return std::nullopt;
  const auto s = w->second.find(seed);
  if (s == w->second.end()) return std::nullopt;
  return s->second;
}

std::string problem_key(const api::RunRequest& request) {
  if (request.problem == "noc") {
    return "noc:" + request.problem_options.app;
  }
  return request.problem;
}

std::string content_bytes(const api::RunReport& report) {
  api::RunReport copy = report;
  copy.seconds = 0.0;
  for (auto& snapshot : copy.snapshots) snapshot.seconds = 0.0;
  copy.provenance.cache_hit = false;
  copy.provenance.cache_key.clear();
  copy.provenance.trace_id.clear();
  copy.provenance.priority = "normal";
  return api::report_to_json(copy).dump();
}

std::string digest(const std::string& bytes) {
  return api::ResultCache::hash_key(bytes);
}

bool report_is_sound(const api::RunReport& report,
                     const api::RunRequest& request,
                     const api::AnyProblem& problem) {
  if (report.provenance.cancelled || report.evaluations == 0 ||
      report.evaluations > request.options.max_evaluations ||
      report.final_front.empty() || report.final_designs.empty() ||
      report.final_designs.size() != report.final_objectives.size()) {
    return false;
  }
  for (std::size_t i = 0; i < report.final_designs.size(); ++i) {
    if (problem.evaluate(report.final_designs[i]) !=
        report.final_objectives[i]) {
      return false;
    }
  }
  return true;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

api::ExecutorConfig single_job(api::ResultCache* cache) {
  api::ExecutorConfig config;
  config.jobs = 1;
  config.cache = cache;
  return config;
}

std::string percent(double part, double whole) {
  return moela::util::fixed_double(100.0 * part / whole, 1) + "%";
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench
