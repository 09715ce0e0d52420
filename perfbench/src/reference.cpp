#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "api/executor.hpp"
#include "api/problems.hpp"
#include "api/serde.hpp"
#include "quality.hpp"
#include "stats.hpp"
#include "util/json.hpp"
#include "util/numeric.hpp"
#include "workloads.hpp"

namespace perfbench {

Reference run_reference(const std::vector<api::RunRequest>& requests) {
  Reference ref;
  api::Executor executor(single_job());
  for (const auto& request : requests) {
    const auto start = std::chrono::steady_clock::now();
    api::RunReport report = executor.run_all({request}).front();
    ref.executor_seconds.push_back(seconds_since(start));
    ref.content.push_back(content_bytes(report));
    ref.reports.push_back(std::move(report));
  }
  return ref;
}

SerdeCost serde_cost(const std::vector<api::RunRequest>& requests,
                     const std::vector<api::RunReport>& reports) {
  using moela::util::Json;
  constexpr int kRepeats = 5;
  double encode_total = 0.0, decode_total = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::vector<double> encode, decode;
    for (int k = 0; k < kRepeats; ++k) {
      auto t0 = std::chrono::steady_clock::now();
      const std::string request_text = api::request_to_json(requests[i]).dump();
      const std::string report_text = api::report_to_json(reports[i]).dump();
      encode.push_back(seconds_since(t0));
      t0 = std::chrono::steady_clock::now();
      const api::RunRequest request =
          api::request_from_json(Json::parse(request_text));
      const api::RunReport report =
          api::report_from_json(Json::parse(report_text));
      decode.push_back(seconds_since(t0));
      if (request.algorithm != requests[i].algorithm ||
          content_bytes(report) != content_bytes(reports[i])) {
        throw std::runtime_error("serde round trip changed " +
                                 requests[i].label_or_default());
      }
    }
    encode_total += median(encode);
    decode_total += median(decode);
  }
  const double n = static_cast<double>(std::max<std::size_t>(requests.size(), 1));
  return {encode_total / n * 1e6, decode_total / n * 1e6};
}

std::string workload_digest(const std::vector<std::string>& content) {
  std::string joined;
  for (const auto& bytes : content) joined += digest(bytes);
  return digest(joined);
}

void check_digest(const Args& args, const Pins& pins,
                  const std::vector<std::string>& content, Result& result,
                  Tally& tally) {
  const std::string got = workload_digest(content);
  const auto pinned = pins.digest_for(args.workload, args.seed);
  if (!pinned) {
    result.note("seed not pinned; output digest " + got);
  } else if (*pinned == got) {
    result.note("output digest matches the pinned " + got);
  } else {
    result.fail("output digest " + got + " differs from the pinned " +
                *pinned + " for seed " + moela::util::dec(args.seed));
    tally.failed = tally.attempted;
  }
}

void print_calibration(const Args& args, const Pins& pins,
                       const std::vector<api::RunRequest>& requests,
                       const Reference& reference) {
  using moela::util::Json;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& request = requests[i];
    const auto& report = reference.reports[i];
    Json line = Json::object();
    line.set("workload", args.workload);
    line.set("seed", args.seed);
    line.set("key", problem_key(request));
    line.set("algorithm", request.algorithm);
    line.set("seconds", report.seconds);
    moo::ObjectiveVector lo = report.snapshots.front().front.front();
    moo::ObjectiveVector hi = lo;
    for (const auto& snapshot : report.snapshots) {
      for (const auto& point : snapshot.front) {
        for (std::size_t m = 0; m < point.size(); ++m) {
          lo[m] = std::min(lo[m], point[m]);
          hi[m] = std::max(hi[m], point[m]);
        }
      }
    }
    Json ideal = Json::array(), nadir = Json::array();
    for (std::size_t m = 0; m < lo.size(); ++m) {
      ideal.append(lo[m]);
      nadir.append(hi[m]);
    }
    line.set("ideal", std::move(ideal));
    line.set("nadir", std::move(nadir));
    const auto problem =
        api::make_problem(request.problem, request.problem_options);
    if (request.problem == "noc") {
      line.set("edp", picked_edp(report, problem));
    }
    if (pins.bounds.count(problem_key(request)) != 0) {
      // The anytime PHV trace as (share of the budget, PHV) pairs, for
      // choosing the time-to-target PHV.
      const auto& bounds = pins.bounds_for(problem_key(request));
      Json trace = Json::array();
      for (const auto& snapshot : report.snapshots) {
        Json point = Json::array();
        point.append(static_cast<double>(snapshot.evaluations) /
                     static_cast<double>(request.options.max_evaluations));
        point.append(normalized_phv(snapshot.front, bounds));
        trace.append(std::move(point));
      }
      line.set("phv_trace", std::move(trace));
    }
    std::printf("%s\n", line.dump().c_str());
  }
}

}  // namespace perfbench
