// noc-moela and noc-ea: the paper's design-space exploration, run
// closed-loop in-process. One client thread submits one request at a time
// to api::Executor (one job, no cache) and waits for its report.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>

#include "api/executor.hpp"
#include "api/problems.hpp"
#include "api/result_cache.hpp"
#include "core/moela.hpp"
#include "ml/random_forest.hpp"
#include "noc/problem.hpp"
#include "quality.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/numeric.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Steady = std::chrono::steady_clock;
using moela::util::dec;
using moela::util::fixed_double;

/// Set-up and warm-replay samples taken after each cold run. A replay
/// varies more from one sample to the next than a set-up does, so it is
/// sampled more often.
constexpr int kSetupSamplesPerRun = 3;
constexpr std::size_t kReplaySamplesPerRun = 24;
/// A fixed S_train size at which the forest is timed besides the size the
/// traced run reached: the paper's runs train on windows of this size and
/// more, where fit costs far more than in this benchmark's shorter runs.
constexpr std::size_t kLargeWindow = 1000;

/// The problem instance a request runs on.
std::string instance_key(const api::RunRequest& r) {
  return problem_key(r) + "#" + dec(r.problem_options.seed);
}

std::map<std::string, api::AnyProblem> build_problems(
    const std::vector<api::RunRequest>& requests) {
  std::map<std::string, api::AnyProblem> out;
  for (const auto& r : requests) {
    const std::string key = instance_key(r);
    if (out.count(key) == 0) {
      out.emplace(key, api::make_problem(r.problem, r.problem_options));
    }
  }
  return out;
}

/// Milliseconds per RandomForest::fit and microseconds per predict with
/// MOELA's default ForestConfig on a synthetic window of `samples` rows of
/// `width` features (the shape of MOELA's S_train).
std::pair<double, double> forest_cost(std::size_t width, std::size_t samples,
                                      std::uint64_t seed) {
  moela::util::Rng rng(seed ^ 0x666f72657374ULL);
  moela::ml::Dataset data(width, samples);
  for (std::size_t i = 0; i < samples; ++i) {
    std::vector<double> row(width);
    double target = 0.0;
    for (std::size_t f = 0; f < width; ++f) {
      row[f] = rng.uniform();
      if (f < 16) target += row[f];
    }
    data.add(std::move(row), target + 0.1 * rng.normal());
  }
  constexpr std::size_t kQueries = 500;
  std::vector<double> fit_ms, predict_us;
  for (int rep = 0; rep < 3; ++rep) {
    moela::ml::RandomForest forest(moela::core::MoelaConfig{}.forest);
    auto t0 = Steady::now();
    forest.fit(data, rng);
    fit_ms.push_back(seconds_since(t0) * 1e3);
    double sum = 0.0;
    t0 = Steady::now();
    for (std::size_t q = 0; q < kQueries; ++q) {
      sum += forest.predict(data.features(q % samples));
    }
    predict_us.push_back(seconds_since(t0) * 1e6 /
                         static_cast<double>(kQueries));
    if (std::isnan(sum)) throw std::runtime_error("forest predicted NaN");
  }
  return {median(fit_ms), median(predict_us)};
}

/// The traced run: each request once untraced and once with TimedProblem
/// bound in, reports compared byte for byte, spans written at the end.
/// Fills `plain` with the untraced reports.
void traced_pass(const Args& args, const std::vector<api::RunRequest>& requests,
                 const std::map<std::string, api::AnyProblem>& problems,
                 Result& result, Tally& tally,
                 std::vector<api::RunReport>& plain) {
  SpanRecorder recorder;
  api::Executor executor(single_job());
  const std::int64_t root = recorder.open(args.workload);
  ProblemTally total;
  double untraced_run_s = 0.0, traced_run_s = 0.0, traced_wall_s = 0.0;
  double executor_overhead_s = 0.0;
  std::size_t window = 0, width = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const api::RunRequest& request = requests[i];
    const auto& problem = problems.at(instance_key(request));
    const auto t0 = Steady::now();
    plain.push_back(executor.run_all({request}).front());
    executor_overhead_s += seconds_since(t0) - plain.back().seconds;
    untraced_run_s += plain.back().seconds;
    const bool sound = report_is_sound(plain.back(), request, problem);
    tally.record(sound);
    if (!sound) result.fail("output check failed: " + request.label_or_default());

    auto sink = std::make_shared<TraceSink>();
    sink->recorder = &recorder;
    sink->population = request.options.population_size;
    sink->run = static_cast<std::int64_t>(i);
    sink->parent = recorder.open("api.executor.run", root, sink->run);
    api::RunRequest traced = request;
    traced.bound_problem = api::AnyProblem(TimedProblem<moela::noc::NocProblem>(
        *problem.target<moela::noc::NocProblem>(), sink));
    const auto t1 = Steady::now();
    const api::RunReport report = executor.run_all({traced}).front();
    traced_wall_s += seconds_since(t1);
    recorder.close(sink->parent);
    sink->end_features_streak();
    traced_run_s += report.seconds;

    const bool same = content_bytes(report) == content_bytes(plain.back());
    tally.record(same);
    if (!same) {
      result.fail("traced report differs from untraced: " +
                  request.label_or_default());
    }
    const ProblemTally& t = sink->tally;
    total.evaluate_calls += t.evaluate_calls;
    total.evaluate_ns += t.evaluate_ns;
    total.variation_calls += t.variation_calls;
    total.variation_ns += t.variation_ns;
    total.features_calls += t.features_calls;
    total.features_ns += t.features_ns;
    if (request.algorithm == "moela") {
      // S_train is a sliding window of at most train_capacity samples.
      window = std::max(window,
                        std::min(t.training_samples,
                                 moela::core::MoelaConfig{}.train_capacity));
      width = problem.num_features() + 2 * problem.num_objectives();
    }
  }
  recorder.close(root);

  // Layer accounting from the spans: an executor span's self time is what
  // its problem-call children do not cover. Of that, the part outside
  // Optimizer::run (whose duration the report carries as `seconds`) is
  // Executor overhead; the rest is the optimizer core (forest, decomposition,
  // archive).
  const auto self = recorder.self_ns();
  double executor_self_s = 0.0;
  for (std::size_t s = 0; s < recorder.spans().size(); ++s) {
    if (recorder.spans()[s].name == "api.executor.run") {
      executor_self_s += static_cast<double>(self[s]) * 1e-9;
    }
  }
  const double core_self_s =
      executor_self_s - (traced_wall_s - traced_run_s);
  const std::string span_file =
      (fs::path(args.work_dir) / ("spans-" + args.workload + ".jsonl"))
          .string();
  if (!recorder.write_jsonl(span_file)) {
    result.note("could not write spans to " + span_file);
  }

  const double evaluate_s = static_cast<double>(total.evaluate_ns) * 1e-9;
  const double variation_s = static_cast<double>(total.variation_ns) * 1e-9;
  const double features_s = static_cast<double>(total.features_ns) * 1e-9;
  const auto [fit_ms, predict_us] =
      window > 0 ? forest_cost(width, window, args.seed)
                 : std::pair<double, double>{0.0, 0.0};
  const auto [fit_large_ms, predict_large_us] =
      window > 0 ? forest_cost(width, kLargeWindow, args.seed)
                 : std::pair<double, double>{0.0, 0.0};
  const SerdeCost serde = serde_cost(requests, plain);
  const double n = static_cast<double>(requests.size());
  auto& L = result.per_layer;
  L.push_back({"noc.evaluate.calls", static_cast<double>(total.evaluate_calls),
               "count"});
  L.push_back({"noc.evaluate.busy_s", evaluate_s, "s"});
  L.push_back({"noc.evaluate.us",
               evaluate_s * 1e6 /
                   static_cast<double>(std::max<std::size_t>(
                       total.evaluate_calls, 1)),
               "us"});
  L.push_back({"noc.variation.calls",
               static_cast<double>(total.variation_calls), "count"});
  L.push_back({"noc.variation.busy_s", variation_s, "s"});
  L.push_back({"noc.features.calls", static_cast<double>(total.features_calls),
               "count"});
  L.push_back({"noc.features.busy_s", features_s, "s"});
  L.push_back({"core.self_s", core_self_s, "s"});
  L.push_back({"core.self_frac", core_self_s / traced_run_s, "ratio"});
  L.push_back({"ml.window.samples", static_cast<double>(window), "count"});
  L.push_back({"ml.fit.ms", fit_ms, "ms"});
  L.push_back({"ml.predict.us", predict_us, "us"});
  L.push_back({"ml.fit_w1000.ms", fit_large_ms, "ms"});
  L.push_back({"ml.predict_w1000.us", predict_large_us, "us"});
  L.push_back({"api.executor.overhead_ms", executor_overhead_s / n * 1e3,
               "ms"});
  L.push_back({"api.serde.encode_us", serde.encode_us, "us"});
  L.push_back({"api.serde.decode_us", serde.decode_us, "us"});
  L.push_back({"serve.round_trip_ms", 0.0, "ms"});
  L.push_back({"serve.sched.queue_wait_ms", 0.0, "ms"});
  L.push_back({"api.sharded.chunks", 0.0, "count"});
  L.push_back({"api.sharded.requeued", 0.0, "count"});
  L.push_back({"api.sharded.overhead_s", 0.0, "s"});
  L.push_back({"trace.overhead_frac", traced_run_s / untraced_run_s - 1.0,
               "ratio"});

  result.note("traced " + dec(requests.size()) + " runs; spans in " +
              span_file);
  result.note("layer split of Optimizer::run time (" +
              fixed_double(traced_run_s, 3) + " s): noc.evaluate " +
              percent(evaluate_s, traced_run_s) + ", noc.variation " +
              percent(variation_s, traced_run_s) + ", noc.features " +
              percent(features_s, traced_run_s) + ", core.self " +
              percent(core_self_s, traced_run_s) +
              "; Executor overhead per run " +
              fixed_double(executor_overhead_s / n * 1e3, 3) + " ms");
}

}  // namespace

Result run_inprocess(const Args& args, const Pins& pins) {
  Result result;
  Tally tally;
  const auto requests = make_requests(args.workload, args.seed);
  const std::size_t n = requests.size();
  const auto problems = build_problems(requests);

  std::vector<api::RunReport> first(n);
  std::vector<std::string> first_content(n);
  const fs::path cache_dir = fs::path(args.work_dir) / "cache-inprocess";
  fs::remove_all(cache_dir);

  if (args.trace) {
    first.clear();
    traced_pass(args, requests, problems, result, tally, first);
    for (std::size_t i = 0; i < n; ++i) first_content[i] = content_bytes(first[i]);
    check_digest(args, pins, first_content, result, tally);
    // The cache layer's counters: one warm replay of the whole list.
    {
      api::ResultCache fill(cache_dir.string());
      for (std::size_t i = 0; i < n; ++i) {
        fill.store(requests[i].cache_key(), first[i]);
      }
    }
    api::ResultCache cache(cache_dir.string());
    {
      api::Executor warm(single_job(&cache));
      const auto reports = warm.run_all(requests);
      for (std::size_t i = 0; i < n; ++i) {
        const bool ok = reports[i].provenance.cache_hit &&
                        content_bytes(reports[i]) == first_content[i];
        tally.record(ok);
        if (!ok) result.fail("cache replay differs: " + requests[i].label_or_default());
      }
    }
    fs::remove_all(cache_dir);
    const auto stats = cache.stats();
    const double hits = static_cast<double>(stats.memory_hits + stats.disk_hits);
    const double misses = static_cast<double>(stats.misses);
    result.per_layer.push_back({"api.cache.hits", hits, "count"});
    result.per_layer.push_back({"api.cache.misses", misses, "count"});
    result.per_layer.push_back(
        {"api.cache.hit_ratio", hits / std::max(hits + misses, 1.0), "ratio"});
    result.attempted = tally.attempted;
    result.failed = tally.failed;
    return result;
  }

  // Cold pass: whole cycles over the request list while another cycle still
  // fits in the measuring time (always at least one). After each cold run,
  // the set-up (problem and platform construction) of that request is
  // sampled a few times, and so is the warm replay (a request resubmitted
  // to an Executor whose fresh ResultCache finds the report on its disk
  // tier), taking the requests cached so far in turn. Those short
  // measurements thus spread over the whole window instead of landing in
  // one burst of machine load; a replay costs in proportion to the
  // report's size, so its samples are pooled as seconds per byte.
  api::Executor executor(single_job());
  api::ResultCache fill(cache_dir.string());
  std::map<std::string, std::vector<double>> setup_samples;
  std::vector<double> replay_s_per_byte;
  std::size_t replay_cursor = 0;
  std::vector<double> latency_ms, run_s;
  double busy_s = 0.0;
  std::size_t evaluations = 0;
  Quality quality;
  const auto start = Steady::now();
  for (std::size_t cycle = 0;; ++cycle) {
    const auto cycle_start = Steady::now();
    for (std::size_t i = 0; i < n; ++i) {
      const api::RunRequest& request = requests[i];
      const auto t0 = Steady::now();
      api::RunReport report;
      try {
        report = executor.run_all({request}).front();
      } catch (const std::exception& e) {
        tally.record(false);
        result.fail(request.label_or_default() + ": " + e.what());
        continue;
      }
      const double latency = seconds_since(t0);
      std::string content = content_bytes(report);
      bool ok = true;
      if (cycle == 0) {
        ok = report_is_sound(report, request, problems.at(instance_key(request)));
        first_content[i] = std::move(content);
        first[i] = report;
        fill.store(request.cache_key(), report);
      } else {
        ok = content == first_content[i];
      }
      tally.record(ok);
      if (!ok) result.fail("output check failed: " + request.label_or_default());
      latency_ms.push_back(latency * 1e3);
      run_s.push_back(report.seconds);
      busy_s += latency;
      evaluations += report.evaluations;
      quality.add_timing(pins, args.workload, request, report);

      for (int k = 0; k < kSetupSamplesPerRun; ++k) {
        const auto t1 = Steady::now();
        const api::AnyProblem problem =
            api::make_problem(request.problem, request.problem_options);
        setup_samples[instance_key(request)].push_back(seconds_since(t1));
      }
      const std::size_t cached = cycle == 0 ? i + 1 : n;
      for (std::size_t k = 0; k < kReplaySamplesPerRun; ++k) {
        const std::size_t j = replay_cursor++ % cached;
        api::ResultCache cache(cache_dir.string());
        api::Executor warm(single_job(&cache));
        const auto t1 = Steady::now();
        const api::RunReport replay = warm.run_all({requests[j]}).front();
        replay_s_per_byte.push_back(
            seconds_since(t1) / static_cast<double>(first_content[j].size()));
        const bool same = replay.provenance.cache_hit &&
                          content_bytes(replay) == first_content[j];
        tally.record(same);
        if (!same) result.fail("cache replay differs: " + requests[j].label_or_default());
      }
    }
    const double cycle_s = seconds_since(cycle_start);
    if (seconds_since(start) + cycle_s > args.seconds) break;
  }
  fs::remove_all(cache_dir);
  for (std::size_t i = 0; i < n; ++i) {
    quality.add_outputs(pins, requests[i], first[i],
                        problems.at(instance_key(requests[i])));
  }
  check_digest(args, pins, first_content, result, tally);
  result.attempted = tally.attempted;
  result.failed = tally.failed;

  // Set-up of the workload: every instance built once, summed over the
  // per-instance medians. Warm replay of the workload: every request served
  // once, at the median seconds per byte of all replays.
  double setup_s = 0.0;
  for (const auto& [key, samples] : setup_samples) setup_s += median(samples);
  std::size_t workload_bytes = 0;
  for (const auto& content : first_content) workload_bytes += content.size();
  const double replay_s =
      median(replay_s_per_byte) * static_cast<double>(workload_bytes);

  const Summary latency = summarize(latency_ms);
  auto& E = result.end_to_end;
  E.push_back({"evals_per_s", static_cast<double>(evaluations) / busy_s,
               "1/s"});
  E.push_back({"run_s.p50", median(run_s), "s"});
  E.push_back({"runs_per_s", static_cast<double>(latency.n) / busy_s, "1/s"});
  E.push_back({"run_latency_ms.p50", latency.p50, "ms"});
  E.push_back({"run_latency_ms.p90", latency.p90, "ms"});
  bool censored = false;
  result.ungated.push_back(
      {"time_to_target_s", quality.time_to_target(censored), "s"});
  result.ungated.push_back(
      {"edp", geometric_mean(quality.edp_ratio), "ratio"});
  E.push_back({"phv", mean(quality.phv), "hv"});
  E.push_back({"cache_replay_s", replay_s, "s"});
  E.push_back({"setup_s", setup_s, "s"});
  E.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  result.note(sample_note(latency, quality, censored, n));
  result.note("set-up: " + dec(setup_samples.begin()->second.size()) +
              " samples per instance, summed over per-instance medians; "
              "replay: median seconds per byte of " +
              dec(replay_s_per_byte.size()) + " replays, times " +
              dec(workload_bytes) + " report bytes");
  return result;
}

std::string sample_note(const Summary& latency, const Quality& quality,
                        bool censored, std::size_t distinct) {
  const std::string supported =
      latency.supported > 0
          ? "p" + dec(static_cast<int>(latency.supported * 100 + 0.5))
          : std::string("none");
  return "samples: latency n=" + dec(latency.n) +
         " (highest percentile with >=10 beyond: " + supported +
         "); time to target from the mean curve of " +
         dec(quality.curves.size()) + " runs" +
         (censored ? " (target not reached: mean run time reported)" : "") +
         "; phv n=" + dec(quality.phv.size()) +
         (quality.edp_ratio.empty()
              ? std::string()
              : ", edp n=" + dec(quality.edp_ratio.size())) +
         " over " + dec(distinct) + " distinct requests";
}

}  // namespace perfbench
