// fleet-sweep: a batch of short runs sharded by api::ShardedExecutor (the
// `moela_cli --connect A --connect B` path) over two loopback moela_serve
// daemons with one worker each, submitted by one client that waits for the
// whole batch (closed loop). Each repetition starts the daemons on
// ephemeral ports with a fresh shared cache directory, runs the batch cold,
// then resubmits it so the result cache serves it warm.
//
// The batch runs without checkpointing. With it, every run streams its
// snapshots while it runs, and whether a chunk's reply then waits for the
// peer's delayed ACK depends on timing: the cold pass swung by a factor of
// two from one run of the benchmark to the next. Without it, every chunk is
// one request line and one reply line, as on the warm pass, and pays the
// same transport cost each time.
#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "api/problems.hpp"
#include "api/sharded_executor.hpp"
#include "quality.hpp"
#include "serve/client.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/numeric.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Steady = std::chrono::steady_clock;
using moela::util::Json;
using moela::util::dec;
using moela::util::fixed_double;

constexpr std::size_t kDaemons = 2;
/// Fleet starts measured on their own before each repetition, besides the
/// one the repetition makes, so the set-up median rests on more samples
/// spread over the whole measuring window.
constexpr int kExtraSetupsPerRep = 7;
/// How often a starting daemon's log is polled for its port: fine enough
/// that the poll adds little to a start of a few milliseconds.
constexpr auto kStartPoll = std::chrono::microseconds(200);
constexpr double kStartTimeoutS = 30.0;
constexpr double kStopTimeoutS = 15.0;

/// One moela_serve child process. The destructor always stops and reaps
/// it, so no daemon outlives the benchmark.
class Daemon {
 public:
  Daemon(const std::string& serve_path, const fs::path& cache_dir,
         const fs::path& log_path)
      : log_path_(log_path) {
    const std::string log = log_path.string();
    const std::string cache = cache_dir.string();
    std::vector<std::string> argv_s = {serve_path, "--host", "127.0.0.1",
                                       "--port", "0", "--jobs", "1",
                                       "--cache-dir", cache};
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, serve_path.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + serve_path);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits until the daemon has printed its bound port.
  void wait_listening() {
    const auto start = Steady::now();
    while (seconds_since(start) < kStartTimeoutS) {
      std::ifstream in(log_path_);
      std::string line;
      while (std::getline(in, line)) {
        const auto at = line.find("listening on ");
        if (at == std::string::npos) continue;
        const auto colon = line.find(':', at + 13);
        const auto end = line.find(' ', colon);
        std::uint64_t port = 0;
        if (colon != std::string::npos &&
            moela::util::parse_u64(line.substr(colon + 1, end - colon - 1),
                                   port)) {
          port_ = static_cast<int>(port);
          return;
        }
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("moela_serve exited during start-up");
      }
      std::this_thread::sleep_for(kStartPoll);
    }
    throw std::runtime_error("moela_serve did not start listening");
  }

  int port() const { return port_; }

  /// Peak resident set of the daemon so far, in MiB.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + dec(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kib = 0.0;
        in >> kib;
        return kib / 1024.0;
      }
    }
    return 0.0;
  }

  /// Asks the daemon to drain, then reaps it (SIGKILL after a timeout).
  void stop() {
    if (pid_ < 0) return;
    if (port_ > 0) {
      try {
        moela::serve::Client client;
        client.connect("127.0.0.1", port_);
        client.shutdown_server();
      } catch (const std::exception&) {
        // Unreachable daemon: the kill below still reaps it.
      }
    } else {
      ::kill(pid_, SIGTERM);
    }
    const auto start = Steady::now();
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(start) > kStopTimeoutS) {
        ::kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  fs::path log_path_;
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Two daemons sharing one fresh cache directory.
struct Fleet {
  std::vector<std::unique_ptr<Daemon>> daemons;
  fs::path dir;
  /// Seconds from spawning the daemons until every one answers `health`.
  /// The directories and log files are made before the clock starts, so
  /// the figure is the daemons' start, not the file system's.
  double start_s = 0.0;

  /// Starts the fleet and waits until every daemon answers `health`.
  Fleet(const Args& args, const fs::path& dir) : dir(dir) {
    fs::remove_all(dir);
    fs::create_directories(dir / "cache");
    std::vector<fs::path> logs;
    for (std::size_t d = 0; d < kDaemons; ++d) {
      logs.push_back(dir / ("daemon" + dec(d) + ".log"));
      std::ofstream{logs.back()};
    }
    const auto t0 = Steady::now();
    for (const fs::path& log : logs) {
      daemons.push_back(
          std::make_unique<Daemon>(args.serve_path, dir / "cache", log));
    }
    for (auto& daemon : daemons) {
      daemon->wait_listening();
      moela::serve::Client client;
      client.connect("127.0.0.1", daemon->port());
      client.health();
    }
    start_s = seconds_since(t0);
  }
  /// Stops the daemons, then removes their directory, so the next fleet's
  /// timed start does not pay for deleting this one's cached reports.
  ~Fleet() {
    daemons.clear();
    fs::remove_all(dir);
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  api::ShardedExecutorConfig config() const {
    api::ShardedExecutorConfig config;
    for (const auto& daemon : daemons) {
      config.endpoints.push_back({"127.0.0.1", daemon->port()});
    }
    return config;
  }

  /// Each daemon's registry, through the `metrics` verb.
  std::vector<Json> scrape() const {
    std::vector<Json> out;
    for (const auto& daemon : daemons) {
      moela::serve::Client client;
      client.connect("127.0.0.1", daemon->port());
      out.push_back(*client.metrics().find("metrics"));
    }
    return out;
  }

  double peak_rss_mb() const {
    double sum = 0.0;
    for (const auto& daemon : daemons) sum += daemon->peak_rss_mb();
    return sum;
  }
};

/// Sum of `field` over the series of metric family `name` whose labels
/// include label=value (every series when `label` is empty).
double series_total(const Json& registry, const std::string& name,
                    const std::string& field, const std::string& label = "",
                    const std::string& value = "") {
  const Json* family = registry.find(name);
  if (family == nullptr) return 0.0;
  double total = 0.0;
  for (const Json& series : family->find("series")->as_array()) {
    if (!label.empty()) {
      const Json* v = series.find("labels")->find(label);
      if (v == nullptr || v->as_string() != value) continue;
    }
    total += series.find(field)->as_double();
  }
  return total;
}

double total_over(const std::vector<Json>& registries, const std::string& name,
                  const std::string& field, const std::string& label = "",
                  const std::string& value = "") {
  double total = 0.0;
  for (const Json& r : registries) {
    total += series_total(r, name, field, label, value);
  }
  return total;
}

/// One cold + warm repetition against a fresh fleet.
struct Repetition {
  double setup_s = 0.0;
  double cold_s = 0.0;
  double warm_s = 0.0;
  double rss_mb = 0.0;
  std::vector<api::RunReport> cold;
  /// Seconds from batch submission to each run's `finished` event.
  std::vector<double> completed_s;
  /// Daemon registries after the cold and the warm pass (traced runs).
  std::vector<Json> after_cold, after_warm;
  /// Coordinator requeues (traced runs).
  double requeued = 0.0;
};

/// Opens a span on `recorder` when tracing (returns -1 otherwise).
std::int64_t open_span(SpanRecorder* recorder, const char* name,
                       std::int64_t parent) {
  return recorder != nullptr ? recorder->open(name, parent) : -1;
}
void close_span(SpanRecorder* recorder, std::int64_t span) {
  if (recorder != nullptr) recorder->close(span);
}

/// A cold + warm repetition. `recorder` (traced runs only) gets a span per
/// layer call under `parent`, and the daemons' and coordinator's counters
/// are scraped after each pass.
Repetition repetition(const Args& args, const std::vector<api::RunRequest>& requests,
                      const Reference& ref, const fs::path& dir,
                      SpanRecorder* recorder, std::int64_t parent,
                      Result& result, Tally& tally) {
  const bool traced = recorder != nullptr;
  Repetition rep;
  std::int64_t span = open_span(recorder, "fleet.start", parent);
  Fleet fleet(args, dir);
  rep.setup_s = fleet.start_s;
  close_span(recorder, span);

  moela::util::MetricsRegistry coordinator;
  api::ShardedExecutorConfig config = fleet.config();
  config.checkpoint = false;
  if (traced) config.metrics = &coordinator;

  const std::size_t n = requests.size();
  rep.completed_s.assign(n, 0.0);
  api::RunControl control;
  auto t0 = Steady::now();
  control.on_progress([&](const api::RunProgress& p) {
    if (p.finished && p.batch_index < n) {
      rep.completed_s[p.batch_index] = seconds_since(t0);
    }
  });
  {
    api::ShardedExecutor sharded(config);
    span = open_span(recorder, "api.sharded.cold", parent);
    t0 = Steady::now();
    rep.cold = sharded.run_all(requests, &control);
    rep.cold_s = seconds_since(t0);
    close_span(recorder, span);
  }
  if (traced) {
    span = open_span(recorder, "serve.metrics", parent);
    rep.after_cold = fleet.scrape();
    close_span(recorder, span);
  }
  {
    api::ShardedExecutor sharded(config);
    span = open_span(recorder, "api.sharded.warm", parent);
    const auto t1 = Steady::now();
    const auto warm = sharded.run_all(requests);
    rep.warm_s = seconds_since(t1);
    close_span(recorder, span);
    for (std::size_t i = 0; i < n; ++i) {
      const bool ok = warm[i].provenance.cache_hit &&
                      content_bytes(warm[i]) == ref.content[i];
      tally.record(ok);
      if (!ok) result.fail("warm report differs: " + requests[i].label_or_default());
    }
  }
  if (traced) {
    span = open_span(recorder, "serve.metrics", parent);
    rep.after_warm = fleet.scrape();
    close_span(recorder, span);
    rep.requeued = series_total(coordinator.snapshot_json(),
                                "moela_shard_requeued_total", "value");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const bool ok = !rep.cold[i].provenance.cache_hit &&
                    content_bytes(rep.cold[i]) == ref.content[i];
    tally.record(ok);
    if (!ok) result.fail("cold report differs: " + requests[i].label_or_default());
  }
  rep.rss_mb = fleet.peak_rss_mb();
  return rep;
}

/// serve::Client spans, one request per chunk, alternating over a fresh
/// fleet: mean milliseconds per chunk beyond the run's own seconds.
double round_trip_ms(const Args& args, const std::vector<api::RunRequest>& requests,
                     const Reference& ref, const fs::path& dir,
                     SpanRecorder& recorder, std::int64_t parent,
                     Result& result, Tally& tally) {
  Fleet fleet(args, dir);
  std::vector<std::unique_ptr<moela::serve::Client>> clients;
  for (const auto& daemon : fleet.daemons) {
    clients.push_back(std::make_unique<moela::serve::Client>());
    clients.back()->connect("127.0.0.1", daemon->port());
  }
  double beyond_s = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::int64_t span = recorder.open("serve.client.run", parent,
                                            static_cast<std::int64_t>(i));
    const auto t0 = Steady::now();
    const api::RunReport report =
        clients[i % clients.size()]->run({requests[i]}).front();
    beyond_s += seconds_since(t0) - report.seconds;
    recorder.close(span);
    const bool ok = content_bytes(report) == ref.content[i];
    tally.record(ok);
    if (!ok) result.fail("client report differs: " + requests[i].label_or_default());
  }
  return beyond_s / static_cast<double>(requests.size()) * 1e3;
}

void traced_layers(const Args& args, const std::vector<api::RunRequest>& requests,
                   const Reference& ref, const Repetition& plain,
                   Result& result, Tally& tally) {
  SpanRecorder recorder;
  const std::int64_t root = recorder.open(args.workload);
  const fs::path work(args.work_dir);

  const std::int64_t rep_span = recorder.open("fleet.repetition", root);
  const Repetition rep = repetition(args, requests, ref, work / "fleet-traced",
                                    &recorder, rep_span, result, tally);
  recorder.close(rep_span);
  const std::int64_t rt_span = recorder.open("serve.round_trips", root);
  const double rt_ms = round_trip_ms(args, requests, ref, work / "fleet-rt",
                                     recorder, rt_span, result, tally);
  recorder.close(rt_span);
  recorder.close(root);
  const std::string span_file =
      (work / ("spans-" + args.workload + ".jsonl")).string();
  if (!recorder.write_jsonl(span_file)) {
    result.note("could not write spans to " + span_file);
  }

  // Cold-pass accounting from the daemons' own counters.
  const double chunks = total_over(rep.after_cold, "moela_requests_total",
                                   "value", "verb", "run");
  double busiest_run_s = 0.0;
  for (const Json& r : rep.after_cold) {
    busiest_run_s =
        std::max(busiest_run_s, series_total(r, "moela_run_seconds", "sum"));
  }
  const double wait_s =
      total_over(rep.after_cold, "moela_sched_queue_wait_seconds", "sum");
  const double waits =
      total_over(rep.after_cold, "moela_sched_queue_wait_seconds", "count");
  const double hits =
      total_over(rep.after_warm, "moela_cache_lookups_total", "value",
                 "result", "hit_memory") +
      total_over(rep.after_warm, "moela_cache_lookups_total", "value",
                 "result", "hit_disk");
  const double misses = total_over(rep.after_warm, "moela_cache_lookups_total",
                                   "value", "result", "miss");
  const double overhead_s = rep.cold_s - busiest_run_s;
  double executor_overhead_s = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    executor_overhead_s += ref.executor_seconds[i] - ref.reports[i].seconds;
  }
  const SerdeCost serde = serde_cost(requests, ref.reports);
  const double n = static_cast<double>(requests.size());

  auto& L = result.per_layer;
  for (const char* zero : {"noc.evaluate.calls", "noc.evaluate.busy_s",
                           "noc.evaluate.us", "noc.variation.calls",
                           "noc.variation.busy_s", "noc.features.calls",
                           "noc.features.busy_s", "core.self_s",
                           "core.self_frac", "ml.window.samples", "ml.fit.ms",
                           "ml.predict.us", "ml.fit_w1000.ms",
                           "ml.predict_w1000.us"}) {
    const std::string name = zero;
    const std::string unit =
        name.ends_with("calls") || name.ends_with("samples") ? "count"
        : name.ends_with("_s")                               ? "s"
        : name.ends_with("frac")                             ? "ratio"
        : name.ends_with(".ms")                              ? "ms"
                                                             : "us";
    L.push_back({name, 0.0, unit});
  }
  L.push_back({"api.executor.overhead_ms", executor_overhead_s / n * 1e3,
               "ms"});
  L.push_back({"api.serde.encode_us", serde.encode_us, "us"});
  L.push_back({"api.serde.decode_us", serde.decode_us, "us"});
  L.push_back({"serve.round_trip_ms", rt_ms, "ms"});
  L.push_back({"serve.sched.queue_wait_ms",
               wait_s / std::max(waits, 1.0) * 1e3, "ms"});
  L.push_back({"api.cache.hits", hits, "count"});
  L.push_back({"api.cache.misses", misses, "count"});
  L.push_back({"api.cache.hit_ratio", hits / std::max(hits + misses, 1.0),
               "ratio"});
  L.push_back({"api.sharded.chunks", chunks, "count"});
  L.push_back({"api.sharded.requeued", rep.requeued, "count"});
  L.push_back({"api.sharded.overhead_s", overhead_s, "s"});
  L.push_back({"trace.overhead_frac", rep.cold_s / plain.cold_s - 1.0,
               "ratio"});

  // The daemons' run seconds, next to the same runs' in-process seconds.
  double compute_s = 0.0;
  for (const auto& report : ref.reports) compute_s += report.seconds;
  compute_s /= kDaemons;
  const double shard_transport_s = rt_ms * chunks / kDaemons / 1e3;
  result.note("traced cold pass " + fixed_double(rep.cold_s, 3) + " s, " +
              dec(static_cast<std::uint64_t>(chunks)) + " chunks over " +
              dec(kDaemons) + " shards");
  result.note("  busiest shard's run seconds " + fixed_double(busiest_run_s, 3) +
              " s (" + percent(busiest_run_s, rep.cold_s) +
              "); the same runs in-process, split over the shards: " +
              fixed_double(compute_s, 3) + " s (" + percent(compute_s, rep.cold_s) +
              ")");
  result.note("  api.sharded.overhead_s " + fixed_double(overhead_s, 3) +
              " s (" + percent(overhead_s, rep.cold_s) + "); serve.round_trip_ms " +
              fixed_double(rt_ms, 3) + " x chunks / shards = " +
              fixed_double(shard_transport_s, 3) + " s (" +
              percent(shard_transport_s, rep.cold_s) + ")");
  result.note("spans in " + span_file);
}

}  // namespace

Result run_fleet(const Args& args, const Pins& pins) {
  Result result;
  Tally tally;
  const auto requests = make_requests(args.workload, args.seed);
  const std::size_t n = requests.size();

  // The in-process reference every fleet-served report must equal.
  const Reference ref = run_reference(requests);
  Quality quality;
  for (std::size_t i = 0; i < n; ++i) {
    const auto problem =
        api::make_problem(requests[i].problem, requests[i].problem_options);
    const bool sound = report_is_sound(ref.reports[i], requests[i], problem);
    tally.record(sound);
    if (!sound) result.fail("output check failed: " + requests[i].label_or_default());
    quality.add_outputs(pins, requests[i], ref.reports[i], problem);
  }
  // Timings are summarized per repetition and the median over repetitions
  // is reported, so a repetition caught in a burst of machine load moves
  // the result little.
  std::vector<double> setup_s, warm_s, evals_rate, runs_rate, latency_p50,
      latency_p90, run_p50, ttt_p50;
  double rss_mb = 0.0;
  std::size_t reps = 0;
  bool censored = false;
  Summary latency;
  Repetition first;
  const auto start = Steady::now();
  for (;;) {
    const auto rep_start = Steady::now();
    for (int i = 0; i < kExtraSetupsPerRep && !args.trace; ++i) {
      setup_s.push_back(Fleet(args, fs::path(args.work_dir) / "fleet").start_s);
    }
    Repetition rep = repetition(args, requests, ref,
                                fs::path(args.work_dir) / "fleet", nullptr, -1,
                                result, tally);
    ++reps;
    setup_s.push_back(rep.setup_s);
    warm_s.push_back(rep.warm_s);
    rss_mb = std::max(rss_mb, rep.rss_mb);
    std::vector<double> latency_ms, run_s;
    std::size_t evaluations = 0;
    Quality timing;
    for (std::size_t i = 0; i < n; ++i) {
      latency_ms.push_back(rep.completed_s[i] * 1e3);
      run_s.push_back(rep.cold[i].seconds);
      evaluations += rep.cold[i].evaluations;
      timing.add_timing(pins, args.workload, requests[i], rep.cold[i]);
    }
    latency = summarize(latency_ms);
    evals_rate.push_back(static_cast<double>(evaluations) / rep.cold_s);
    runs_rate.push_back(static_cast<double>(n) / rep.cold_s);
    latency_p50.push_back(latency.p50);
    latency_p90.push_back(latency.p90);
    run_p50.push_back(median(run_s));
    bool rep_censored = false;
    ttt_p50.push_back(timing.time_to_target(rep_censored));
    censored |= rep_censored;
    quality.curves = std::move(timing.curves);
    if (reps == 1) first = std::move(rep);
    if (args.trace) break;
    if (seconds_since(start) + seconds_since(rep_start) > args.seconds) break;
  }

  if (args.trace) traced_layers(args, requests, ref, first, result, tally);

  check_digest(args, pins, ref.content, result, tally);
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  if (args.trace) return result;

  auto& E = result.end_to_end;
  E.push_back({"evals_per_s", median(evals_rate), "1/s"});
  E.push_back({"run_s.p50", median(run_p50), "s"});
  E.push_back({"runs_per_s", median(runs_rate), "1/s"});
  E.push_back({"run_latency_ms.p50", median(latency_p50), "ms"});
  E.push_back({"run_latency_ms.p90", median(latency_p90), "ms"});
  result.ungated.push_back({"time_to_target_s", median(ttt_p50), "s"});
  E.push_back({"phv", mean(quality.phv), "hv"});
  E.push_back({"cache_replay_s", median(warm_s), "s"});
  E.push_back({"setup_s", median(setup_s), "s"});
  E.push_back({"peak_rss_mb", peak_rss_mb() + rss_mb, "MiB"});
  result.note("timings are medians over " + dec(reps) +
              " repetitions of the batch; per repetition:");
  result.note(sample_note(latency, quality, censored, n));
  result.note("set-up: " + dec(setup_s.size()) + " fleet starts; replay: " +
              dec(reps) + " warm passes");
  return result;
}

}  // namespace perfbench
