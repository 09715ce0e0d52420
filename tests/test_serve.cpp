// Tests for the moela_serve daemon (src/serve/): an in-process Server on
// an ephemeral port driven by the real Client over a real socket. The
// heart is the acceptance property of the serving subsystem — a RunReport
// received through the daemon is bit-identical to the one a direct
// Executor call produces (modulo the cache provenance flags) — plus the
// auxiliary verbs, progress streaming, the transport's per-call latency
// (no delayed-ACK stall), the per-connection in-flight bound,
// the scheduler's wire surface (priority classes, admission shedding,
// per-class health counters, starvation freedom), error answers, the
// checkpoint/resume surface (snapshot events, snapshot_dir persistence,
// severed connections — via tests/fault_injection.hpp), and the shutdown
// drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/executor.hpp"
#include "api/problems.hpp"
#include "api/registry.hpp"
#include "api/request.hpp"
#include "api/result_cache.hpp"
#include "api/serde.hpp"
#include "api/snapshot.hpp"
#include "fault_injection.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/numeric.hpp"

namespace moela::serve {
namespace {

using util::Json;

api::RunRequest zdt1_request(const std::string& algorithm,
                             std::uint64_t seed = 5) {
  api::RunRequest request;
  request.problem = "zdt1";
  request.problem_options.num_variables = 10;
  request.algorithm = algorithm;
  request.options.max_evaluations = 600;
  request.options.snapshot_interval = 200;
  request.options.seed = seed;
  request.options.population_size = 12;
  request.options.n_local = 3;
  return request;
}

/// The "effectively endless" run the cancel, shed and hard-stop tests
/// occupy a worker with: zdt1_request's moela run with a 50M-evaluation
/// budget. The budget never ends it. MoelaConfig::max_generations (1000)
/// does, after 36,432 evaluations at seed 1 and 36,413 at seed 2, about
/// 10 s each in a Release build on an idle 4-vCPU machine (GCC 12), most
/// of it forest training. Each test stops it far inside that: at its
/// first progress event, with a cancel sent right behind it, by its own
/// max_seconds of 0.2, or by a stop or hard stop issued once the daemon
/// reports it running. A stop that missed would let the run finish
/// uncancelled, which the tests' `cancelled` checks catch; their
/// `evaluations < 50000000` checks hold either way.
api::RunRequest endless_request(std::uint64_t seed) {
  api::RunRequest request = zdt1_request("moela", seed);
  request.options.max_evaluations = 50000000;
  return request;
}

/// A Server on 127.0.0.1:<ephemeral>, plus a connected Client.
struct ServerFixture {
  explicit ServerFixture(ServeConfig config = {}) {
    config.host = "127.0.0.1";
    config.port = 0;
    if (config.use_cache && config.cache_dir.empty()) {
      config.use_cache = false;  // tests opt into the cache explicitly
    }
    server = std::make_unique<Server>(config);
    server->start();
    client.connect("127.0.0.1", server->port());
  }

  std::unique_ptr<Server> server;
  Client client;
};

void expect_equal_modulo_cache(const api::RunReport& direct,
                               const api::RunReport& served) {
  EXPECT_EQ(served.algorithm, direct.algorithm);
  EXPECT_EQ(served.final_front, direct.final_front);
  EXPECT_EQ(served.final_objectives, direct.final_objectives);
  EXPECT_EQ(served.evaluations, direct.evaluations);
  ASSERT_EQ(served.snapshots.size(), direct.snapshots.size());
  for (std::size_t i = 0; i < served.snapshots.size(); ++i) {
    EXPECT_EQ(served.snapshots[i].evaluations,
              direct.snapshots[i].evaluations);
    EXPECT_EQ(served.snapshots[i].front, direct.snapshots[i].front);
  }
  // Wall-clock `seconds` fields are measurements of two separate
  // executions and are NOT compared; the serde layer's bit-exactness for
  // them is covered in test_serde.cpp.
  EXPECT_EQ(served.provenance.problem, direct.provenance.problem);
  EXPECT_EQ(served.provenance.algorithm_key,
            direct.provenance.algorithm_key);
  EXPECT_EQ(served.provenance.seed, direct.provenance.seed);
  EXPECT_EQ(served.provenance.knobs, direct.provenance.knobs);
  EXPECT_EQ(served.provenance.cache_key, direct.provenance.cache_key);
  EXPECT_EQ(served.provenance.cancelled, direct.provenance.cancelled);
  // cache_hit is intentionally NOT compared: it is transport provenance,
  // not run content.
}

// --- the acceptance property ---------------------------------------------

TEST(Serve, ReportsBitIdenticalToDirectExecutor) {
  const std::vector<api::RunRequest> requests = {
      zdt1_request("moela", 5), zdt1_request("nsga2", 5),
      zdt1_request("moead", 7)};

  api::Executor direct({.jobs = 2});
  const std::vector<api::RunReport> direct_reports =
      direct.run_all(requests);

  ServeConfig config;
  config.jobs = 2;
  ServerFixture fixture(config);
  const std::vector<api::RunReport> served_reports =
      fixture.client.run(requests);

  ASSERT_EQ(served_reports.size(), direct_reports.size());
  for (std::size_t i = 0; i < served_reports.size(); ++i) {
    expect_equal_modulo_cache(direct_reports[i], served_reports[i]);
    EXPECT_FALSE(served_reports[i].provenance.cache_hit);
  }
  EXPECT_EQ(fixture.server->runs_handled(), requests.size());
}

TEST(Serve, DesignsSurviveTheWire) {
  api::RunRequest request = zdt1_request("nsga2");
  request.need_designs = true;
  api::Executor direct({.jobs = 1});
  const api::RunReport direct_report = direct.run_all({request}).front();

  ServerFixture fixture;
  const api::RunReport served = fixture.client.run({request}).front();
  EXPECT_EQ(served.designs_as<std::vector<double>>(),
            direct_report.designs_as<std::vector<double>>());
}

TEST(Serve, RepeatedRequestIsServedFromCache) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "moela-serve-cache";
  std::filesystem::remove_all(dir);
  ServeConfig config;
  config.use_cache = true;
  config.cache_dir = dir.string();
  ServerFixture fixture(config);

  const std::vector<api::RunRequest> requests = {zdt1_request("moela")};
  const api::RunReport cold = fixture.client.run(requests).front();
  EXPECT_FALSE(cold.provenance.cache_hit);
  const api::RunReport warm = fixture.client.run(requests).front();
  EXPECT_TRUE(warm.provenance.cache_hit);
  expect_equal_modulo_cache(cold, warm);

  // A second client shares the daemon's process-lifetime cache.
  Client other;
  other.connect("127.0.0.1", fixture.server->port());
  const api::RunReport shared = other.run(requests).front();
  EXPECT_TRUE(shared.provenance.cache_hit);
  expect_equal_modulo_cache(cold, shared);
}

/// Sends one raw `run` frame and returns the batch's final response line
/// exactly as it came off the socket (event lines are skipped).
std::string raw_run_response(fault::RawConnection& raw, std::uint64_t id,
                             const std::vector<api::RunRequest>& requests) {
  Json requests_json = Json::array();
  for (const auto& request : requests) {
    requests_json.append(api::request_to_json(request));
  }
  Json run = Json::object();
  run.set("id", id).set("verb", "run").set("requests",
                                           std::move(requests_json));
  EXPECT_TRUE(raw.send(run.dump()));
  std::string line;
  while (raw.read_line(line)) {
    const auto message = Json::try_parse(line, nullptr);
    if (message.has_value() && message->find("event") == nullptr) {
      return line;
    }
  }
  ADD_FAILURE() << "connection closed before run " << id << " answered";
  return {};
}

TEST(Serve, RunResponseLineIsTheDomEncoding) {
  // The run reply's bytes are pinned to the DOM encoding: the line equals
  // {"id":N,"ok":true,"reports":[...]} assembled from
  // report_to_json(decoded).dump() per entry, for real, binary and NoC
  // reports, cold and cache-served, and for an {"error":...} entry.
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "moela-serve-dom-line";
  std::filesystem::remove_all(dir);
  ServeConfig config;
  config.use_cache = true;
  config.cache_dir = dir.string();
  ServerFixture fixture(config);
  fault::RawConnection raw(fixture.server->port());

  api::RunRequest real = zdt1_request("nsga2");
  real.need_designs = true;
  api::RunRequest binary = zdt1_request("moead");
  binary.problem = "knapsack";
  binary.problem_options = {};
  binary.need_designs = true;
  api::RunRequest noc = zdt1_request("nsga2");
  noc.problem = "noc";
  noc.problem_options = {};
  noc.problem_options.small_platform = true;
  noc.options.max_evaluations = 240;
  noc.need_designs = true;
  api::RunRequest failing = zdt1_request("nsga2");
  failing.problem = "no-such-problem";

  const std::vector<std::vector<api::RunRequest>> batches = {
      {real}, {binary}, {noc}, {real, binary, noc}, {real, failing}};
  std::uint64_t id = 1;
  std::size_t hits = 0, errors = 0;
  for (int pass = 0; pass < 2; ++pass) {  // cold, then cache-served
    for (const auto& batch : batches) {
      const std::string line = raw_run_response(raw, id, batch);
      const Json response = Json::parse(line);
      ASSERT_TRUE(response.find("ok")->as_bool()) << line;
      const util::JsonArray& entries = response.find("reports")->as_array();
      ASSERT_EQ(entries.size(), batch.size());
      std::string expected =
          "{\"id\":" + util::dec(id) + ",\"ok\":true,\"reports\":[";
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i > 0) expected += ',';
        if (entries[i].find("error") != nullptr) {
          ++errors;
          expected += entries[i].dump();
          continue;
        }
        const api::RunReport report = api::report_from_json(entries[i]);
        if (report.provenance.cache_hit) ++hits;
        EXPECT_FALSE(report.final_designs.empty()) << batch[i].problem;
        expected += api::report_to_json(report).dump();
      }
      expected += "]}";
      EXPECT_EQ(line, expected);
      ++id;
    }
  }
  // The failing run once per pass; every good run after its first
  // execution replays from the cache (4 in the first pass, 7 in the second).
  EXPECT_EQ(errors, 2u);
  EXPECT_EQ(hits, 11u);
}

// --- auxiliary verbs ------------------------------------------------------

TEST(Serve, PingAndListVerbs) {
  ServerFixture fixture;
  EXPECT_TRUE(fixture.client.ping());
  EXPECT_EQ(fixture.client.list_problems(), api::problem_names());

  const Json algorithms = fixture.client.list_algorithms();
  const auto names = api::registry().names();
  ASSERT_EQ(algorithms.as_array().size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Json& entry = algorithms.as_array()[i];
    EXPECT_EQ(entry.find("name")->as_string(), names[i]);
    const auto declared = api::registry().knob_keys(names[i]);
    ASSERT_EQ(entry.find("knobs")->as_array().size(), declared.size());
  }
}

TEST(Serve, CacheStatsVerb) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "moela-serve-stats";
  std::filesystem::remove_all(dir);
  ServeConfig config;
  config.use_cache = true;
  config.cache_dir = dir.string();
  ServerFixture fixture(config);

  fixture.client.run({zdt1_request("moela")});
  fixture.client.run({zdt1_request("moela")});

  const Json response = fixture.client.cache_stats();
  const Json* cache = response.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->find("enabled")->as_bool());
  EXPECT_EQ(cache->find("stores")->as_u64(), 1u);
  EXPECT_EQ(cache->find("memory_hits")->as_u64(), 1u);
  EXPECT_EQ(response.find("runs_handled")->as_u64(), 2u);
}

TEST(Serve, HealthVerbReportsLoadAndCounters) {
  ServerFixture fixture;
  const Json cold = fixture.client.health();
  EXPECT_TRUE(cold.find("ok")->as_bool());
  EXPECT_TRUE(cold.find("accepting")->as_bool());
  EXPECT_EQ(cold.find("inflight")->as_u64(), 0u);
  EXPECT_EQ(cold.find("runs_handled")->as_u64(), 0u);
  EXPECT_GE(cold.find("jobs")->as_u64(), 1u);
  // Fleet operators tell builds and fresh (cold-cache) daemons apart by
  // these two fields.
  EXPECT_EQ(cold.find("version")->as_string(), kServerVersion);
  EXPECT_GE(cold.find("uptime_seconds")->as_double(), 0.0);
  ASSERT_NE(cold.find("cache"), nullptr);
  EXPECT_FALSE(cold.find("cache")->find("enabled")->as_bool());

  fixture.client.run({zdt1_request("moela")});
  const Json warm = fixture.client.health();
  EXPECT_EQ(warm.find("runs_handled")->as_u64(), 1u);
  EXPECT_EQ(warm.find("inflight")->as_u64(), 0u);
}

// --- progress streaming ---------------------------------------------------

TEST(Serve, StreamsProgressAndFinishedEvents) {
  ServerFixture fixture;
  std::vector<api::RunRequest> requests = {zdt1_request("moela"),
                                           zdt1_request("nsga2")};
  for (api::RunRequest& request : requests) {
    request.trace_id = "00deadbeef00cafe";
  }
  std::atomic<std::size_t> progress_events{0};
  std::atomic<std::size_t> finished_events{0};
  fixture.client.run(requests, /*stream_progress=*/true,
                     [&](const Json& event) {
                       const std::string kind =
                           event.find("event")->as_string();
                       // Every event carries the server-side monotonic
                       // elapsed_ms and the batch's trace id.
                       ASSERT_NE(event.find("elapsed_ms"), nullptr);
                       ASSERT_NE(event.find("trace"), nullptr);
                       EXPECT_EQ(event.find("trace")->as_string(),
                                 "00deadbeef00cafe");
                       if (kind == "finished") {
                         ++finished_events;
                         EXPECT_EQ(event.find("total")->as_u64(), 2u);
                       } else if (kind == "progress") {
                         ++progress_events;
                       }
                     });
  EXPECT_EQ(finished_events.load(), requests.size());
  // snapshot_interval 200 within 600 evals → at least one cadence event
  // per run.
  EXPECT_GT(progress_events.load(), 0u);
}

// --- transport ------------------------------------------------------------

TEST(Serve, SequentialRunsAreNotHeldByDelayedAck) {
  // A run's "finished" event and the batch's reply leave the daemon back to
  // back. With Nagle's algorithm on, the reply waits for the client's
  // delayed ACK of the event (40 ms minimum on Linux), so every one-run
  // call costs ~44 ms; with TCP_NODELAY a tiny run answers in under a
  // millisecond (~7 ms under TSan). The median ignores one slow call on a
  // busy machine.
  ServeConfig config;
  config.jobs = 1;
  config.use_cache = false;
  ServerFixture fixture(config);
  api::RunRequest request = zdt1_request("nsga2");
  request.options.max_evaluations = 60;

  std::vector<double> call_ms;
  for (int call = 0; call < 32; ++call) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_EQ(fixture.client.run({request}).size(), 1u);
    call_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  const auto median = call_ms.begin() + call_ms.size() / 2;
  std::nth_element(call_ms.begin(), median, call_ms.end());
  EXPECT_LT(*median, 20.0) << "median ms per one-run call";
}

// --- cancellation ---------------------------------------------------------

TEST(Serve, CancelMidRunReturnsCancelledReportsAndFreesSlots) {
  ServeConfig config;
  config.jobs = 2;
  ServerFixture fixture(config);

  // Two effectively-endless runs with a tight snapshot cadence: the first
  // streamed progress event flips the control, the client interleaves the
  // cancel verb, and the daemon must stop BOTH in-flight runs at their
  // next budget check — long before their natural end. (moela, not nsga2:
  // both end at a 1000-generation cap, but nsga2 gets there after 12,012
  // evaluations, soon enough to race the cancel on a slow machine.)
  std::vector<api::RunRequest> requests = {endless_request(1),
                                           endless_request(2)};
  for (auto& request : requests) {
    request.options.snapshot_interval = 200;
  }
  api::RunControl control;
  std::atomic<std::size_t> post_cancel_progress{0};
  const std::vector<api::RunReport> reports = fixture.client.run(
      requests, /*stream_progress=*/true,
      [&](const Json& event) {
        if (event.find("event")->as_string() != "progress") return;
        if (control.stop_requested()) {
          // The client promised to drop cadence events once the cancel
          // went out; anything that still reaches us is a bug.
          ++post_cancel_progress;
        }
        control.request_stop();
      },
      &control);

  ASSERT_EQ(reports.size(), 2u);
  for (const auto& report : reports) {
    EXPECT_TRUE(report.provenance.cancelled);
    EXPECT_LT(report.evaluations, 50000000u);
  }
  EXPECT_EQ(post_cancel_progress.load(), 0u);

  // Slots released, cancellations counted, and the daemon still serving.
  EXPECT_EQ(fixture.server->inflight_total(), 0u);
  EXPECT_EQ(fixture.server->runs_cancelled(), 2u);
  const Json health = fixture.client.health();
  EXPECT_TRUE(health.find("accepting")->as_bool());
  EXPECT_EQ(health.find("inflight")->as_u64(), 0u);
  EXPECT_EQ(health.find("runs_cancelled")->as_u64(), 2u);
  const api::RunReport after =
      fixture.client.run({zdt1_request("moela")}).front();
  EXPECT_FALSE(after.provenance.cancelled);
  EXPECT_EQ(after.evaluations, 600u);
}

TEST(Serve, CancelChasingItsRunDownThePipeStillLands) {
  // The adversarial ordering: the cancel line follows the run line with
  // no gap at all (raw socket, back-to-back sends). The server registers
  // the batch's control in handle_run — on the reader thread, before the
  // dispatcher can even be scheduled — so the chasing cancel MUST find
  // it; were registration left to the dispatcher, this cancel would be
  // lost and the run would go on to its natural end (endless_request),
  // uncancelled.
  ServerFixture fixture;
  fault::RawConnection raw(fixture.server->port());

  api::RunRequest request = endless_request(1);
  Json requests_json = Json::array();
  requests_json.append(api::request_to_json(request));
  Json run = Json::object();
  run.set("id", 1)
      .set("verb", "run")
      .set("requests", std::move(requests_json))
      .set("progress", false);
  Json cancel = Json::object();
  cancel.set("id", 2).set("verb", "cancel").set("target", 1);
  ASSERT_TRUE(raw.send(run.dump() + "\n" + cancel.dump()));

  bool saw_cancel_ack = false;
  std::optional<Json> final_response;
  std::string line;
  while (!final_response.has_value() && raw.read_line(line)) {
    if (line.empty()) continue;
    const auto message = Json::try_parse(line, nullptr);
    ASSERT_TRUE(message.has_value()) << line;
    const std::uint64_t id = message->find("id")->as_u64();
    if (id == 2) {
      EXPECT_TRUE(message->find("ok")->as_bool());
      EXPECT_TRUE(message->find("cancelled")->as_bool());
      saw_cancel_ack = true;
    } else if (id == 1 && message->find("event") == nullptr) {
      final_response = *message;
    }
  }

  EXPECT_TRUE(saw_cancel_ack);
  ASSERT_TRUE(final_response.has_value());
  ASSERT_TRUE(final_response->find("ok")->as_bool());
  const Json& reports = *final_response->find("reports");
  ASSERT_EQ(reports.as_array().size(), 1u);
  const api::RunReport report =
      api::report_from_json(reports.as_array()[0]);
  EXPECT_TRUE(report.provenance.cancelled);
  EXPECT_LT(report.evaluations, 50000000u);
  EXPECT_EQ(fixture.server->inflight_total(), 0u);
}

TEST(Serve, CancelAfterCompletionIsANoOp) {
  ServerFixture fixture;
  const api::RunReport report =
      fixture.client.run({zdt1_request("moela")}).front();
  EXPECT_FALSE(report.provenance.cancelled);
  const std::uint64_t run_id = fixture.client.last_run_id();
  EXPECT_GT(run_id, 0u);

  // The batch already answered: cancel finds nothing, reports the no-op,
  // and is idempotent — for the finished id and for ids never submitted.
  EXPECT_FALSE(fixture.client.cancel(run_id));
  EXPECT_FALSE(fixture.client.cancel(run_id));
  EXPECT_FALSE(fixture.client.cancel(424242));
  EXPECT_EQ(fixture.server->runs_cancelled(), 0u);

  // The connection survives and the daemon keeps serving.
  EXPECT_TRUE(fixture.client.ping());
  EXPECT_EQ(fixture.client.run({zdt1_request("nsga2")}).front().evaluations,
            600u);
}

// --- error answers --------------------------------------------------------

TEST(Serve, RejectsUnknownAlgorithmAndMalformedBatches) {
  ServerFixture fixture;
  api::RunRequest bad = zdt1_request("moela");
  bad.algorithm = "no-such-algorithm";
  EXPECT_THROW(fixture.client.run({bad}), RemoteError);
  EXPECT_THROW(fixture.client.run({}), RemoteError);
  // The connection survives an error answer.
  EXPECT_TRUE(fixture.client.ping());
  const api::RunReport ok = fixture.client.run({zdt1_request("moela")})
                                .front();
  EXPECT_EQ(ok.evaluations, 600u);
}

TEST(Serve, InflightBoundRejectsOversizedBatches) {
  ServeConfig config;
  config.max_inflight = 1;
  ServerFixture fixture(config);
  EXPECT_THROW(
      fixture.client.run({zdt1_request("moela"), zdt1_request("nsga2")}),
      RemoteError);
  // A batch within the bound still runs.
  EXPECT_EQ(fixture.client.run({zdt1_request("moela")}).size(), 1u);
}

// --- the scheduler through the wire ---------------------------------------

/// Polls the health verb until `predicate(health)` holds (the test timeout
/// is the backstop against a daemon that never gets there).
template <typename Predicate>
Json wait_for_health(Client& client, Predicate predicate) {
  for (;;) {
    Json health = client.health();
    if (predicate(health)) return health;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(Serve, PriorityIsEchoedInProvenanceEvenOnCacheReplay) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "moela-serve-priority";
  std::filesystem::remove_all(dir);
  ServeConfig config;
  config.use_cache = true;
  config.cache_dir = dir.string();
  ServerFixture fixture(config);

  const std::vector<api::RunRequest> requests = {zdt1_request("moela")};
  const api::RunReport cold = fixture.client
                                  .run(requests, false, nullptr, nullptr,
                                       api::Priority::kBatch)
                                  .front();
  EXPECT_FALSE(cold.provenance.cache_hit);
  EXPECT_EQ(cold.provenance.priority, "batch");

  // The replay answers from the cache, but the class echoed is THIS
  // request's — priority is scheduling provenance, never run content, and
  // it never entered the cache key.
  const api::RunReport warm = fixture.client
                                  .run(requests, false, nullptr, nullptr,
                                       api::Priority::kInteractive)
                                  .front();
  EXPECT_TRUE(warm.provenance.cache_hit);
  EXPECT_EQ(warm.provenance.priority, "interactive");
  EXPECT_EQ(warm.provenance.cache_key, cold.provenance.cache_key);

  // The unlabeled verb defaults to normal.
  const api::RunReport unlabeled = fixture.client.run(requests).front();
  EXPECT_EQ(unlabeled.provenance.priority, "normal");
}

TEST(Serve, TraceIsEchoedInProvenanceEvenOnCacheReplay) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "moela-serve-trace";
  std::filesystem::remove_all(dir);
  ServeConfig config;
  config.use_cache = true;
  config.cache_dir = dir.string();
  ServerFixture fixture(config);

  std::vector<api::RunRequest> requests = {zdt1_request("moela")};
  requests.front().trace_id = "1111111111111111";
  const api::RunReport cold = fixture.client.run(requests).front();
  EXPECT_FALSE(cold.provenance.cache_hit);
  EXPECT_EQ(cold.provenance.trace_id, "1111111111111111");

  // The replay answers from the cache, but the trace echoed is THIS
  // request's — like priority, trace is transport provenance: it never
  // entered the cache key and never alters run content.
  requests.front().trace_id = "2222222222222222";
  const api::RunReport warm = fixture.client.run(requests).front();
  EXPECT_TRUE(warm.provenance.cache_hit);
  EXPECT_EQ(warm.provenance.trace_id, "2222222222222222");
  EXPECT_EQ(warm.provenance.cache_key, cold.provenance.cache_key);
  // And the reports themselves are bit-identical: the differing trace
  // lives in provenance only.
  expect_equal_modulo_cache(cold, warm);

  // No trace minted -> no trace echoed (pre-telemetry clients see no new
  // fields).
  requests.front().trace_id.clear();
  const api::RunReport untraced = fixture.client.run(requests).front();
  EXPECT_TRUE(untraced.provenance.trace_id.empty());
}

TEST(Serve, MetricsVerbSnapshotsCountersAndLatency) {
  ServerFixture fixture;
  fixture.client.ping();
  fixture.client.run({zdt1_request("moela"), zdt1_request("nsga2")});

  const Json response = fixture.client.metrics();
  EXPECT_TRUE(response.find("ok")->as_bool());
  EXPECT_EQ(response.find("version")->as_string(), kServerVersion);
  EXPECT_GE(response.find("uptime_seconds")->as_double(), 0.0);

  const Json* metrics = response.find("metrics");
  ASSERT_NE(metrics, nullptr);

  // Per-verb request counters: exactly the traffic this test generated.
  const Json* requests_total = metrics->find("moela_requests_total");
  ASSERT_NE(requests_total, nullptr);
  std::uint64_t ping_count = 0, run_count = 0;
  for (const Json& series : requests_total->find("series")->as_array()) {
    const std::string verb =
        series.find("labels")->find("verb")->as_string();
    if (verb == "ping") ping_count = series.find("value")->as_u64();
    if (verb == "run") run_count = series.find("value")->as_u64();
  }
  EXPECT_EQ(ping_count, 1u);
  EXPECT_EQ(run_count, 1u);

  // Per-verb latency histograms ride alongside the counters. (Counts
  // observe at dispatch end, so this snapshot excludes the in-flight
  // metrics request itself.)
  const Json* latency = metrics->find("moela_request_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->find("type")->as_string(), "histogram");

  // Per-algorithm wall-time histograms: one executed run per algorithm.
  const Json* run_seconds = metrics->find("moela_run_seconds");
  ASSERT_NE(run_seconds, nullptr);
  std::uint64_t observed_runs = 0;
  for (const Json& series : run_seconds->find("series")->as_array()) {
    observed_runs += series.find("count")->as_u64();
  }
  EXPECT_EQ(observed_runs, 2u);

  // Per-class queue-wait histograms exist for all three classes from
  // startup (pre-resolved handles), and the normal class saw this batch.
  const Json* queue_wait = metrics->find("moela_sched_queue_wait_seconds");
  ASSERT_NE(queue_wait, nullptr);
  std::uint64_t normal_waits = 0;
  for (const Json& series : queue_wait->find("series")->as_array()) {
    if (series.find("labels")->find("class")->as_string() == "normal") {
      normal_waits = series.find("count")->as_u64();
    }
  }
  EXPECT_EQ(normal_waits, 2u);
}

TEST(Serve, MetricsCountCacheTraffic) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "moela-serve-metric-cache";
  std::filesystem::remove_all(dir);
  ServeConfig config;
  config.use_cache = true;
  config.cache_dir = dir.string();
  ServerFixture fixture(config);

  fixture.client.run({zdt1_request("moela")});  // miss + store
  fixture.client.run({zdt1_request("moela")});  // memory hit

  const Json response = fixture.client.metrics();
  const Json* lookups =
      response.find("metrics")->find("moela_cache_lookups_total");
  ASSERT_NE(lookups, nullptr);
  std::uint64_t misses = 0, memory_hits = 0;
  for (const Json& series : lookups->find("series")->as_array()) {
    const std::string result =
        series.find("labels")->find("result")->as_string();
    if (result == "miss") misses = series.find("value")->as_u64();
    if (result == "hit_memory") memory_hits = series.find("value")->as_u64();
  }
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(memory_hits, 1u);
  const Json* stores =
      response.find("metrics")->find("moela_cache_stores_total");
  ASSERT_NE(stores, nullptr);
  EXPECT_EQ(
      stores->find("series")->as_array().front().find("value")->as_u64(),
      1u);
}

TEST(Serve, MalformedPriorityIsRejected) {
  ServerFixture fixture;
  fault::RawConnection raw(fixture.server->port());

  Json requests_json = Json::array();
  requests_json.append(api::request_to_json(zdt1_request("moela")));
  Json run = Json::object();
  run.set("id", 1)
      .set("verb", "run")
      .set("requests", std::move(requests_json))
      .set("priority", "urgent");
  ASSERT_TRUE(raw.send(run.dump()));

  std::string line;
  ASSERT_TRUE(raw.read_line(line));
  const auto response = Json::try_parse(line, nullptr);
  ASSERT_TRUE(response.has_value()) << line;
  EXPECT_FALSE(response->find("ok")->as_bool());
  const std::string error = response->find("error")->as_string();
  EXPECT_NE(error.find("bad priority 'urgent'"), std::string::npos) << error;

  // The typo was rejected at the door: nothing ran, nothing leaked.
  EXPECT_EQ(fixture.server->inflight_total(), 0u);
  EXPECT_EQ(fixture.server->runs_handled(), 0u);
}

TEST(Serve, HealthReportsPerClassSchedulerCounters) {
  ServerFixture fixture;
  const Json cold = fixture.client.health();
  EXPECT_EQ(cold.find("queued")->as_u64(), 0u);
  EXPECT_EQ(cold.find("running")->as_u64(), 0u);
  EXPECT_GE(cold.find("max_queued")->as_u64(), 1u);
  const Json* classes = cold.find("classes");
  ASSERT_NE(classes, nullptr);
  for (const char* name : {"interactive", "normal", "batch"}) {
    const Json* cls = classes->find(name);
    ASSERT_NE(cls, nullptr) << name;
    EXPECT_EQ(cls->find("queued")->as_u64(), 0u) << name;
    EXPECT_EQ(cls->find("running")->as_u64(), 0u) << name;
    EXPECT_EQ(cls->find("completed")->as_u64(), 0u) << name;
    EXPECT_EQ(cls->find("shed")->as_u64(), 0u) << name;
  }

  fixture.client.run({zdt1_request("moela")}, false, nullptr, nullptr,
                     api::Priority::kBatch);
  const Json warm = fixture.client.health();
  const Json* batch = warm.find("classes")->find("batch");
  EXPECT_EQ(batch->find("completed")->as_u64(), 1u);
  EXPECT_EQ(warm.find("classes")->find("normal")->find("completed")->as_u64(),
            0u);
}

TEST(Serve, InteractiveOvertakesSaturatingBatchSweep) {
  // One worker, a 12-run batch sweep of ~0.2 s runs: the sweep holds the
  // QUEUE, not the workers, so an interactive run admitted behind it
  // starts within one weighted-round-robin cycle — it must answer while
  // the sweep is still draining, not after.
  ServeConfig config;
  config.jobs = 1;
  ServerFixture fixture(config);

  std::vector<api::RunRequest> sweep;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    api::RunRequest request = endless_request(seed);
    request.options.max_seconds = 0.2;  // wall-clock bounded, machine-proof
    request.options.snapshot_interval = 200;
    sweep.push_back(std::move(request));
  }

  std::vector<api::RunReport> sweep_reports;
  std::thread sweeper([&] {
    Client batch_client;
    batch_client.connect("127.0.0.1", fixture.server->port());
    sweep_reports = batch_client.run(sweep, false, nullptr, nullptr,
                                     api::Priority::kBatch);
  });

  // The sweep is saturating: one run in flight, backlog queued.
  wait_for_health(fixture.client, [](const Json& health) {
    return util::u64_field_or(health, "queued", 0) > 0;
  });

  const api::RunReport interactive =
      fixture.client
          .run({zdt1_request("moela", 99)}, false, nullptr, nullptr,
               api::Priority::kInteractive)
          .front();
  EXPECT_FALSE(interactive.provenance.cancelled);
  EXPECT_EQ(interactive.evaluations, 600u);
  EXPECT_EQ(interactive.provenance.priority, "interactive");

  // The witness: when the interactive answer arrived, the batch sweep had
  // NOT drained — only a bounded prefix of it had completed.
  const Json during = fixture.client.health();
  const Json* classes = during.find("classes");
  ASSERT_NE(classes, nullptr);
  EXPECT_EQ(classes->find("interactive")->find("completed")->as_u64(), 1u);
  EXPECT_LT(classes->find("batch")->find("completed")->as_u64(),
            sweep.size());

  sweeper.join();
  ASSERT_EQ(sweep_reports.size(), sweep.size());
  for (const api::RunReport& report : sweep_reports) {
    EXPECT_EQ(report.provenance.priority, "batch");
  }
  EXPECT_EQ(fixture.server->inflight_total(), 0u);
}

TEST(Serve, QueueFullShedsWithStructuredOverloadAndNoSlotLeak) {
  ServeConfig config;
  config.jobs = 1;
  config.max_queued = 2;
  ServerFixture fixture(config);

  api::RunRequest endless = endless_request(1);
  endless.options.snapshot_interval = 200;

  // One endless run OCCUPIES the worker (running, not queued — capacity
  // in use is not backlog) . . .
  api::RunControl occupier_control;
  std::vector<api::RunReport> occupier_reports;
  std::thread occupier([&] {
    Client client;
    client.connect("127.0.0.1", fixture.server->port());
    occupier_reports =
        client.run({endless}, false, nullptr, &occupier_control);
  });
  wait_for_health(fixture.client, [](const Json& health) {
    return util::u64_field_or(health, "running", 0) == 1;
  });

  // . . . two more fill the queue to max_queued . . .
  api::RunControl backlog_control;
  std::vector<api::RunReport> backlog_reports;
  std::thread backlog([&] {
    api::RunRequest a = endless, b = endless;
    a.options.seed = 2;
    b.options.seed = 3;
    Client client;
    client.connect("127.0.0.1", fixture.server->port());
    backlog_reports =
        client.run({a, b}, false, nullptr, &backlog_control);
  });
  wait_for_health(fixture.client, [](const Json& health) {
    return util::u64_field_or(health, "queued", 0) == 2;
  });

  // . . . so the next batch is shed whole, with the structured facts a
  // client backs off on instead of string-matching.
  try {
    fixture.client.run({zdt1_request("moela", 9)});
    FAIL() << "expected the daemon to shed the batch";
  } catch (const OverloadedError& e) {
    EXPECT_EQ(e.queue_depth(), 2u);
    EXPECT_EQ(e.retry_after_ms(), 150u);  // 50 ms * (1 + depth 2 / worker 1)
    EXPECT_NE(std::string(e.what()).find("overloaded"), std::string::npos)
        << e.what();
  }
  const Json shed_health = fixture.client.health();
  EXPECT_EQ(
      shed_health.find("classes")->find("normal")->find("shed")->as_u64(),
      1u);
  // One worker, one run executing and two queued: `inflight` counts every
  // admitted run once, the queued ones included.
  EXPECT_EQ(shed_health.find("queued")->as_u64(), 2u);  // untouched backlog
  EXPECT_EQ(shed_health.find("running")->as_u64(), 1u);
  EXPECT_EQ(shed_health.find("inflight")->as_u64(), 3u);

  // Shedding leaked nothing: drain the saturating work, then the same
  // request is admitted and completes.
  occupier_control.request_stop();
  backlog_control.request_stop();
  occupier.join();
  backlog.join();
  ASSERT_EQ(occupier_reports.size(), 1u);
  EXPECT_TRUE(occupier_reports.front().provenance.cancelled);
  ASSERT_EQ(backlog_reports.size(), 2u);

  EXPECT_EQ(fixture.server->inflight_total(), 0u);
  const api::RunReport after =
      fixture.client.run({zdt1_request("moela", 9)}).front();
  EXPECT_FALSE(after.provenance.cancelled);
  EXPECT_EQ(after.evaluations, 600u);
  const Json settled = fixture.client.health();
  EXPECT_EQ(settled.find("queued")->as_u64(), 0u);
  EXPECT_EQ(settled.find("running")->as_u64(), 0u);
  EXPECT_EQ(settled.find("inflight")->as_u64(), 0u);
}

// --- checkpoint / resume --------------------------------------------------

TEST(Serve, StreamedSnapshotResumesBitIdentically) {
  ServerFixture fixture;

  // The uninterrupted reference: the same request with checkpointing off.
  api::RunRequest request = zdt1_request("moela");
  const api::RunReport reference = fixture.client.run({request}).front();

  // A checkpointing run streams snapshot-bearing events at the cadence —
  // even with progress streaming OFF, because the snapshot is the client's
  // only resume handle and must not depend on a human watching a spinner.
  request.checkpoint = true;
  std::shared_ptr<const api::RunSnapshot> harvested;
  std::atomic<std::size_t> snapshot_events{0};
  fixture.client.run({request}, /*stream_progress=*/false,
                     [&](const Json& event) {
                       const Json* snapshot = event.find("snapshot");
                       if (snapshot == nullptr) return;
                       ++snapshot_events;
                       if (harvested == nullptr) {
                         harvested =
                             std::make_shared<const api::RunSnapshot>(
                                 api::snapshot_from_json(*snapshot));
                       }
                     });
  // snapshot_interval 200 in a 600-eval budget: at least the first two
  // cadence points carry a snapshot (the final one rides the finish).
  EXPECT_GE(snapshot_events.load(), 2u);
  ASSERT_NE(harvested, nullptr);
  EXPECT_EQ(harvested->fingerprint, api::snapshot_fingerprint(request));
  EXPECT_GT(harvested->evaluations, 0u);
  EXPECT_LT(harvested->evaluations, 600u);

  // Resuming from the harvested mid-run snapshot — journal replay for the
  // prefix, live evaluation for the rest — lands on the bit-identical
  // report, and the daemon counts the resume.
  request.resume = harvested;
  const api::RunReport resumed = fixture.client.run({request}).front();
  EXPECT_FALSE(resumed.provenance.cancelled);
  expect_equal_modulo_cache(reference, resumed);
  const Json health = fixture.client.health();
  EXPECT_GE(health.find("runs_resumed")->as_u64(), 1u);
  // No snapshot_dir on this daemon: nothing was persisted.
  EXPECT_EQ(health.find("snapshots_written")->as_u64(), 0u);
}

TEST(Serve, SnapshotDirPersistsAndAutoResumes) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "moela-serve-snapshots";
  std::filesystem::remove_all(dir);
  ServeConfig config;
  config.snapshot_dir = dir.string();
  ServerFixture fixture(config);

  api::RunRequest request = zdt1_request("moela");
  request.checkpoint = true;

  // A checkpointing run that completes cleans up after itself: snapshots
  // were written at the cadence, and the file is gone once the report is
  // final (a finished run must never be "resumed").
  std::shared_ptr<const api::RunSnapshot> harvested;
  const api::RunReport reference =
      fixture.client
          .run({request}, /*stream_progress=*/false,
               [&](const Json& event) {
                 if (const Json* snapshot = event.find("snapshot");
                     snapshot != nullptr && harvested == nullptr) {
                   harvested = std::make_shared<const api::RunSnapshot>(
                       api::snapshot_from_json(*snapshot));
                 }
               })
          .front();
  ASSERT_NE(harvested, nullptr);
  const Json after_complete = fixture.client.health();
  EXPECT_GE(after_complete.find("snapshots_written")->as_u64(), 1u);
  EXPECT_EQ(after_complete.find("runs_resumed")->as_u64(), 0u);
  const std::filesystem::path snap_file =
      dir / (api::ResultCache::hash_key(api::snapshot_fingerprint(request)) +
             ".snap");
  EXPECT_FALSE(std::filesystem::exists(snap_file));

  // A daemon SIGKILLed mid-run leaves exactly this state behind: the
  // latest cadence snapshot sitting in snapshot_dir under the
  // fingerprint-hashed name. Recreate it from the harvested mid-run
  // snapshot, resubmit the same request with no resume payload, and the
  // Executor must find the file, resume from it, finish bit-identically,
  // and delete it.
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(snap_file, std::ios::binary);
    out << api::snapshot_to_text(*harvested);
  }
  const api::RunReport resumed = fixture.client.run({request}).front();
  expect_equal_modulo_cache(reference, resumed);
  const Json after_resume = fixture.client.health();
  EXPECT_GE(after_resume.find("runs_resumed")->as_u64(), 1u);
  EXPECT_FALSE(std::filesystem::exists(snap_file));

  // A stale snapshot — wrong fingerprint for this request — is ignored,
  // not replayed: a different seed runs fresh and still lands exactly on
  // its inline twin.
  api::RunRequest other = zdt1_request("moela", 11);
  other.checkpoint = true;
  const std::filesystem::path other_file =
      dir / (api::ResultCache::hash_key(api::snapshot_fingerprint(other)) +
             ".snap");
  {
    std::ofstream out(other_file, std::ios::binary);
    out << api::snapshot_to_text(*harvested);  // fingerprint mismatch
  }
  api::Executor inline_executor({.jobs = 1});
  api::RunRequest other_plain = zdt1_request("moela", 11);
  const api::RunReport other_direct =
      inline_executor.run_all({other_plain}).front();
  const api::RunReport other_served = fixture.client.run({other}).front();
  expect_equal_modulo_cache(other_direct, other_served);
}

TEST(Serve, SeveredConnectionMidBatchLeavesDaemonServing) {
  ServeConfig config;
  config.jobs = 2;
  ServerFixture fixture(config);

  // A raw client submits a bounded checkpointing run with progress on,
  // reads one cadence event to prove the batch is mid-flight, then severs
  // the connection with no goodbye — the crashed-coordinator case.
  {
    fault::RawConnection raw(fixture.server->port());
    api::RunRequest request = zdt1_request("moela", 3);
    request.checkpoint = true;
    Json requests_json = Json::array();
    requests_json.append(api::request_to_json(request));
    Json run = Json::object();
    run.set("id", 1)
        .set("verb", "run")
        .set("requests", std::move(requests_json))
        .set("progress", true);
    ASSERT_TRUE(raw.send(run.dump()));
    fault::FaultTrigger sever_trigger(1);
    std::string line;
    while (raw.read_line(line)) {
      if (line.empty()) continue;
      const auto message = Json::try_parse(line, nullptr);
      ASSERT_TRUE(message.has_value()) << line;
      if (message->find("event") != nullptr && sever_trigger.fire()) break;
    }
    ASSERT_TRUE(sever_trigger.fired()) << "no event before the connection "
                                          "would have closed";
    raw.sever();
  }

  // The daemon survives the abandonment: the orphaned batch runs to
  // completion server-side, slots drain to zero, and a fresh client gets
  // full service.
  const Json drained = wait_for_health(fixture.client, [](const Json& h) {
    return util::u64_field_or(h, "inflight", 0) == 0 &&
           util::u64_field_or(h, "runs_handled", 0) >= 1;
  });
  EXPECT_TRUE(drained.find("accepting")->as_bool());
  const api::RunReport after =
      fixture.client.run({zdt1_request("nsga2")}).front();
  EXPECT_EQ(after.evaluations, 600u);
}

// --- shutdown -------------------------------------------------------------

TEST(Serve, ShutdownVerbDrainsTheServer) {
  ServerFixture fixture;
  fixture.client.run({zdt1_request("moela")});
  fixture.client.shutdown_server();
  // wait() must return: accept loop closed, connections nudged, batches
  // done. (A hang here is the test failure, via the test timeout.)
  fixture.server->wait();
  EXPECT_TRUE(fixture.server->shutdown_requested());
  EXPECT_EQ(fixture.server->runs_handled(), 1u);
  // New connections are refused after the drain.
  Client late;
  EXPECT_THROW(late.connect("127.0.0.1", fixture.server->port()),
               std::runtime_error);
}

TEST(Serve, HardStopDuringDrainCancelsInFlightBatch) {
  // The drain ladder's last rung: a graceful shutdown is waiting on an
  // endless run when the hard stop arrives. The stop must still reach that
  // batch, although its reader has left the read loop and wait() is already
  // joining the connection: the reply carries the cancelled partial and
  // wait() returns.
  ServeConfig config;
  config.jobs = 1;
  ServerFixture fixture(config);
  api::RunRequest endless = endless_request(1);
  Client runner;
  runner.connect("127.0.0.1", fixture.server->port());
  auto reply = std::async(std::launch::async, [&runner, &endless] {
    return runner.run({endless});
  });
  wait_for_health(fixture.client, [](const Json& health) {
    return util::u64_field_or(health, "running", 0) == 1;
  });

  fixture.server->request_shutdown();
  auto waited =
      std::async(std::launch::async, [&fixture] { fixture.server->wait(); });
  // Let the drain take hold first: once a connect is refused the listener
  // is shut and every reader has been nudged. The pause after it gives the
  // readers and wait() time to reach their joins, which is where a stop
  // that walks the batch records can miss one.
  for (;;) {
    Client probe;
    try {
      probe.connect("127.0.0.1", fixture.server->port());
    } catch (const std::runtime_error&) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  fixture.server->signal_hard_stop();

  // A stop that misses the batch leaves the run going to its own end, or
  // the drain hung: bound both waits, and exit on a timeout, since the
  // stuck threads would also block the futures' destructors.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  if (reply.wait_until(deadline) != std::future_status::ready ||
      waited.wait_until(deadline) != std::future_status::ready) {
    ADD_FAILURE() << "the hard stop did not end the draining batch";
    std::fflush(nullptr);
    std::_Exit(1);
  }
  const std::vector<api::RunReport> reports = reply.get();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].provenance.cancelled);
  EXPECT_LT(reports[0].evaluations, 50000000u);
  EXPECT_EQ(fixture.server->runs_cancelled(), 1u);
}

TEST(Serve, ProgrammaticShutdownUnblocksIdleConnections) {
  ServerFixture fixture;
  EXPECT_TRUE(fixture.client.ping());  // connection is established and idle
  fixture.server->request_shutdown();
  fixture.server->wait();  // must not hang on the idle reader
  EXPECT_THROW(fixture.client.run({zdt1_request("moela")}),
               std::runtime_error);
}

}  // namespace
}  // namespace moela::serve
