// Tests for api::ShardedExecutor (src/api/sharded_executor.*): real
// in-process moela_serve daemons on ephemeral ports, driven through the
// coordinator. The acceptance property: a fixed-seed sweep work-stolen
// across >= 2 daemons merges bit-identical to the same sweep run inline,
// in request order. Plus the fault paths (tests/fault_injection.hpp): a
// daemon SIGKILLed mid-run whose partial work resumes on the survivor from
// its streamed snapshot (the survivor's one worker is held by another
// client's endless run until the kill, so every event before it comes from
// the victim), a dead shard's chunk retried onto the survivor, a draining
// daemon left out of placement, exhausted attempt caps failing the batch
// with attributable errors, and cancellation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/executor.hpp"
#include "api/request.hpp"
#include "api/sharded_executor.hpp"
#include "fault_injection.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace moela::api {
namespace {

using fault::ProbeThenFailEndpoint;
using fault::closed_port;

RunRequest zdt1_request(const std::string& algorithm, std::uint64_t seed) {
  RunRequest request;
  request.problem = "zdt1";
  request.problem_options.num_variables = 10;
  request.algorithm = algorithm;
  request.options.max_evaluations = 500;
  request.options.snapshot_interval = 250;
  request.options.seed = seed;
  request.options.population_size = 12;
  request.options.n_local = 3;
  request.label = "zdt1:" + algorithm + ":" + std::to_string(seed);
  return request;
}

/// The "effectively endless" run the occupancy and cancel tests use:
/// zdt1_request's moela run with a 50M-evaluation budget. The budget never
/// ends it. MoelaConfig::max_generations (1000) does, after 36,413 to
/// 37,748 evaluations at seeds 1-4, about 10 s each in a Release build on
/// an idle 4-vCPU machine (GCC 12), most of it forest training. Each test
/// stops it far inside that: at its first progress event, when a short
/// nsga2 run in the same chunk finishes, or when a kill test has killed its
/// victim daemon. Their `evaluations < 50000000` checks hold either way;
/// the `cancelled` checks are what show the stop landed.
RunRequest endless_request(std::uint64_t seed) {
  RunRequest request = zdt1_request("moela", seed);
  request.options.max_evaluations = 50000000;
  return request;
}

std::vector<RunRequest> sweep_requests() {
  std::vector<RunRequest> requests;
  for (const char* algorithm : {"moela", "nsga2"}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      requests.push_back(zdt1_request(algorithm, seed));
    }
  }
  return requests;
}

/// A cache-less daemon on 127.0.0.1:<ephemeral>.
std::unique_ptr<serve::Server> make_server(
    std::size_t jobs = 1,
    std::size_t max_inflight = serve::ServeConfig{}.max_inflight) {
  serve::ServeConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  config.jobs = jobs;
  config.use_cache = false;
  config.max_inflight = max_inflight;
  auto server = std::make_unique<serve::Server>(std::move(config));
  server->start();
  return server;
}

void expect_equal_modulo_cache(const RunReport& inline_report,
                               const RunReport& sharded_report) {
  EXPECT_EQ(sharded_report.algorithm, inline_report.algorithm);
  EXPECT_EQ(sharded_report.final_front, inline_report.final_front);
  EXPECT_EQ(sharded_report.final_objectives, inline_report.final_objectives);
  EXPECT_EQ(sharded_report.evaluations, inline_report.evaluations);
  ASSERT_EQ(sharded_report.snapshots.size(), inline_report.snapshots.size());
  for (std::size_t i = 0; i < sharded_report.snapshots.size(); ++i) {
    EXPECT_EQ(sharded_report.snapshots[i].evaluations,
              inline_report.snapshots[i].evaluations);
    EXPECT_EQ(sharded_report.snapshots[i].front,
              inline_report.snapshots[i].front);
  }
  EXPECT_EQ(sharded_report.provenance.problem,
            inline_report.provenance.problem);
  EXPECT_EQ(sharded_report.provenance.algorithm_key,
            inline_report.provenance.algorithm_key);
  EXPECT_EQ(sharded_report.provenance.seed, inline_report.provenance.seed);
  EXPECT_EQ(sharded_report.provenance.cache_key,
            inline_report.provenance.cache_key);
  EXPECT_EQ(sharded_report.provenance.cancelled,
            inline_report.provenance.cancelled);
}

std::vector<RunReport> inline_reports(const std::vector<RunRequest>& sweep) {
  Executor direct({.jobs = 2});
  return direct.run_all(sweep);
}

/// The sum of a counter family's series in a daemon's registry.
std::uint64_t counter_total(const serve::Server& server,
                            const std::string& family) {
  const util::Json snapshot = server.metrics().snapshot_json();
  const util::Json* found = snapshot.find(family);
  if (found == nullptr) return 0;
  std::uint64_t total = 0;
  for (const util::Json& series : found->find("series")->as_array()) {
    total += series.find("value")->as_u64();
  }
  return total;
}

/// The daemon's moela_requests_total{verb="run"}: wire batches it received.
/// Drains the daemon first: a verb is counted when its reader thread
/// finishes dispatch, which may trail the batch's response.
std::uint64_t run_verbs(serve::Server& server) {
  server.request_shutdown();
  server.wait();
  const util::Json snapshot = server.metrics().snapshot_json();
  const util::Json* family = snapshot.find("moela_requests_total");
  if (family == nullptr) return 0;
  for (const util::Json& series : family->find("series")->as_array()) {
    if (series.find("labels")->find("verb")->as_string() == "run") {
      return series.find("value")->as_u64();
    }
  }
  return 0;
}

/// Holds a one-worker daemon's worker with another client's endless run,
/// so runs the coordinator sends there wait in its queue and emit no event
/// until stop().
class Occupier {
 public:
  explicit Occupier(serve::Server& server)
      : thread_([this, port = server.port()] {
          try {
            serve::Client client;
            client.connect("127.0.0.1", port);
            client.run({endless_request(1)}, false, nullptr, &control_);
          } catch (const std::exception& e) {
            ADD_FAILURE() << "occupier: " << e.what();
          }
        }) {
    serve::Client observer;
    observer.connect("127.0.0.1", server.port());
    while (util::u64_field_or(observer.health(), "running", 0) != 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~Occupier() {
    stop();
    thread_.join();
  }
  Occupier(const Occupier&) = delete;
  Occupier& operator=(const Occupier&) = delete;

  void stop() { control_.request_stop(); }

 private:
  RunControl control_;
  std::thread thread_;
};

/// Six zdt1 moela runs long enough to stream several snapshots each.
std::vector<RunRequest> checkpointed_sweep() {
  std::vector<RunRequest> sweep;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunRequest request = zdt1_request("moela", seed);
    request.options.max_evaluations = 2400;
    request.options.snapshot_interval = 200;
    sweep.push_back(std::move(request));
  }
  return sweep;
}

// --- the acceptance property ---------------------------------------------

TEST(ShardedExecutor, ThreeDaemonsBitIdenticalToInline) {
  const std::vector<RunRequest> sweep = sweep_requests();
  const std::vector<RunReport> reference = inline_reports(sweep);

  auto a = make_server();
  auto b = make_server();
  auto c = make_server();
  ShardedExecutorConfig config;
  config.endpoints = {{"127.0.0.1", a->port()},
                      {"127.0.0.1", b->port()},
                      {"127.0.0.1", c->port()}};
  ShardedExecutor sharded(config);
  const std::vector<RunReport> merged = sharded.run_all(sweep);

  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    expect_equal_modulo_cache(reference[i], merged[i]);
  }
  std::size_t total = 0;
  for (const ShardStats& shard : sharded.shard_stats()) {
    EXPECT_TRUE(shard.healthy);
    total += shard.completed;
  }
  EXPECT_EQ(total, sweep.size());
}

TEST(ShardedExecutor, WorkStealingBitIdenticalAndInRequestOrder) {
  const std::vector<RunRequest> sweep = sweep_requests();
  const std::vector<RunReport> reference = inline_reports(sweep);

  // Asymmetric daemons so the fast one steals more of the batch — the
  // merged order must not care.
  auto slow = make_server(1);
  auto fast = make_server(4);
  ShardedExecutorConfig config;
  config.endpoints = {{"127.0.0.1", slow->port()},
                      {"127.0.0.1", fast->port()}};
  ShardedExecutor sharded(config);

  RunControl control;
  std::atomic<std::size_t> finished{0};
  control.on_progress([&finished](const RunProgress& progress) {
    if (progress.finished) ++finished;
  });
  const std::vector<RunReport> merged = sharded.run_all(sweep, &control);

  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    // Request order: merged[i] answers sweep[i] (seed is the witness) ...
    EXPECT_EQ(merged[i].provenance.seed, sweep[i].options.seed);
    // ... and the content is bit-identical to the inline run.
    expect_equal_modulo_cache(reference[i], merged[i]);
  }
  EXPECT_EQ(finished.load(), sweep.size());
  std::size_t total = 0;
  for (const ShardStats& shard : sharded.shard_stats()) {
    total += shard.completed;
  }
  EXPECT_EQ(total, sweep.size());
}

TEST(ShardedExecutor, EachDaemonHoldsItsNextChunkQueued) {
  // Two single-worker daemons, work stealing, chunks of one (the probed
  // worker count): six chunks. Each shard's second lane sends its chunk
  // while the first lane's chunk still runs, so while the batch is in
  // flight some daemon must report one run executing and one queued —
  // with a single lane per shard the queue stays empty.
  std::vector<RunRequest> sweep;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunRequest request = zdt1_request("moela", seed);
    request.options.max_evaluations = 2000;
    sweep.push_back(std::move(request));
  }
  const std::vector<RunReport> reference = inline_reports(sweep);

  auto a = make_server(1);
  auto b = make_server(1);
  ShardedExecutorConfig config;
  config.endpoints = {{"127.0.0.1", a->port()}, {"127.0.0.1", b->port()}};
  ShardedExecutor sharded(config);
  auto merged_future = std::async(std::launch::async,
                                  [&] { return sharded.run_all(sweep); });

  serve::Client observe_a;
  serve::Client observe_b;
  observe_a.connect("127.0.0.1", a->port());
  observe_b.connect("127.0.0.1", b->port());
  bool pipelined = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!pipelined && std::chrono::steady_clock::now() < deadline &&
         merged_future.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
    for (serve::Client* observer : {&observe_a, &observe_b}) {
      const util::Json health = observer->health();
      if (util::u64_field_or(health, "running", 0) == 1 &&
          util::u64_field_or(health, "queued", 0) == 1) {
        pipelined = true;
      }
    }
  }
  const std::vector<RunReport> merged = merged_future.get();
  EXPECT_TRUE(pipelined) << "no daemon ever held a queued chunk";

  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    expect_equal_modulo_cache(reference[i], merged[i]);
  }
  EXPECT_EQ(sharded.shard_stats()[0].completed +
                sharded.shard_stats()[1].completed,
            sweep.size());
}

// --- fault paths ----------------------------------------------------------

TEST(ShardedExecutor, DeadShardChunkRetriesOntoSurvivor) {
  const std::vector<RunRequest> sweep = sweep_requests();
  const std::vector<RunReport> reference = inline_reports(sweep);

  // The dead endpoint passes the health probe and then refuses every
  // connect: its lanes take a chunk each and only then fail to connect, so
  // the requeue machinery itself is on the hook (`failures` counts those
  // connects; the probe succeeded).
  ProbeThenFailEndpoint dead(ProbeThenFailEndpoint::Mode::kRefuseAfterProbe);
  auto survivor = make_server();
  ShardedExecutorConfig config;
  config.endpoints = {{"127.0.0.1", dead.port()},
                      {"127.0.0.1", survivor->port()}};
  ShardedExecutor sharded(config);
  const std::vector<RunReport> merged = sharded.run_all(sweep);

  ASSERT_EQ(merged.size(), sweep.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    expect_equal_modulo_cache(reference[i], merged[i]);
  }
  const std::vector<ShardStats>& stats = sharded.shard_stats();
  EXPECT_FALSE(stats[0].healthy);  // probed healthy only until connect fails
  EXPECT_EQ(stats[0].completed, 0u);
  EXPECT_GE(stats[0].failures, 1u);
  EXPECT_FALSE(stats[0].error.empty());
  EXPECT_EQ(stats[1].completed, sweep.size());
}

TEST(ShardedExecutor, DaemonKilledMidRunResumesOnSurvivorBitIdentical) {
  // The checkpoint acceptance property, end to end: a real moela_serve
  // daemon is SIGKILLed with runs in flight, the coordinator requeues its
  // chunks onto the survivor WITH the latest streamed snapshots, the
  // survivor resumes (replays) the partial runs — and the merged batch is
  // bit-identical to an uninterrupted inline sweep. The survivor's one
  // worker is occupied, so its two one-run chunks wait in its queue and the
  // victim (two workers, two lanes of two-run chunks) holds the other four
  // requests. Deterministic: the kill fires on the first snapshot-cadence
  // event, which can only come from the victim and which the coordinator
  // harvested BEFORE forwarding, so a resume point provably exists. Then
  // the occupier stops and the survivor serves the whole batch.
  const std::vector<RunRequest> sweep = checkpointed_sweep();
  const std::vector<RunReport> reference = inline_reports(sweep);

  auto survivor = make_server(1);
  Occupier occupier(*survivor);
  fault::DaemonProcess victim({"--no-cache", "--jobs", "2"});
  ShardedExecutorConfig config;
  config.endpoints = {{"127.0.0.1", survivor->port()},
                      {"127.0.0.1", victim.port()}};
  config.stream_progress = true;
  ShardedExecutor sharded(config);

  fault::FaultTrigger kill_trigger(1);
  RunControl control;
  control.on_progress([&](const RunProgress& progress) {
    if (!progress.finished && kill_trigger.fire()) {
      victim.kill();
      occupier.stop();
    }
  });
  const std::vector<RunReport> merged = sharded.run_all(sweep, &control);
  EXPECT_TRUE(kill_trigger.fired());
  EXPECT_FALSE(victim.alive());

  // Bit-identity despite the crash: every report, including the ones that
  // started on the victim and finished on the survivor, matches the
  // uninterrupted inline run.
  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].provenance.seed, sweep[i].options.seed);
    expect_equal_modulo_cache(reference[i], merged[i]);
    EXPECT_FALSE(merged[i].provenance.cancelled) << i;
  }

  // The continuation really was a RESUME, not a re-run: the survivor
  // completed at least one request from a mid-run snapshot, and its daemon
  // counted it.
  const std::vector<ShardStats>& stats = sharded.shard_stats();
  EXPECT_GE(stats[1].failures, 1u);
  EXPECT_FALSE(stats[1].error.empty());
  EXPECT_GE(stats[0].resumed, 1u);
  EXPECT_EQ(stats[0].completed + stats[1].completed, sweep.size());
  EXPECT_GE(counter_total(*survivor, "moela_runs_resumed_total"), 1u);
}

TEST(ShardedExecutor, DaemonKilledHoldingQueuedChunkResumesBitIdentical) {
  // A single-worker victim holds two one-run chunks, one executing and one
  // waiting in its queue, when it is SIGKILLed at the first
  // snapshot-cadence event, which can only be its own: the survivor's one
  // worker is occupied until the kill. The executing run resumes on the
  // survivor from its snapshot, the queued one (never started) is requeued
  // without an attempt charged, and every report matches the inline run.
  const std::vector<RunRequest> sweep = checkpointed_sweep();
  const std::vector<RunReport> reference = inline_reports(sweep);

  auto survivor = make_server(1);
  Occupier occupier(*survivor);
  fault::DaemonProcess victim({"--no-cache", "--jobs", "1"});
  ShardedExecutorConfig config;
  config.endpoints = {{"127.0.0.1", survivor->port()},
                      {"127.0.0.1", victim.port()}};
  config.stream_progress = true;
  ShardedExecutor sharded(config);

  fault::FaultTrigger kill_trigger(1);
  std::uint64_t victim_queued = 0;
  RunControl control;
  control.on_progress([&](const RunProgress& progress) {
    if (progress.finished || !kill_trigger.fire()) return;
    // The kill waits (bounded) until the victim reports its queued chunk.
    serve::Client observer;
    observer.connect("127.0.0.1", victim.port());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((victim_queued = util::u64_field_or(observer.health(), "queued",
                                               0)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    victim.kill();
    occupier.stop();
  });
  const std::vector<RunReport> merged = sharded.run_all(sweep, &control);
  EXPECT_TRUE(kill_trigger.fired());
  EXPECT_FALSE(victim.alive());
  EXPECT_EQ(victim_queued, 1u);

  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].provenance.seed, sweep[i].options.seed);
    expect_equal_modulo_cache(reference[i], merged[i]);
    EXPECT_FALSE(merged[i].provenance.cancelled) << i;
  }
  const std::vector<ShardStats>& stats = sharded.shard_stats();
  EXPECT_GE(stats[1].failures, 1u);
  EXPECT_GE(stats[0].resumed, 1u);
  EXPECT_EQ(stats[0].completed, sweep.size());
}

TEST(ShardedExecutor, TransportDeathBeforeStartDoesNotChargeAttempts) {
  // Attempt accounting: a shard that dies before emitting a single event
  // for a request never executed it, so the requeue must not charge the
  // request's attempt cap. With max_attempts = 1 and solo chunks, ANY
  // spurious charge fails the batch with "1 attempt(s)".
  const std::vector<RunRequest> sweep = sweep_requests();
  const std::vector<RunReport> reference = inline_reports(sweep);

  // Size-1 chunks, the per-request charging path: the evil endpoint's
  // probe reports no worker count and the survivor has one worker. The
  // evil endpoint drops each connection at its run line, so its lanes'
  // chunks die on the wire (`failures`) before any run starts.
  ProbeThenFailEndpoint evil(ProbeThenFailEndpoint::Mode::kDropAtRun);
  auto survivor = make_server();
  ShardedExecutorConfig config;
  config.endpoints = {{"127.0.0.1", evil.port()},
                      {"127.0.0.1", survivor->port()}};
  config.max_attempts = 1;  // zero tolerance for a spurious charge
  ShardedExecutor sharded(config);
  const std::vector<RunReport> merged = sharded.run_all(sweep);

  ASSERT_EQ(merged.size(), sweep.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    expect_equal_modulo_cache(reference[i], merged[i]);
  }
  const std::vector<ShardStats>& stats = sharded.shard_stats();
  EXPECT_EQ(stats[0].completed, 0u);
  EXPECT_GE(stats[0].failures, 1u);
  EXPECT_EQ(stats[1].completed, sweep.size());
}

TEST(ShardedExecutor, DrainingDaemonGetsNoLanes) {
  // `accepting` is one of the three fields the coordinator reads from
  // `health`: a daemon that answers the probe while draining must get no
  // lanes, so the whole batch goes to its peer.
  const std::vector<RunRequest> sweep = sweep_requests();
  const std::vector<RunReport> reference = inline_reports(sweep);

  ProbeThenFailEndpoint draining(ProbeThenFailEndpoint::Mode::kDraining);
  auto survivor = make_server();
  ShardedExecutorConfig config;
  config.endpoints = {{"127.0.0.1", draining.port()},
                      {"127.0.0.1", survivor->port()}};
  ShardedExecutor sharded(config);
  const std::vector<RunReport> merged = sharded.run_all(sweep);

  ASSERT_EQ(merged.size(), sweep.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    expect_equal_modulo_cache(reference[i], merged[i]);
  }
  const std::vector<ShardStats>& stats = sharded.shard_stats();
  EXPECT_FALSE(stats[0].healthy);
  EXPECT_EQ(stats[0].completed, 0u);
  EXPECT_NE(stats[0].error.find("draining"), std::string::npos)
      << stats[0].error;
  EXPECT_EQ(stats[1].completed, sweep.size());
  EXPECT_EQ(draining.run_lines(), 0u);
}

TEST(ShardedExecutor, HealthProbeLeavesDeadShardOutOfPlacement) {
  auto survivor = make_server();
  const int dead = closed_port();
  ShardedExecutorConfig config;
  config.endpoints = {{"127.0.0.1", dead}, {"127.0.0.1", survivor->port()}};
  ShardedExecutor sharded(config);
  const std::vector<RunReport> merged =
      sharded.run_all({zdt1_request("nsga2", 1), zdt1_request("nsga2", 2)});

  EXPECT_EQ(merged.size(), 2u);
  const std::vector<ShardStats>& stats = sharded.shard_stats();
  EXPECT_FALSE(stats[0].healthy);
  // The probe failure names the dead endpoint (the satellite contract:
  // multi-shard errors are attributable).
  EXPECT_NE(stats[0].error.find(std::to_string(dead)), std::string::npos);
  EXPECT_TRUE(stats[1].healthy);
  EXPECT_EQ(stats[1].completed, 2u);
}

TEST(ShardedExecutor, AllShardsDownThrowsWithEndpoints) {
  const int dead_a = closed_port();
  const int dead_b = closed_port();
  ShardedExecutorConfig config;
  config.endpoints = {{"127.0.0.1", dead_a}, {"127.0.0.1", dead_b}};
  ShardedExecutor sharded(config);
  try {
    sharded.run_all({zdt1_request("nsga2", 1)});
    FAIL() << "expected the batch to fail with no healthy shard";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unserved"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(dead_a)), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(dead_b)), std::string::npos) << what;
  }
}

TEST(ShardedExecutor, PoisonChunkMatesRetrySoloAndComplete) {
  // One daemon, so the whole batch of 4 is one wire batch: the poison rides
  // with three good requests, the server rejects the whole batch, and the
  // good three must complete on solo retries — only the poison may end up
  // unserved.
  auto server = make_server(4);
  ShardedExecutorConfig config;
  config.endpoints = {{"127.0.0.1", server->port()}};
  config.max_attempts = 2;

  std::vector<RunRequest> sweep = {zdt1_request("nsga2", 1),
                                   zdt1_request("nsga2", 2),
                                   zdt1_request("nsga2", 3),
                                   zdt1_request("nsga2", 4)};
  sweep[1].algorithm = "no-such-algorithm";
  sweep[1].label = "poison";
  ShardedExecutor sharded(config);
  try {
    sharded.run_all(sweep);
    FAIL() << "expected the poison request to fail the batch";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    // Exactly the poison is unserved; its chunk-mates were not charged.
    EXPECT_NE(what.find("1 of 4 request(s) unserved"), std::string::npos)
        << what;
    EXPECT_NE(what.find("poison"), std::string::npos) << what;
  }
}

TEST(ShardedExecutor, PoisonRequestExhaustsItsAttemptCap) {
  auto a = make_server();
  auto b = make_server();
  ShardedExecutorConfig config;
  config.endpoints = {{"127.0.0.1", a->port()}, {"127.0.0.1", b->port()}};
  config.max_attempts = 2;

  RunRequest poison = zdt1_request("nsga2", 1);
  poison.algorithm = "no-such-algorithm";
  poison.label = "poison";
  ShardedExecutor sharded(config);
  try {
    sharded.run_all({zdt1_request("nsga2", 1), poison});
    FAIL() << "expected the poison request to fail the batch";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("poison"), std::string::npos) << what;
    EXPECT_NE(what.find("2 attempt(s)"), std::string::npos) << what;
    EXPECT_NE(what.find("no-such-algorithm"), std::string::npos) << what;
  }
}

TEST(ShardedExecutor, StopCancelsInFlightRemoteChunks) {
  // Four effectively-endless runs across two daemons (jobs=1, chunk=1,
  // two lanes per shard): one running and one queued on each daemon. The
  // first streamed progress event requests the stop; the lanes must send
  // the cancel verb, the daemons must actually stop their running work,
  // and the queued requests come back cancelled without starting — no
  // request is ever "abandoned but still burning daemon CPU".
  auto a = make_server(1);
  auto b = make_server(1);
  ShardedExecutorConfig config;
  config.endpoints = {{"127.0.0.1", a->port()}, {"127.0.0.1", b->port()}};
  config.stream_progress = true;

  // moela, not nsga2: both end at a 1000-generation cap, but nsga2 gets
  // there after 12,012 evaluations, soon enough to race the cancel on a
  // slow machine.
  std::vector<RunRequest> sweep;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RunRequest request = endless_request(seed);
    request.options.snapshot_interval = 500;
    sweep.push_back(std::move(request));
  }

  RunControl control;
  control.on_progress([&control](const RunProgress& progress) {
    if (!progress.finished) control.request_stop();
  });
  ShardedExecutor sharded(config);
  const std::vector<RunReport> merged = sharded.run_all(sweep, &control);

  ASSERT_EQ(merged.size(), sweep.size());
  std::size_t remote_cancelled = 0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_TRUE(merged[i].provenance.cancelled) << i;
    EXPECT_LT(merged[i].evaluations, 50000000u) << i;
    // A daemon-side cancel yields a PARTIAL report (the run was really
    // executing); a run cancelled before it started (queued on the
    // daemon, or never sent) yields the empty cancelled report.
    if (merged[i].evaluations > 0) ++remote_cancelled;
  }
  EXPECT_GE(remote_cancelled, 1u);  // in-flight remote work really stopped

  // Cancellation is not a fault: no shard failed, none was retired, and
  // both daemons are still accepting with their slots released.
  for (const ShardStats& shard : sharded.shard_stats()) {
    EXPECT_EQ(shard.failures, 0u) << shard.endpoint;
    EXPECT_TRUE(shard.error.empty()) << shard.error;
  }
  EXPECT_FALSE(a->shutdown_requested());
  EXPECT_FALSE(b->shutdown_requested());
  EXPECT_EQ(a->inflight_total(), 0u);
  EXPECT_EQ(b->inflight_total(), 0u);
  EXPECT_GE(counter_total(*a, "moela_runs_cancelled_total") +
                counter_total(*b, "moela_runs_cancelled_total"),
            remote_cancelled);
}

TEST(ShardedExecutor, StopKeepsCompletedReportsBitIdentical) {
  // A short and an endless run in ONE wire chunk on a two-worker daemon.
  // The short run's `finished` event triggers the stop: the endless run
  // must come back cancelled, while the already-completed run's report
  // stays bit-identical to an inline execution.
  const RunRequest short_request = zdt1_request("nsga2", 1);
  RunRequest long_request = endless_request(2);
  long_request.options.snapshot_interval = 500;
  const RunReport reference = inline_reports({short_request}).front();

  auto server = make_server(2);
  ShardedExecutorConfig config;
  // A lone daemon takes the whole batch: both runs ride one chunk, in
  // flight together.
  config.endpoints = {{"127.0.0.1", server->port()}};
  ShardedExecutor sharded(config);

  RunControl control;
  control.on_progress([&control](const RunProgress& progress) {
    if (progress.finished) control.request_stop();
  });
  const std::vector<RunReport> merged =
      sharded.run_all({short_request, long_request}, &control);

  ASSERT_EQ(merged.size(), 2u);
  EXPECT_FALSE(merged[0].provenance.cancelled);
  expect_equal_modulo_cache(reference, merged[0]);
  EXPECT_TRUE(merged[1].provenance.cancelled);
  EXPECT_LT(merged[1].evaluations, 50000000u);
  EXPECT_EQ(sharded.shard_stats()[0].failures, 0u);
  EXPECT_FALSE(server->shutdown_requested());
  EXPECT_EQ(server->inflight_total(), 0u);
  EXPECT_EQ(counter_total(*server, "moela_runs_cancelled_total"), 1u);
}

TEST(ShardedExecutor, StopBeforeRunYieldsCancelledReports) {
  auto server = make_server();
  ShardedExecutorConfig config;
  config.endpoints = {{"127.0.0.1", server->port()}};
  ShardedExecutor sharded(config);

  std::vector<RunRequest> sweep = sweep_requests();
  for (RunRequest& request : sweep) request.trace_id = "00000000deadbeef";
  RunControl control;
  control.request_stop();
  const std::vector<RunReport> merged = sharded.run_all(sweep, &control);
  // A never-started run reads the same whether the stop met it inline or
  // in the coordinator.
  Executor direct({.jobs = 2});
  const std::vector<RunReport> stopped = direct.run_all(sweep, &control);
  ASSERT_EQ(merged.size(), 6u);
  ASSERT_EQ(stopped.size(), 6u);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const RunReport& report = merged[i];
    const RunProvenance& inline_provenance = stopped[i].provenance;
    EXPECT_TRUE(report.provenance.cancelled);
    EXPECT_EQ(report.evaluations, 0u);
    EXPECT_EQ(report.algorithm, stopped[i].algorithm);
    EXPECT_EQ(report.evaluations, stopped[i].evaluations);
    EXPECT_EQ(report.provenance.problem, inline_provenance.problem);
    EXPECT_EQ(report.provenance.algorithm_key,
              inline_provenance.algorithm_key);
    EXPECT_EQ(report.provenance.seed, inline_provenance.seed);
    EXPECT_EQ(report.provenance.knobs, inline_provenance.knobs);
    EXPECT_EQ(report.provenance.cache_key, inline_provenance.cache_key);
    EXPECT_EQ(report.provenance.cache_hit, inline_provenance.cache_hit);
    EXPECT_EQ(report.provenance.priority, inline_provenance.priority);
    EXPECT_EQ(report.provenance.trace_id, inline_provenance.trace_id);
    EXPECT_EQ(report.provenance.trace_id, "00000000deadbeef");
    EXPECT_EQ(report.provenance.cancelled, inline_provenance.cancelled);
  }
}

TEST(ShardedExecutor, RejectsEmptyOrDegenerateConfigs) {
  EXPECT_THROW(ShardedExecutor(ShardedExecutorConfig{}),
               std::invalid_argument);
  ShardedExecutorConfig no_attempts;
  no_attempts.endpoints = {{"127.0.0.1", 1}};
  no_attempts.max_attempts = 0;
  EXPECT_THROW(ShardedExecutor{no_attempts}, std::invalid_argument);
}

TEST(ShardedExecutor, LoneShardSendsWholeBatchUpToItsInflightBound) {
  // One single-worker daemon: the auto chunk is the whole batch, not the
  // worker count (six rounds of one), capped at the probed max_inflight.
  // Past that bound the daemon would reject the batch and the coordinator
  // retry every request solo; capped, 6 requests go as 4 + 2.
  const std::vector<RunRequest> sweep = sweep_requests();
  const std::vector<RunReport> reference = inline_reports(sweep);

  struct Case {
    std::size_t max_inflight;
    std::uint64_t run_verbs;
  };
  for (const Case c : {Case{serve::ServeConfig{}.max_inflight, 1},
                       Case{4, 2}}) {
    SCOPED_TRACE("max_inflight " + std::to_string(c.max_inflight));
    auto server = make_server(1, c.max_inflight);
    ShardedExecutorConfig config;
    config.endpoints = {{"127.0.0.1", server->port()}};
    ShardedExecutor sharded(config);
    const std::vector<RunReport> merged = sharded.run_all(sweep);

    ASSERT_EQ(merged.size(), reference.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      expect_equal_modulo_cache(reference[i], merged[i]);
    }
    EXPECT_EQ(sharded.shard_stats()[0].failures, 0u);
    EXPECT_EQ(run_verbs(*server), c.run_verbs);
  }
}

}  // namespace
}  // namespace moela::api
