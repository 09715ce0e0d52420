// Tests for the Executor's scheduling layer: the FairQueue's two nested
// disciplines (src/api/fair_queue.*) driven single-threaded so pop order is
// asserted exactly — weighted round-robin across classes (credits, refill,
// forfeited shares) and lane round-robin within a class — plus the
// policy vocabulary (src/api/priority.hpp: wire spellings, weight
// clamping) and the api::Executor that drains the queue: admission,
// all-or-nothing shedding with the structured overload facts, per-class
// load and the per-class counts in its metrics registry (runs started,
// shed, cancelled), the bit-identical-to-inline property of runs dispatched
// through the queue, and the unbounded default of an in-process batch.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/fair_queue.hpp"
#include "api/priority.hpp"
#include "api/request.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace moela::api {
namespace {

QueueItem tagged(std::uint64_t tag) {
  QueueItem item;
  item.tag = tag;
  return item;
}

/// One class's series of a metric family in `metrics`: a histogram's count
/// or a counter's value; 0 when the family is not registered.
std::uint64_t class_count(const util::MetricsRegistry& metrics,
                          const std::string& family, Priority priority) {
  const util::Json snapshot = metrics.snapshot_json();
  const util::Json* found = snapshot.find(family);
  if (found == nullptr) return 0;
  for (const util::Json& series : found->find("series")->as_array()) {
    if (series.find("labels")->find("class")->as_string() !=
        priority_name(priority)) {
      continue;
    }
    const util::Json* count = series.find("count");
    return (count != nullptr ? count : series.find("value"))->as_u64();
  }
  return 0;
}

/// Runs of a class a worker has started: the queue-wait histogram's count.
std::uint64_t started(const util::MetricsRegistry& metrics,
                      Priority priority) {
  return class_count(metrics, "moela_sched_queue_wait_seconds", priority);
}

std::uint64_t shed_runs(const util::MetricsRegistry& metrics,
                        Priority priority) {
  return class_count(metrics, "moela_runs_shed_total", priority);
}

/// Drains the queue, returning the popped tags in dispatch order.
std::vector<std::uint64_t> drain(FairQueue& queue) {
  std::vector<std::uint64_t> order;
  Priority priority = Priority::kNormal;
  QueueItem item;
  while (queue.pop(priority, item)) order.push_back(item.tag);
  return order;
}

// --- policy vocabulary ----------------------------------------------------

TEST(SchedPolicy, NamesAndParsingRoundTrip) {
  for (const Priority priority :
       {Priority::kInteractive, Priority::kNormal, Priority::kBatch}) {
    Priority back = Priority::kNormal;
    ASSERT_TRUE(parse_priority(priority_name(priority), back));
    EXPECT_EQ(back, priority);
  }
  EXPECT_EQ(priority_name(Priority::kInteractive), "interactive");
  EXPECT_EQ(priority_name(Priority::kNormal), "normal");
  EXPECT_EQ(priority_name(Priority::kBatch), "batch");
}

TEST(SchedPolicy, ParseRejectsTyposWithoutTouchingOut) {
  Priority out = Priority::kBatch;
  EXPECT_FALSE(parse_priority("urgent", out));
  EXPECT_FALSE(parse_priority("Interactive", out));
  EXPECT_FALSE(parse_priority("", out));
  EXPECT_EQ(out, Priority::kBatch);  // untouched on failure
}

TEST(SchedPolicy, WeightsClampToAtLeastOne) {
  Weights weights;
  weights.interactive = 0;
  weights.batch = 0;
  EXPECT_EQ(weights.of(Priority::kInteractive), 1u);
  EXPECT_EQ(weights.of(Priority::kBatch), 1u);
  EXPECT_EQ(weights.of(Priority::kNormal), 4u);  // the default, unclamped
}

// --- FairQueue: across classes --------------------------------------------

TEST(FairQueue, WeightedRoundRobinAcrossClasses) {
  Weights weights;
  weights.interactive = 2;
  weights.normal = 1;
  weights.batch = 1;
  FairQueue queue(weights);
  for (std::uint64_t tag : {1, 2, 3, 4}) {
    queue.push(Priority::kInteractive, 0, tagged(tag));
  }
  queue.push(Priority::kNormal, 0, tagged(11));
  queue.push(Priority::kNormal, 0, tagged(12));
  queue.push(Priority::kBatch, 0, tagged(21));
  queue.push(Priority::kBatch, 0, tagged(22));

  EXPECT_EQ(queue.size(), 8u);
  EXPECT_EQ(queue.size(Priority::kInteractive), 4u);
  // Per credit cycle: 2 interactive, 1 normal, 1 batch.
  EXPECT_EQ(drain(queue),
            (std::vector<std::uint64_t>{1, 2, 11, 21, 3, 4, 12, 22}));
  EXPECT_TRUE(queue.empty());
}

TEST(FairQueue, IdleClassForfeitsItsShare) {
  // Only batch work queued: batch drains at full speed (one dispatch per
  // one-credit cycle, but no other class is taking turns) . . .
  FairQueue queue;  // default weights 8, 4, 1
  for (std::uint64_t tag : {1, 2, 3}) {
    queue.push(Priority::kBatch, 0, tagged(tag));
  }
  Priority priority = Priority::kNormal;
  QueueItem item;
  ASSERT_TRUE(queue.pop(priority, item));
  EXPECT_EQ(item.tag, 1u);
  EXPECT_EQ(priority, Priority::kBatch);
  ASSERT_TRUE(queue.pop(priority, item));
  EXPECT_EQ(item.tag, 2u);

  // . . . and an interactive run arriving into the backlog is dispatched
  // on the very next pop — the idle cycles did not let batch bank credit.
  queue.push(Priority::kInteractive, 7, tagged(100));
  ASSERT_TRUE(queue.pop(priority, item));
  EXPECT_EQ(item.tag, 100u);
  EXPECT_EQ(priority, Priority::kInteractive);
  ASSERT_TRUE(queue.pop(priority, item));
  EXPECT_EQ(item.tag, 3u);
  EXPECT_TRUE(queue.empty());
}

TEST(FairQueue, EveryClassDispatchesWithinOneCycleOfBacklog) {
  // The bounded-starvation guarantee: with every weight >= 1, a batch run
  // behind saturating interactive traffic still dispatches within one
  // sum-of-weights cycle.
  Weights weights;
  weights.interactive = 3;
  weights.normal = 2;
  weights.batch = 1;
  FairQueue queue(weights);
  for (std::uint64_t tag = 0; tag < 12; ++tag) {
    queue.push(Priority::kInteractive, 0, tagged(tag));
  }
  queue.push(Priority::kBatch, 0, tagged(99));

  const std::vector<std::uint64_t> order = drain(queue);
  ASSERT_EQ(order.size(), 13u);
  std::size_t batch_position = order.size();
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 99) batch_position = i;
  }
  // 3 interactive dispatches may precede it, never a full second cycle.
  EXPECT_LE(batch_position, 3u);
}

// --- FairQueue: within a class --------------------------------------------

TEST(FairQueue, LanesShareAClassRoundRobinAndStayFifo) {
  FairQueue queue;
  for (std::uint64_t tag : {1, 2, 3}) {
    queue.push(Priority::kNormal, /*lane=*/1, tagged(tag));
  }
  queue.push(Priority::kNormal, /*lane=*/2, tagged(4));
  queue.push(Priority::kNormal, /*lane=*/2, tagged(5));

  // Lane 1 queued three runs, lane 2 two — they alternate anyway, and
  // each lane's own runs stay in admission order.
  EXPECT_EQ(drain(queue), (std::vector<std::uint64_t>{1, 4, 2, 5, 3}));
}

TEST(FairQueue, DrainedLaneIsForgotten) {
  FairQueue queue;
  queue.push(Priority::kNormal, 1, tagged(1));
  Priority priority = Priority::kNormal;
  QueueItem item;
  ASSERT_TRUE(queue.pop(priority, item));
  EXPECT_TRUE(queue.empty());

  // The lane left nothing behind: a fresh push dispatches immediately and
  // an empty queue reports pop failure, not a phantom lane.
  EXPECT_FALSE(queue.pop(priority, item));
  queue.push(Priority::kNormal, 1, tagged(2));
  ASSERT_TRUE(queue.pop(priority, item));
  EXPECT_EQ(item.tag, 2u);
}

// --- Executor: admission, dispatch, counters ------------------------------

RunRequest zdt1_request(std::uint64_t seed) {
  RunRequest request;
  request.problem = "zdt1";
  request.problem_options.num_variables = 10;
  request.algorithm = "nsga2";
  request.options.max_evaluations = 400;
  request.options.snapshot_interval = 200;
  request.options.seed = seed;
  request.options.population_size = 12;
  request.options.n_local = 3;
  return request;
}

TEST(ExecutorQueue, RunsDispatchedThroughTheQueueMatchInlineExecution) {
  Executor direct({.jobs = 1});
  const RunReport reference = direct.run_all({zdt1_request(5)}).front();

  util::MetricsRegistry metrics;
  Executor executor({.jobs = 2, .metrics = &metrics});
  Executor::Admission admission = executor.submit(
      {zdt1_request(5)}, nullptr, Priority::kInteractive, /*lane=*/3);
  ASSERT_TRUE(admission.admitted);
  ASSERT_EQ(admission.futures.size(), 1u);
  const RunReport report = admission.futures.front().get();

  EXPECT_EQ(report.final_front, reference.final_front);
  EXPECT_EQ(report.evaluations, reference.evaluations);
  EXPECT_EQ(report.provenance.cache_key, reference.provenance.cache_key);

  const ClassCounters counters = executor.counters(Priority::kInteractive);
  EXPECT_EQ(started(metrics, Priority::kInteractive), 1u);
  EXPECT_EQ(counters.running, 0u);
  EXPECT_EQ(shed_runs(metrics, Priority::kInteractive), 0u);
  EXPECT_EQ(started(metrics, Priority::kNormal), 0u);
  EXPECT_EQ(executor.queued_total(), 0u);
  EXPECT_EQ(executor.running_total(), 0u);
}

TEST(ExecutorQueue, BatchLargerThanMaxQueuedIsShedWholeWithStructuredFacts) {
  util::MetricsRegistry metrics;
  ExecutorConfig config;
  config.jobs = 1;
  config.metrics = &metrics;
  config.max_queued = 2;
  Executor executor(config);

  // 3 > 2 even against an empty queue: shed whole, nothing enqueued.
  Executor::Admission shed = executor.submit(
      {zdt1_request(1), zdt1_request(2), zdt1_request(3)}, nullptr,
      Priority::kNormal, /*lane=*/0);
  EXPECT_FALSE(shed.admitted);
  EXPECT_TRUE(shed.futures.empty());
  EXPECT_EQ(shed.queue_depth, 0u);
  EXPECT_EQ(shed.retry_after_ms, executor.retry_after_hint(0));
  EXPECT_EQ(executor.queued_total(), 0u);
  EXPECT_EQ(shed_runs(metrics, Priority::kNormal), 3u);
  EXPECT_EQ(started(metrics, Priority::kNormal), 0u);
  // run_all has no way to hand back a shed decision: it throws.
  EXPECT_THROW(
      executor.run_all({zdt1_request(1), zdt1_request(2), zdt1_request(3)}),
      std::runtime_error);
  EXPECT_EQ(shed_runs(metrics, Priority::kNormal), 6u);

  // The shed batches left no residue: a batch within the bound runs fine.
  Executor::Admission ok = executor.submit(
      {zdt1_request(1), zdt1_request(2)}, nullptr, Priority::kNormal, 0);
  ASSERT_TRUE(ok.admitted);
  for (auto& future : ok.futures) {
    EXPECT_EQ(future.get().evaluations, 400u);
  }
  EXPECT_EQ(started(metrics, Priority::kNormal), 2u);
  EXPECT_EQ(shed_runs(metrics, Priority::kNormal), 6u);  // lifetime
}

TEST(ExecutorQueue, RetryAfterHintScalesWithBacklogAndClamps) {
  Executor executor({.jobs = 2});
  EXPECT_EQ(executor.retry_after_hint(0), 50u);
  EXPECT_EQ(executor.retry_after_hint(2), 100u);
  EXPECT_EQ(executor.retry_after_hint(4), 150u);
  EXPECT_EQ(executor.retry_after_hint(1000000), 5000u);  // the ceiling
}

TEST(ExecutorQueue, StopRequestedBeforeDispatchYieldsCancelledReports) {
  util::MetricsRegistry metrics;
  Executor executor({.jobs = 1, .metrics = &metrics});
  RunControl control;
  control.request_stop();
  Executor::Admission admission = executor.submit(
      {zdt1_request(1), zdt1_request(2)}, &control, Priority::kBatch, 0);
  ASSERT_TRUE(admission.admitted);
  for (auto& future : admission.futures) {
    const RunReport report = future.get();
    EXPECT_TRUE(report.provenance.cancelled);
    EXPECT_EQ(report.evaluations, 0u);
  }
  // A cancelled run still went through the queue, and counts cancelled.
  EXPECT_EQ(started(metrics, Priority::kBatch), 2u);
  EXPECT_EQ(class_count(metrics, "moela_runs_cancelled_total",
                        Priority::kBatch),
            2u);
}

TEST(ExecutorQueue, DefaultConfigNeverShedsAnInProcessBatch) {
  // 1500 runs is past the daemon's default max_queued of 1024; an
  // in-process Executor has no bound, so the whole batch is admitted.
  // The pre-stopped control makes every run a cancelled report at once.
  util::MetricsRegistry metrics;
  Executor executor({.jobs = 2, .metrics = &metrics});
  RunControl control;
  control.request_stop();
  std::vector<RunRequest> requests(1500, zdt1_request(1));
  const std::vector<RunReport> reports =
      executor.run_all(std::move(requests), &control);
  ASSERT_EQ(reports.size(), 1500u);
  for (const RunReport& report : reports) {
    EXPECT_TRUE(report.provenance.cancelled);
  }
  EXPECT_EQ(started(metrics, Priority::kNormal), 1500u);
  EXPECT_EQ(shed_runs(metrics, Priority::kNormal), 0u);
}

}  // namespace
}  // namespace moela::api
