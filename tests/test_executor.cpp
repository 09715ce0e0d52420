// Tests for the batched execution layer (src/api/): RunRequest cache keys
// and replicate expansion, the thread-pooled Executor (determinism under
// concurrency, progress, cancellation), and the two-tier ResultCache
// (memory + disk, bit-exact round-trips, design codecs).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "api/executor.hpp"
#include "api/problems.hpp"
#include "api/registry.hpp"
#include "api/request.hpp"
#include "api/result_cache.hpp"
#include "api/run_log.hpp"
#include "api/serde.hpp"
#include "noc/design.hpp"
#include "util/json.hpp"
#include "util/thread_annotations.hpp"

namespace moela::api {
namespace {

RunRequest zdt1_request(const std::string& algorithm,
                        std::uint64_t seed = 5) {
  RunRequest request;
  request.problem = "zdt1";
  request.problem_options.num_variables = 10;
  request.algorithm = algorithm;
  request.options.max_evaluations = 600;
  request.options.snapshot_interval = 200;
  request.options.seed = seed;
  request.options.population_size = 12;
  request.options.n_local = 3;
  request.options.knobs.set("moela.forest.trees", 4)
      .set("moela.forest.max_depth", 5)
      .set("moela.ls.max_evals", 30);
  return request;
}

void expect_equal_reports(const RunReport& a, const RunReport& b,
                          const std::string& context) {
  EXPECT_EQ(a.algorithm, b.algorithm) << context;
  EXPECT_EQ(a.final_front, b.final_front) << context;
  EXPECT_EQ(a.final_objectives, b.final_objectives) << context;
  EXPECT_EQ(a.evaluations, b.evaluations) << context;
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size()) << context;
  for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
    EXPECT_EQ(a.snapshots[i].evaluations, b.snapshots[i].evaluations)
        << context;
    EXPECT_EQ(a.snapshots[i].front, b.snapshots[i].front) << context;
  }
}

// --- RunRequest -----------------------------------------------------------

TEST(RunRequest, CacheKeyIsCanonical) {
  RunRequest a = zdt1_request("moela");
  RunRequest b = zdt1_request("moela");
  EXPECT_FALSE(a.cache_key().empty());
  EXPECT_EQ(a.cache_key(), b.cache_key());

  // Knob insertion order must not matter (the bag is a sorted map).
  RunRequest c = zdt1_request("moela");
  c.options.knobs = KnobBag();
  c.options.knobs.set("moela.ls.max_evals", 30)
      .set("moela.forest.max_depth", 5)
      .set("moela.forest.trees", 4);
  EXPECT_EQ(a.cache_key(), c.cache_key());
}

TEST(RunRequest, CacheKeySeparatesDifferingRequests) {
  const RunRequest base = zdt1_request("moela");
  RunRequest other = base;
  other.options.seed = 6;
  EXPECT_NE(base.cache_key(), other.cache_key());
  other = base;
  other.algorithm = "nsga2";
  EXPECT_NE(base.cache_key(), other.cache_key());
  other = base;
  other.options.knobs.set("moela.delta", 0.5);
  EXPECT_NE(base.cache_key(), other.cache_key());
  other = base;
  other.options.max_evaluations = 601;
  EXPECT_NE(base.cache_key(), other.cache_key());
  other = base;
  other.problem_options.num_variables = 12;
  EXPECT_NE(base.cache_key(), other.cache_key());
}

TEST(RunRequest, BoundOnlyProblemIsUncacheable) {
  RunRequest request;
  request.bound_problem = make_problem("zdt1");
  request.algorithm = "nsga2";
  EXPECT_TRUE(request.cache_key().empty());
  EXPECT_EQ(request.label_or_default(), "<custom>:nsga2:1");
}

TEST(RunRequest, ExpandReplicatesDerivesSeeds) {
  const RunRequest base = zdt1_request("nsga2", 7);
  const auto replicas = expand_replicates(base, 3);
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(replicas[0].options.seed, 7u);
  EXPECT_EQ(replicas[1].options.seed, 8u);
  EXPECT_EQ(replicas[2].options.seed, 9u);
  for (const auto& r : replicas) {
    EXPECT_EQ(r.algorithm, base.algorithm);
    EXPECT_EQ(r.problem, base.problem);
    // The problem instance seed stays fixed: replicates vary the search.
    EXPECT_EQ(r.problem_options.seed, base.problem_options.seed);
  }
}

// --- Executor: determinism under concurrency ------------------------------

TEST(Executor, ParallelRunsBitIdenticalToSerial) {
  std::vector<RunRequest> requests;
  for (const auto& algorithm : {"moela", "nsga2"}) {
    for (const auto& request : expand_replicates(zdt1_request(algorithm), 2)) {
      requests.push_back(request);
    }
  }

  Executor serial({.jobs = 1});
  Executor parallel({.jobs = 4});
  EXPECT_EQ(serial.jobs(), 1u);
  EXPECT_EQ(parallel.jobs(), 4u);
  const auto serial_reports = serial.run_all(requests);
  const auto parallel_reports = parallel.run_all(requests);

  ASSERT_EQ(serial_reports.size(), requests.size());
  ASSERT_EQ(parallel_reports.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_equal_reports(serial_reports[i], parallel_reports[i],
                         requests[i].label_or_default());
    EXPECT_FALSE(parallel_reports[i].final_front.empty());
    EXPECT_FALSE(parallel_reports[i].provenance.cache_hit);
  }
}

TEST(Executor, FillsProvenance) {
  Executor executor({.jobs = 2});
  const RunRequest request = zdt1_request("nsga2", 11);
  const auto reports = executor.run_all({request});
  ASSERT_EQ(reports.size(), 1u);
  const RunProvenance& p = reports[0].provenance;
  EXPECT_EQ(p.problem, "zdt1");
  EXPECT_EQ(p.algorithm_key, "nsga2");
  EXPECT_EQ(p.seed, 11u);
  EXPECT_EQ(p.cache_key, request.cache_key());
  EXPECT_FALSE(p.cache_hit);
  EXPECT_FALSE(p.cancelled);
  EXPECT_EQ(p.knobs, request.options.knobs.values());
}

TEST(Executor, BadRequestSurfacesFromTheFuture) {
  Executor executor({.jobs = 2});
  RunRequest bad = zdt1_request("nsga2");
  bad.problem = "no-such-problem";
  auto futures = executor.submit({bad}).futures;
  ASSERT_EQ(futures.size(), 1u);
  EXPECT_THROW(futures[0].get(), std::out_of_range);
}

// --- Executor: progress + cancellation ------------------------------------

TEST(Executor, ProgressEventsCoverTheBatch) {
  std::vector<RunRequest> requests{zdt1_request("nsga2", 1),
                                   zdt1_request("nsga2", 2),
                                   zdt1_request("nsga2", 3)};
  util::Mutex mutex;
  std::vector<RunProgress> finished;
  std::size_t cadence_events = 0;
  RunControl control;
  control.on_progress([&](const RunProgress& progress) {
    util::MutexLock lock(mutex);
    if (progress.finished) {
      finished.push_back(progress);
    } else {
      ++cadence_events;
      EXPECT_GT(progress.evaluations, 0u);
      EXPECT_EQ(progress.max_evaluations, 600u);
    }
  });

  Executor executor({.jobs = 2});
  executor.run_all(requests, &control);

  ASSERT_EQ(finished.size(), requests.size());
  EXPECT_GT(cadence_events, 0u);  // snapshot_interval = 200 < 600 evals
  std::set<std::size_t> completed, indices;
  for (const auto& progress : finished) {
    completed.insert(progress.completed);
    indices.insert(progress.batch_index);
    EXPECT_EQ(progress.batch_size, requests.size());
    EXPECT_TRUE(progress.finished);
  }
  // `completed` counts 1..N, each exactly once; every index reported.
  EXPECT_EQ(completed, (std::set<std::size_t>{1, 2, 3}));
  EXPECT_EQ(indices, (std::set<std::size_t>{0, 1, 2}));
}

TEST(Executor, StopBeforeStartYieldsCancelledReports) {
  RunControl control;
  control.request_stop();
  Executor executor({.jobs = 2});
  const auto reports = executor.run_all({zdt1_request("nsga2")}, &control);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].provenance.cancelled);
  EXPECT_EQ(reports[0].evaluations, 0u);
  EXPECT_TRUE(reports[0].final_front.empty());
}

TEST(Executor, MidRunStopEndsEarlyWithPartialReport) {
  RunRequest request = zdt1_request("nsga2");
  request.options.max_evaluations = 4000000;  // would take far too long
  request.options.snapshot_interval = 200;

  RunControl control;
  control.on_progress([&control](const RunProgress& progress) {
    if (!progress.finished && progress.evaluations >= 200) {
      control.request_stop();  // cancel at the first cadence event
    }
  });
  Executor executor({.jobs = 1});
  const auto reports = executor.run_all({request}, &control);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].provenance.cancelled);
  EXPECT_GE(reports[0].evaluations, 200u);
  EXPECT_LT(reports[0].evaluations, request.options.max_evaluations);
  // A cancelled run still reports the work done so far.
  EXPECT_FALSE(reports[0].final_front.empty());
}

// --- ResultCache ----------------------------------------------------------

TEST(ResultCache, MemoryTierServesRepeatsWithEqualReports) {
  ResultCache cache;  // memory only
  Executor executor({.jobs = 2, .cache = &cache});
  const RunRequest request = zdt1_request("moela");

  const auto first = executor.run_all({request});
  ASSERT_EQ(first.size(), 1u);
  EXPECT_FALSE(first[0].provenance.cache_hit);

  const auto second = executor.run_all({request});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].provenance.cache_hit);
  expect_equal_reports(first[0], second[0], "memory cache hit");
  EXPECT_EQ(first[0].final_designs.size(), second[0].final_designs.size());
  EXPECT_EQ(cache.stats().memory_hits, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);
}

TEST(ResultCache, DiskTierSurvivesAcrossCacheInstances) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "moela-disk-cache";
  std::filesystem::remove_all(dir);

  const RunRequest request = zdt1_request("nsga2");
  RunReport original;
  {
    ResultCache cache(dir.string());
    Executor executor({.jobs = 1, .cache = &cache});
    original = executor.run_all({request})[0];
    EXPECT_FALSE(original.provenance.cache_hit);
  }

  // A fresh cache (fresh process, in effect) must hit from disk,
  // bit-exactly — hexfloat serialization loses nothing.
  ResultCache cache(dir.string());
  Executor executor({.jobs = 1, .cache = &cache});
  const auto cached = executor.run_all({request})[0];
  EXPECT_TRUE(cached.provenance.cache_hit);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  expect_equal_reports(original, cached, "disk cache hit");
  EXPECT_DOUBLE_EQ(original.seconds, cached.seconds);
  // ZDT designs are real vectors: the codec round-trips them exactly.
  ASSERT_EQ(original.final_designs.size(), cached.final_designs.size());
  for (std::size_t i = 0; i < original.final_designs.size(); ++i) {
    EXPECT_EQ(original.final_designs[i].as<std::vector<double>>(),
              cached.final_designs[i].as<std::vector<double>>());
  }
  EXPECT_EQ(original.provenance.knobs, cached.provenance.knobs);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, NocDesignsRoundTripThroughDisk) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "moela-noc-cache";
  std::filesystem::remove_all(dir);

  RunRequest request;
  request.problem = "noc";
  request.problem_options.app = "BFS";
  request.problem_options.num_objectives = 3;
  request.problem_options.small_platform = true;
  request.algorithm = "nsga2";
  request.options.max_evaluations = 150;
  request.options.snapshot_interval = 0;
  request.options.population_size = 8;
  request.need_designs = true;

  RunReport original;
  {
    ResultCache cache(dir.string());
    Executor executor({.jobs = 1, .cache = &cache});
    original = executor.run_all({request})[0];
  }
  ResultCache cache(dir.string());
  Executor executor({.jobs = 1, .cache = &cache});
  const auto cached = executor.run_all({request})[0];
  EXPECT_TRUE(cached.provenance.cache_hit);
  expect_equal_reports(original, cached, "noc disk cache hit");
  const auto original_designs = original.designs_as<noc::NocDesign>();
  const auto cached_designs = cached.designs_as<noc::NocDesign>();
  ASSERT_EQ(original_designs.size(), cached_designs.size());
  ASSERT_FALSE(cached_designs.empty());
  for (std::size_t i = 0; i < original_designs.size(); ++i) {
    EXPECT_EQ(original_designs[i], cached_designs[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, NeedDesignsRejectsDisklossEntries) {
  // A report whose design type has no codec serializes as "designs none";
  // a need_designs lookup from a fresh (memory-empty) cache must treat it
  // as a miss, while a plain lookup serves the front/trace data.
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "moela-none-cache";
  std::filesystem::remove_all(dir);

  RunReport report;
  report.algorithm = "custom";
  report.evaluations = 10;
  report.final_front = {{1.0, 2.0}};
  report.final_objectives = {{1.0, 2.0}};
  report.final_designs.push_back(AnyDesign::wrap<int>(7));  // no codec

  const std::string key = "custom-key";
  {
    ResultCache cache(dir.string());
    cache.store(key, report);
    // The memory tier still holds the original, designs included.
    auto hit = cache.lookup(key, /*need_designs=*/true);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->final_designs.size(), 1u);
  }
  ResultCache fresh(dir.string());
  EXPECT_FALSE(fresh.lookup(key, /*need_designs=*/true).has_value());
  auto partial = fresh.lookup(key, /*need_designs=*/false);
  ASSERT_TRUE(partial.has_value());
  EXPECT_TRUE(partial->final_designs.empty());
  EXPECT_EQ(partial->final_front, report.final_front);
  // The plain lookup promoted the designs-less disk entry into the memory
  // tier; a need_designs lookup must still treat it as a miss.
  EXPECT_FALSE(fresh.lookup(key, /*need_designs=*/true).has_value());
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, SkipsCancelledReportsAndEmptyKeys) {
  ResultCache cache;
  RunReport cancelled;
  cancelled.provenance.cancelled = true;
  cache.store("some-key", cancelled);
  EXPECT_FALSE(cache.lookup("some-key").has_value());
  RunReport fine;
  cache.store("", fine);
  EXPECT_FALSE(cache.lookup("").has_value());
  EXPECT_EQ(cache.stats().stores, 0u);
}

TEST(ResultCacheSerialization, RoundTripsAwkwardDoubles) {
  RunReport report;
  report.algorithm = "Name With Spaces";
  report.evaluations = 42;
  report.seconds = 1.0 / 3.0;
  report.provenance.seed = 9;
  report.provenance.knobs["a.b"] = 0.1;  // not exactly representable
  report.provenance.knobs["c"] = 5e-324;  // smallest denormal
  core::ArchiveSnapshot snapshot;
  snapshot.evaluations = 21;
  snapshot.seconds = 0.123456789123456789;
  snapshot.front = {{1.0 / 7.0, -2.5e300}};
  report.snapshots.push_back(snapshot);
  report.final_front = {{0.1 + 0.2, 3.0}};
  report.final_objectives = {{0.1 + 0.2, 3.0}};

  std::string text;
  detail::write_report(text, "k", report);
  const auto back = detail::read_report(text, "k");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->algorithm, report.algorithm);
  EXPECT_EQ(back->evaluations, report.evaluations);
  EXPECT_EQ(back->seconds, report.seconds);  // bit-exact, not approximate
  EXPECT_EQ(back->provenance.knobs, report.provenance.knobs);
  ASSERT_EQ(back->snapshots.size(), 1u);
  EXPECT_EQ(back->snapshots[0].front, report.snapshots[0].front);
  EXPECT_EQ(back->final_front, report.final_front);

  // A different key (hash collision in disguise) reads as a miss.
  EXPECT_FALSE(detail::read_report(text, "other-key").has_value());
}

// --- disk-byte pins -------------------------------------------------------
// FNV-1a digests (ResultCache::hash_key) of the disk tier's entry text for
// seeded reports of every design kind plus crafted hostile values. They
// were generated from the iostream codec before it was replaced: whatever
// writes an entry must keep these bytes, so existing cache directories keep
// hitting. The helpers go through ResultCache's public API only, so the
// pins hold whatever the codec's internal signatures look like.

/// A scratch cache directory, emptied on entry and removed on exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::path(testing::TempDir()) / name) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

std::filesystem::path entry_path(const ScratchDir& dir,
                                 const std::string& key) {
  return dir.path() / (ResultCache::hash_key(key) + ".moela");
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The entry text a ResultCache writes for `report` under `key`.
std::string disk_text(const std::string& key, const RunReport& report) {
  ScratchDir dir("moela-disk-text");
  ResultCache(dir.str()).store(key, report);
  return file_bytes(entry_path(dir, key));
}

/// What a fresh process's ResultCache reads from an entry file holding
/// `text`.
std::optional<RunReport> read_entry(const std::string& key,
                                    const std::string& text) {
  ScratchDir dir("moela-read-entry");
  std::filesystem::create_directories(dir.path());
  std::ofstream(entry_path(dir, key), std::ios::binary) << text;
  return ResultCache(dir.str()).lookup(key);
}

/// `report` as a disk hit returns it, in tree-codec bytes.
std::string as_disk_hit(RunReport report, const std::string& key) {
  report.provenance.cache_key = key;
  report.provenance.cache_hit = true;
  return report_to_json(report).dump();
}

/// Pins a real run's wall-clock fields so its bytes are reproducible.
RunReport with_fixed_seconds(RunReport report) {
  report.seconds = 1.0 / 3.0;
  for (std::size_t i = 0; i < report.snapshots.size(); ++i) {
    report.snapshots[i].seconds = 0.125 * static_cast<double>(i + 1);
  }
  return report;
}

/// A seeded run of `problem` (NoC: small_3x3x3, 3 objectives).
RunReport seeded_report(const std::string& problem,
                        const std::string& algorithm) {
  RunRequest request = zdt1_request(algorithm);
  request.problem = problem;
  if (problem == "noc") {
    request.problem_options.small_platform = true;
    request.problem_options.num_objectives = 3;
    request.options.max_evaluations = 240;
    request.options.snapshot_interval = 80;
    request.need_designs = true;
  }
  Executor executor({.jobs = 1});
  return with_fixed_seconds(executor.run_all({request}).front());
}

RunReport crafted_disk_report() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RunReport report;
  report.algorithm = "Crafted  Name With Spaces ";
  report.snapshots.push_back(
      {7, -0.0, {{-0.0, 0x1p-1074}, {DBL_MAX, -DBL_MAX}}});
  report.snapshots.push_back({9, inf, {}});
  report.final_front = {{-0.0, 0x1p-1074, DBL_MAX},
                        {inf, -inf, nan},
                        {-nan, 1.0 / 3.0, -2.5e-300}};
  report.final_objectives = {{nan, -inf}, {0x1p-1074, -0.0}};
  report.final_designs = {
      AnyDesign::wrap<std::vector<double>>({-0.0, inf, -nan, DBL_MAX}),
      AnyDesign::wrap<std::vector<double>>({}),
  };
  report.evaluations = 18446744073709551615ull;
  report.seconds = nan;
  RunProvenance& p = report.provenance;
  p.problem = "zdt1";
  p.algorithm_key = "moela";
  p.seed = (1ull << 63) + 5;
  p.knobs = {{"neg.zero", -0.0}, {"denormal", 0x1p-1074},
             {"max", DBL_MAX},   {"inf", inf},
             {"minus.inf", -inf}, {"nan", nan}};
  return report;
}

struct PinnedEntry {
  const char* name;
  RunReport report;
  const char* digest;
};

std::vector<PinnedEntry> pinned_entries() {
  RunReport no_designs = seeded_report("zdt1", "moead");
  no_designs.final_designs.clear();
  return {
      {"zdt1/nsga2", seeded_report("zdt1", "nsga2"), "527091322c4066a8"},
      {"knapsack/moead", seeded_report("knapsack", "moead"),
       "fa42c989b70f57d1"},
      {"noc/nsga2", seeded_report("noc", "nsga2"), "491fff38b5f59f42"},
      {"noc/moela", seeded_report("noc", "moela"), "9af5a92a54f34a1a"},
      {"no designs", no_designs, "35377b5076b20a1b"},
      {"crafted", crafted_disk_report(), "91b7e9e255babab4"},
  };
}

TEST(ResultCacheSerialization, DiskBytesPinned) {
  const auto entries = pinned_entries();
  for (const PinnedEntry& entry : entries) {
    const std::string key = std::string("pin|") + entry.name;
    const std::string text = disk_text(key, entry.report);
    EXPECT_EQ(ResultCache::hash_key(text), entry.digest)
        << entry.name << " (" << text.size() << " bytes)";
    const auto back = read_entry(key, text);
    ASSERT_TRUE(back.has_value()) << entry.name;
    EXPECT_EQ(report_to_json(*back).dump(), as_disk_hit(entry.report, key))
        << entry.name;
  }
  // The seeded reports really carry what their names claim.
  EXPECT_EQ(entries[0].report.final_designs.front().type(),
            typeid(std::vector<double>));
  EXPECT_EQ(entries[1].report.final_designs.front().type(),
            typeid(std::vector<std::uint8_t>));
  EXPECT_EQ(entries[2].report.final_designs.front().type(),
            typeid(noc::NocDesign));
  EXPECT_EQ(entries[3].report.final_designs.front().type(),
            typeid(noc::NocDesign));
  EXPECT_TRUE(entries[4].report.final_designs.empty());
  EXPECT_FALSE(entries[0].report.snapshots.empty());
  EXPECT_FALSE(entries[0].report.provenance.knobs.empty());
}

TEST(ResultCacheSerialization, EveryPrefixIsAMiss) {
  // A truncated entry file (a crash mid-write, a full disk) must read as a
  // miss at every length, never as a hit whose last value is cut short.
  ScratchDir dir("moela-prefix-cache");
  std::filesystem::create_directories(dir.path());
  for (const PinnedEntry& entry : pinned_entries()) {
    const std::string key = std::string("pin|") + entry.name;
    const std::string text = disk_text(key, entry.report);
    const std::filesystem::path path = entry_path(dir, key);
    std::ofstream(path, std::ios::binary) << text;
    ASSERT_TRUE(ResultCache(dir.str()).lookup(key).has_value()) << entry.name;
    for (std::size_t size = text.size(); size-- > 0;) {
      std::filesystem::resize_file(path, size);
      if (ResultCache(dir.str()).lookup(key).has_value()) {
        ADD_FAILURE() << entry.name << ": the first " << size << " of "
                      << text.size() << " bytes read as a hit";
        break;
      }
    }
  }
}

TEST(ResultCacheSerialization, MalformedFieldsAreMisses) {
  // Each edit makes text the writer never writes. Each must read as a
  // miss, never as a hit with a defaulted or misread field.
  const RunReport report = seeded_report("zdt1", "nsga2");
  const std::string key = "pin|zdt1/nsga2";
  const std::string text = disk_text(key, report);
  ASSERT_TRUE(read_entry(key, text).has_value());
  const auto replaced = [&](const std::string& from, const std::string& to) {
    std::string out = text;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? out : out.replace(at, from.size(), to);
  };
  const std::string seed = "\nseed " + std::to_string(report.provenance.seed);
  const std::string evaluations =
      "\nevaluations " + std::to_string(report.evaluations);
  std::string crlf;
  for (const char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const std::string malformed[] = {
      replaced(seed + "\n", seed + "x\n"),
      replaced(seed + "\n", "\nseed \n"),
      replaced(seed + "\n", "\nseed -1\n"),
      replaced(seed + "\n", "\nseed 18446744073709551616\n"),
      replaced(evaluations + "\n", evaluations + ".0\n"),
      replaced("\nfront ", "\nfront  "),
      replaced("\nknobs ", "\nknobs  "),
      replaced("\ndesigns real ", "\ndesigns real  "),
      text + "\n",
      text + "moela-report v1\n",
      crlf,
  };
  for (std::size_t i = 0; i < std::size(malformed); ++i) {
    EXPECT_FALSE(read_entry(key, malformed[i]).has_value()) << "edit " << i;
  }
}

/// Lowers the file-size limit for its scope, with SIGXFSZ ignored so a
/// write past the limit fails with EFBIG instead of killing the process.
class ScopedFileSizeLimit {
 public:
  explicit ScopedFileSizeLimit(std::uintmax_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(bytes);
    applied_ = ::setrlimit(RLIMIT_FSIZE, &lowered) == 0;
  }
  ~ScopedFileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, previous_handler_);
  }
  ScopedFileSizeLimit(const ScopedFileSizeLimit&) = delete;
  ScopedFileSizeLimit& operator=(const ScopedFileSizeLimit&) = delete;
  bool applied() const { return applied_; }

 private:
  rlimit saved_{};
  void (*previous_handler_)(int) = SIG_DFL;
  bool applied_ = false;
};

TEST(ResultCache, FailedWritePublishesNothing) {
  // A store that cannot write its entry whole must leave nothing behind: a
  // truncated entry could read back as a hit with a cut-short last value.
  // One entry is smaller than 8 KiB and one larger, so a buffered writer
  // would fail at its final flush in one case and midway in the other.
  const struct {
    const char* key;
    RunReport report;
  } cases[] = {
      {"pin|zdt1/nsga2", seeded_report("zdt1", "nsga2")},
      {"pin|noc/nsga2", seeded_report("noc", "nsga2")},
  };
  const std::string small = disk_text(cases[0].key, cases[0].report);
  const std::string large = disk_text(cases[1].key, cases[1].report);
  ASSERT_LT(small.size(), 8192u);
  ASSERT_GT(large.size(), 8192u);
  for (const auto& c : cases) {
    const std::string text = disk_text(c.key, c.report);
    for (const std::uintmax_t limit : {text.size() - 1, text.size() / 2}) {
      ScratchDir dir("moela-fsize-cache");
      {
        ScopedFileSizeLimit scoped(limit);
        ASSERT_TRUE(scoped.applied());
        ResultCache(dir.str()).store(c.key, c.report);
      }
      EXPECT_FALSE(ResultCache(dir.str()).lookup(c.key).has_value())
          << c.key << " under a " << limit << "-byte limit";
      EXPECT_TRUE(!std::filesystem::exists(dir.path()) ||
                  std::filesystem::is_empty(dir.path()))
          << c.key << " under a " << limit << "-byte limit left a file";
      // Without the limit, the same store publishes the whole entry.
      ResultCache(dir.str()).store(c.key, c.report);
      EXPECT_EQ(file_bytes(entry_path(dir, c.key)), text) << c.key;
    }
  }
}

// --- Knob-key declarations ------------------------------------------------

TEST(KnobKeys, BuiltinsDeclareTheirKeys) {
  const auto moela_keys = registry().knob_keys("moela");
  EXPECT_NE(std::find(moela_keys.begin(), moela_keys.end(), "moela.delta"),
            moela_keys.end());
  EXPECT_NE(std::find(moela_keys.begin(), moela_keys.end(),
                      "moela.forest.trees"),
            moela_keys.end());
  for (const auto& name : registry().names()) {
    EXPECT_FALSE(registry().knob_keys(name).empty()) << name;
  }
}

TEST(KnobKeys, UnknownKnobKeysFlagsTyposOnly) {
  KnobBag knobs;
  knobs.set("moela.delta", 0.9)          // recognized by moela
      .set("nsga2.max_generations", 50)  // recognized by nsga2
      .set("moela.detla", 0.5);          // typo: recognized by nobody
  const auto unknown =
      registry().unknown_knob_keys(knobs, {"moela", "nsga2"});
  EXPECT_EQ(unknown, std::vector<std::string>{"moela.detla"});
}

TEST(KnobKeys, UndeclaredOptimizerSuppressesWarnings) {
  // An optimizer registered without declared keys may accept anything, so
  // the check must stay silent rather than cry wolf.
  registry().add("test-undeclared-opt", [](AnyProblem p) {
    return registry().create("nsga2", std::move(p));
  });
  KnobBag knobs;
  knobs.set("whatever.key", 1.0);
  EXPECT_TRUE(
      registry().unknown_knob_keys(knobs, {"test-undeclared-opt"}).empty());
}

// --- ResultCache: disk size cap / LRU eviction ----------------------------

TEST(ResultCache, DiskTierEvictsLeastRecentlyUsed) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "moela-lru-cache";
  fs::remove_all(dir);

  RunReport report;
  report.algorithm = "X";
  report.final_front = {{1.0, 2.0}};
  report.final_objectives = {{1.0, 2.0}};
  report.evaluations = 10;

  ResultCache writer(dir.string());
  writer.set_max_disk_bytes(0);  // no cap while seeding
  writer.store("key-a", report);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  writer.store("key-b", report);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto entry_bytes = fs::file_size(
      dir / (ResultCache::hash_key("key-a") + ".moela"));

  // Touch key-a from a FRESH cache (disk hit → recency bump); the memory
  // tier of `writer` would otherwise satisfy the lookup without touching
  // the file.
  {
    ResultCache reader(dir.string());
    EXPECT_TRUE(reader.lookup("key-a").has_value());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // Cap fits two entries; storing the third must evict the least recently
  // USED one — key-b, not the just-bumped key-a.
  writer.set_max_disk_bytes(entry_bytes * 2 + entry_bytes / 2);
  writer.store("key-c", report);
  EXPECT_GE(writer.stats().evictions, 1u);

  ResultCache reader(dir.string());
  EXPECT_TRUE(reader.lookup("key-a").has_value());
  EXPECT_FALSE(reader.lookup("key-b").has_value());
  EXPECT_TRUE(reader.lookup("key-c").has_value());
}

TEST(ResultCache, OversizedSingleEntryEvictsWithoutLooping) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "moela-oversize-cache";
  fs::remove_all(dir);

  RunReport report;
  report.algorithm = "X";
  report.final_front = {{1.0, 2.0}, {3.0, 4.0}};
  report.final_objectives = {{1.0, 2.0}, {3.0, 4.0}};
  report.evaluations = 10;

  ResultCache cache(dir.string());
  cache.set_max_disk_bytes(1);  // any real entry busts the cap by itself
  // Must terminate (the "keep the just-written entry" rule yields to a
  // cap the entry alone exceeds — no retry/eviction loop) and must count
  // exactly the one eviction.
  cache.store("too-big", report);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(
      fs::exists(dir / (ResultCache::hash_key("too-big") + ".moela")));

  // The memory tier is uncapped: the report is still served in-process.
  EXPECT_TRUE(cache.lookup("too-big").has_value());
  // A fresh cache (disk only) correctly misses.
  ResultCache reader(dir.string());
  EXPECT_FALSE(reader.lookup("too-big").has_value());

  // Repeated oversized stores keep evicting one file each, never more.
  cache.store("too-big-2", report);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ResultCache, ZeroCapDisablesEvictionEntirely) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "moela-nocap-cache";
  fs::remove_all(dir);

  RunReport report;
  report.algorithm = "X";
  report.final_front = {{1.0, 2.0}};
  report.final_objectives = {{1.0, 2.0}};
  report.evaluations = 10;

  ResultCache cache(dir.string());
  cache.set_max_disk_bytes(0);  // 0 = no cap, NOT "evict everything"
  for (int i = 0; i < 5; ++i) {
    cache.store("key-" + std::to_string(i), report);
  }
  EXPECT_EQ(cache.stats().stores, 5u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(fs::exists(
        dir / (ResultCache::hash_key("key-" + std::to_string(i)) +
               ".moela")))
        << i;
  }
}

// --- Executor: per-run structured logs ------------------------------------

TEST(Executor, RunLogWritesOneJsonlRecordPerRun) {
  namespace fs = std::filesystem;
  const fs::path path = fs::path(testing::TempDir()) / "moela-run-log.jsonl";
  fs::remove(path);

  RunLogger logger(path.string());
  ASSERT_TRUE(logger.ok());
  std::vector<RunRequest> requests = {zdt1_request("moela", 5),
                                      zdt1_request("nsga2", 6)};
  RunRequest bad = zdt1_request("moela", 7);
  bad.algorithm = "no-such-algorithm";
  requests.push_back(bad);
  for (RunRequest& request : requests) {
    request.trace_id = "00deadbeef00cafe";
  }

  ExecutorConfig config;
  config.jobs = 2;
  config.run_log = &logger;
  Executor executor(config);
  auto futures = executor.submit(std::move(requests)).futures;
  EXPECT_NO_THROW(futures[0].get());
  EXPECT_NO_THROW(futures[1].get());
  EXPECT_THROW(futures[2].get(), std::exception);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t ok_records = 0, error_records = 0;
  while (std::getline(in, line)) {
    const util::Json record = util::Json::parse(line);  // valid JSON/line
    // Every record is versioned, timestamped (ISO-8601), and — when the
    // request carried one — trace-correlated, ok and error alike.
    EXPECT_EQ(record.find("v")->as_u64(), 1u);
    const std::string time = record.find("time")->as_string();
    EXPECT_EQ(time.size(), std::string("2026-01-01T00:00:00Z").size());
    EXPECT_EQ(time.back(), 'Z');
    ASSERT_NE(record.find("trace"), nullptr);
    EXPECT_EQ(record.find("trace")->as_string(), "00deadbeef00cafe");
    const std::string status = record.find("status")->as_string();
    if (status == "ok") {
      ++ok_records;
      EXPECT_EQ(record.find("evaluations")->as_u64(), 600u);
      EXPECT_FALSE(record.find("cache_hit")->as_bool());
      EXPECT_FALSE(record.find("label")->as_string().empty());
    } else {
      ++error_records;
      EXPECT_EQ(status, "error");
      EXPECT_NE(record.find("error")->as_string().find("no-such-algorithm"),
                std::string::npos);
    }
  }
  EXPECT_EQ(ok_records, 2u);
  EXPECT_EQ(error_records, 1u);
}

}  // namespace
}  // namespace moela::api
