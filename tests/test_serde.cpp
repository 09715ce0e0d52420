// Tests for the RunRequest / RunReport JSON serde (api/serde.hpp): full
// field round-trips (including knobs, problem options, provenance and the
// three design codecs), bit-exact doubles through the wire form, and the
// validation errors for malformed requests.
#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/serde.hpp"
#include "noc/design.hpp"
#include "noc/generator.hpp"
#include "noc/platform.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace moela::api {
namespace {

using util::Json;

RunRequest sample_request() {
  RunRequest request;
  request.problem = "noc";
  request.problem_options.num_objectives = 5;
  request.problem_options.num_variables = 7;
  request.problem_options.seed = 3;
  request.problem_options.app = "SRAD";
  request.problem_options.small_platform = true;
  request.algorithm = "moela";
  request.options.max_evaluations = 1234;
  request.options.max_seconds = 1.0 / 3.0;  // not representable in decimal
  request.options.snapshot_interval = 77;
  request.options.seed = (1ull << 60) + 9;  // above double's exact range
  request.options.population_size = 24;
  request.options.n_local = 4;
  request.options.knobs.set("moela.delta", 0.9).set("moela.forest.trees", 8);
  request.need_designs = true;
  request.label = "unit:test";
  return request;
}

TEST(RequestSerde, RoundTripsEveryField) {
  const RunRequest original = sample_request();
  const RunRequest back =
      request_from_json(Json::parse(request_to_json(original).dump()));

  EXPECT_EQ(back.problem, original.problem);
  EXPECT_EQ(back.algorithm, original.algorithm);
  EXPECT_EQ(back.problem_options.num_objectives,
            original.problem_options.num_objectives);
  EXPECT_EQ(back.problem_options.num_variables,
            original.problem_options.num_variables);
  EXPECT_EQ(back.problem_options.seed, original.problem_options.seed);
  EXPECT_EQ(back.problem_options.app, original.problem_options.app);
  EXPECT_EQ(back.problem_options.small_platform,
            original.problem_options.small_platform);
  EXPECT_EQ(back.options.max_evaluations, original.options.max_evaluations);
  EXPECT_EQ(back.options.max_seconds, original.options.max_seconds);
  EXPECT_EQ(back.options.snapshot_interval,
            original.options.snapshot_interval);
  EXPECT_EQ(back.options.seed, original.options.seed);
  EXPECT_EQ(back.options.population_size, original.options.population_size);
  EXPECT_EQ(back.options.n_local, original.options.n_local);
  EXPECT_EQ(back.options.knobs.values(), original.options.knobs.values());
  EXPECT_EQ(back.need_designs, original.need_designs);
  EXPECT_EQ(back.label, original.label);

  // The decisive invariant: identical cache keys, so a request routed
  // through the daemon hits the same cache entries as an inline one.
  EXPECT_EQ(back.cache_key(), original.cache_key());
}

TEST(RequestSerde, DefaultsApplyForAbsentFields) {
  const RunRequest back = request_from_json(
      Json::parse(R"({"problem":"zdt1","algorithm":"nsga2"})"));
  const RunRequest defaults;
  EXPECT_EQ(back.options.max_evaluations, defaults.options.max_evaluations);
  EXPECT_EQ(back.options.seed, defaults.options.seed);
  EXPECT_EQ(back.problem_options.app, defaults.problem_options.app);
  EXPECT_FALSE(back.need_designs);
}

TEST(RequestSerde, PlainDecimalNumbersAreAccepted) {
  // Hand-written requests use ordinary literals, not hexfloat strings.
  const RunRequest back = request_from_json(Json::parse(
      R"({"problem":"zdt1","algorithm":"moela",
          "options":{"seconds":1.5,"knobs":{"moela.delta":0.25}}})"));
  EXPECT_EQ(back.options.max_seconds, 1.5);
  EXPECT_EQ(back.options.knobs.get_or("moela.delta", 0.0), 0.25);
}

TEST(RequestSerde, RejectsMissingProblemOrAlgorithm) {
  EXPECT_THROW(request_from_json(Json::parse(R"({"algorithm":"x"})")),
               util::JsonError);
  EXPECT_THROW(request_from_json(Json::parse(R"({"problem":"zdt1"})")),
               util::JsonError);
  EXPECT_THROW(
      request_from_json(Json::parse(
          R"({"problem":"zdt1","algorithm":"x","options":{"evals":"NaN"}})")),
      util::JsonError);
}

TEST(ReportSerde, PriorityProvenanceRoundTripsAndDefaults) {
  RunReport original;
  original.algorithm = "hand-built";
  original.provenance.priority = "interactive";
  const RunReport back =
      report_from_json(Json::parse(report_to_json(original).dump()));
  EXPECT_EQ(back.provenance.priority, "interactive");

  // A report from a peer predating the scheduler carries no priority
  // field: the default class stands instead of an empty string.
  const RunReport legacy = report_from_json(
      Json::parse(R"({"algorithm":"x","provenance":{"seed":1}})"));
  EXPECT_EQ(legacy.provenance.priority, "normal");
}

void expect_bit_identical(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.final_front, b.final_front);
  EXPECT_EQ(a.final_objectives, b.final_objectives);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.seconds, b.seconds);
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
    EXPECT_EQ(a.snapshots[i].evaluations, b.snapshots[i].evaluations);
    EXPECT_EQ(a.snapshots[i].seconds, b.snapshots[i].seconds);
    EXPECT_EQ(a.snapshots[i].front, b.snapshots[i].front);
  }
  EXPECT_EQ(a.provenance.problem, b.provenance.problem);
  EXPECT_EQ(a.provenance.algorithm_key, b.provenance.algorithm_key);
  EXPECT_EQ(a.provenance.seed, b.provenance.seed);
  EXPECT_EQ(a.provenance.knobs, b.provenance.knobs);
  EXPECT_EQ(a.provenance.cache_key, b.provenance.cache_key);
  EXPECT_EQ(a.provenance.cache_hit, b.provenance.cache_hit);
  EXPECT_EQ(a.provenance.cancelled, b.provenance.cancelled);
  EXPECT_EQ(a.provenance.priority, b.provenance.priority);
}

/// Runs a real optimizer so the report carries genuine snapshots, fronts
/// and designs of the given problem family.
RunReport run_report(const std::string& problem, const std::string& algo) {
  RunRequest request;
  request.problem = problem;
  request.algorithm = algo;
  request.options.max_evaluations = 400;
  request.options.snapshot_interval = 100;
  request.options.population_size = 12;
  request.options.n_local = 2;
  Executor executor({.jobs = 1});
  return executor.run_all({request}).front();
}

TEST(ReportSerde, RealDesignsRoundTripBitIdentical) {
  const RunReport original = run_report("zdt1", "nsga2");
  ASSERT_FALSE(original.final_designs.empty());
  const RunReport back =
      report_from_json(Json::parse(report_to_json(original).dump()));
  expect_bit_identical(original, back);
  EXPECT_EQ(back.designs_as<std::vector<double>>(),
            original.designs_as<std::vector<double>>());
}

TEST(ReportSerde, BinaryDesignsRoundTrip) {
  const RunReport original = run_report("knapsack", "nsga2");
  ASSERT_FALSE(original.final_designs.empty());
  const RunReport back =
      report_from_json(Json::parse(report_to_json(original).dump()));
  expect_bit_identical(original, back);
  EXPECT_EQ(back.designs_as<std::vector<std::uint8_t>>(),
            original.designs_as<std::vector<std::uint8_t>>());
}

TEST(ReportSerde, NocDesignsRoundTrip) {
  RunReport original;
  original.algorithm = "hand-built";
  const noc::PlatformSpec spec = noc::PlatformSpec::small_3x3x3();
  const noc::DesignOps ops(spec);
  util::Rng rng(7);
  original.final_designs.push_back(
      AnyDesign::wrap<noc::NocDesign>(ops.random_design(rng)));
  original.final_objectives.push_back({1.0, 2.0});
  const RunReport back =
      report_from_json(Json::parse(report_to_json(original).dump()));
  ASSERT_EQ(back.final_designs.size(), 1u);
  EXPECT_EQ(back.designs_as<noc::NocDesign>().front(),
            original.designs_as<noc::NocDesign>().front());
}

TEST(ReportSerde, UnknownDesignTypeDegradesToNone) {
  RunReport original;
  original.algorithm = "custom";
  original.final_designs.push_back(AnyDesign::wrap<int>(7));
  const RunReport back =
      report_from_json(Json::parse(report_to_json(original).dump()));
  EXPECT_TRUE(back.final_designs.empty());  // payload dropped, not garbled
  EXPECT_EQ(back.algorithm, "custom");
}


// --- wire-byte pins ------------------------------------------------------
// FNV-1a digests of report_to_json(r).dump() for seeded reports of every
// design kind plus crafted hostile values. The digests were generated from
// the DOM encoder before any streaming codec existed: whatever encodes a
// report for the wire must keep these bytes.

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Pins a real run's wall-clock fields so its bytes are reproducible.
RunReport with_fixed_seconds(RunReport report) {
  report.seconds = 1.0 / 3.0;
  for (std::size_t i = 0; i < report.snapshots.size(); ++i) {
    report.snapshots[i].seconds = 0.125 * static_cast<double>(i + 1);
  }
  return report;
}

RunReport noc_report() {
  RunRequest request;
  request.problem = "noc";
  request.problem_options.small_platform = true;
  request.problem_options.num_objectives = 3;
  request.algorithm = "nsga2";
  request.options.max_evaluations = 240;
  request.options.snapshot_interval = 80;
  request.options.population_size = 12;
  request.need_designs = true;
  Executor executor({.jobs = 1});
  return executor.run_all({request}).front();
}

RunReport cancelled_report() {
  RunRequest request;
  request.problem = "zdt1";
  request.problem_options.num_variables = 8;
  request.algorithm = "nsga2";
  request.options.max_evaluations = 4000;
  request.options.snapshot_interval = 100;
  request.options.population_size = 12;
  // The stop is raised from the run's own thread at its second snapshot,
  // so the partial report always ends at the same budget check.
  RunControl control;
  control.on_progress([&control](const RunProgress& progress) {
    if (progress.evaluations >= 200) control.request_stop();
  });
  Executor executor({.jobs = 1});
  return executor.run_all({request}, &control).front();
}

RunReport crafted_report() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RunReport report;
  report.algorithm = "crafted \"name\" \\ \n\x01 \xc3\xa9\xf0\x9f\x98\x80";
  report.snapshots.push_back(
      {7, -0.0, {{-0.0, 0x1p-1074}, {DBL_MAX, -DBL_MAX}}});
  report.snapshots.push_back({9, inf, {}});
  report.final_front = {{-0.0, 0x1p-1074, DBL_MAX},
                        {inf, -inf, nan},
                        {-nan, 1.0 / 3.0, -2.5e-300}};
  report.final_objectives = {{nan}, {}};
  report.evaluations = 18446744073709551615ull;
  report.seconds = nan;
  RunProvenance& p = report.provenance;
  p.problem = "zdt1";
  p.algorithm_key = "moela";
  p.seed = (1ull << 63) + 5;
  p.knobs = {{"q\"uote", -0.0},
             {"back\\slash", 0x1p-1074},
             {"new\nline", DBL_MAX},
             {"ctl\x01\x1f", inf},
             {"\xc3\xa9t\xc3\xa9", -inf},
             {"nan", nan}};
  p.cache_key = "k|\"\\\n";
  p.cache_hit = true;
  p.cancelled = true;
  p.priority = "batch";
  p.trace_id = "t\"\\\n\x02\xe2\x82\xac";
  return report;
}

TEST(ReportSerde, WireBytesPinned) {
  RunReport no_designs = with_fixed_seconds(run_report("zdt1", "moead"));
  no_designs.final_designs.clear();
  const struct {
    const char* name;
    RunReport report;
    std::uint64_t digest;
  } cases[] = {
      {"zdt1/nsga2", with_fixed_seconds(run_report("zdt1", "nsga2")),
       0x75c7dc8d5702a42dull},
      {"knapsack/moead", with_fixed_seconds(run_report("knapsack", "moead")),
       0x85e431eebbe69ca8ull},
      {"noc/nsga2", with_fixed_seconds(noc_report()), 0xa2229708cabe33f5ull},
      {"no designs", no_designs, 0xb5fb6ffaf7a43a37ull},
      {"cancelled", with_fixed_seconds(cancelled_report()),
       0x40388cf22014f440ull},
      {"crafted", crafted_report(), 0x2e2d4944af0df474ull},
  };
  for (const auto& c : cases) {
    const std::string bytes = report_to_json(c.report).dump();
    EXPECT_EQ(fnv1a(bytes), c.digest)
        << c.name << " (" << bytes.size() << " bytes)";
  }
  // The seeded reports really carry what their names claim.
  EXPECT_FALSE(cases[0].report.final_designs.empty());
  EXPECT_FALSE(cases[1].report.final_designs.empty());
  EXPECT_FALSE(cases[2].report.final_designs.empty());
  EXPECT_FALSE(cases[0].report.snapshots.empty());
  EXPECT_TRUE(cases[4].report.provenance.cancelled);
  EXPECT_LT(cases[4].report.evaluations, 4000u);
}

// --- the streaming codec -------------------------------------------------

TEST(ReportSerde, StreamingEncoderWritesTheDomBytes) {
  RunReport unknown_type;
  unknown_type.final_designs.push_back(AnyDesign::wrap<int>(7));
  const RunReport reports[] = {
      run_report("zdt1", "nsga2"), run_report("knapsack", "moead"),
      noc_report(),                cancelled_report(),
      crafted_report(),            RunReport{},
      unknown_type,
  };
  for (const RunReport& report : reports) {
    std::string streamed = "prefix";
    append_report_json(streamed, report);
    EXPECT_EQ(streamed, "prefix" + report_to_json(report).dump());
  }
}

/// parse_report_json's outcome next to the DOM decoder's, as DOM bytes or
/// "JsonError".
std::string decode_outcome(bool streamed, const std::string& text) {
  try {
    const RunReport report = streamed
                                 ? parse_report_json(text)
                                 : report_from_json(Json::parse(text));
    return report_to_json(report).dump();
  } catch (const util::JsonError&) {
    return "JsonError";
  }
}

TEST(ReportSerde, StreamingDecoderMatchesDomOnRepeatedAndMistypedKeys) {
  const std::string real = report_to_json(run_report("zdt1", "nsga2")).dump();
  const struct {
    std::string text;
    bool accepted;
  } cases[] = {
      {real, true},
      // A repeated key keeps its last value; an earlier bad one is moot.
      {R"({"snapshots":"bad","snapshots":[{"evaluations":4}]})", true},
      {R"({"snapshots":[{"evaluations":4}],"snapshots":"bad"})", false},
      {R"({"provenance":{"seed":5},"provenance":{"problem":"p"}})", true},
      {R"({"provenance":{"knobs":{"k":"x","k":"0x1p+0"}}})", true},
      {R"({"evaluations":1.5,"evaluations":2})", true},
      {R"({"designs":{"kind":7,"kind":"none","values":"x"}})", true},
      // A non-object provenance, snapshot or report reads as absent.
      {R"({"algorithm":"a","provenance":"string"})", true},
      {R"({"snapshots":[1,"x",{"seconds":"0x1p-1"}]})", true},
      {"[1,2]", true},
      // "values" reads by the last "kind", in whichever order they come.
      {R"({"designs":{"values":[["0x1p+0",2]],"kind":"real"}})", true},
      {R"({"designs":{"kind":"binary","values":[[1,0]],"kind":"real"}})",
       true},
      {R"({"designs":{"kind":"real","values":[[true]],"kind":"none"}})",
       true},
      {R"({"designs":{"kind":"real","values":[[true]]}})", false},
      {R"({"designs":{"kind":"bogus","values":[]}})", false},
      {R"({"designs":{"kind":"noc","values":["garbage"]}})", false},
      // Wrong shapes and malformed text.
      {R"({"provenance":{"cache_hit":"yes"}})", false},
      {R"({"final_front":[["0x1p+0"],"row"]})", false},
      {R"({"algorithm":"a"} trailing)", false},
      {R"({"unknown":[1,}]})", false},
  };
  for (const auto& c : cases) {
    const std::string tree = decode_outcome(false, c.text);
    EXPECT_EQ(decode_outcome(true, c.text), tree) << c.text;
    EXPECT_EQ(tree != "JsonError", c.accepted) << c.text;
  }
  // The first repeated-key case kept the last snapshots, not the bad ones.
  EXPECT_EQ(parse_report_json(cases[1].text).snapshots.size(), 1u);
  EXPECT_EQ(parse_report_json(cases[3].text).provenance.seed, 0u);
}

}  // namespace
}  // namespace moela::api
