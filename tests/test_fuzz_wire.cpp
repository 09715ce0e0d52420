// Deterministic fuzz smoke for the wire surface: mutated line-JSON frames
// are fed to util::Json parsing and the serve-protocol request decoders for
// a bounded iteration count. The contract under fuzz: no crash, no hang,
// no sanitizer report (CI runs this suite under ASan+UBSan and TSan), and
// malformed input is rejected with JsonError/false — never accepted
// half-parsed. Seeds are fixed, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "api/executor.hpp"
#include "api/request.hpp"
#include "api/serde.hpp"
#include "api/snapshot.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace moela {
namespace {

using util::Json;

// Valid frames drawn from docs/protocol.md — mutations start from realistic
// input so they explore deep parser states, not just the first bad byte.
const char* const kSeedFrames[] = {
    R"({"id":1,"verb":"ping"})",
    R"({"id":2,"verb":"list_algorithms"})",
    R"({"id":4,"verb":"cache_stats"})",
    R"({"id":6,"verb":"health"})",
    R"({"id":7,"verb":"cancel","target":5})",
    R"({"id":8,"verb":"shutdown"})",
    R"({"id":5,"verb":"run","progress":true,"requests":[{"problem":"zdt1",)"
    R"("algorithm":"moela","options":{"max_evaluations":2000,"seed":41,)"
    R"("max_seconds":"0x1.5555555555555p-2","knobs":{"moela.delta":)"
    R"("0x1.ccccccccccccdp-1"}},"problem_options":{"num_objectives":2,)"
    R"("num_variables":30,"seed":3,"app":"BFS","small_platform":false},)"
    R"("label":"fuzz","need_designs":true,"replicates":3}]})",
    R"({"id":5,"event":"progress","label":"fuzz","algorithm":"moela",)"
    R"("evaluations":100,"max_evaluations":2000,"seconds":"0x1p-3"})",
    R"({"id":5,"ok":true,"reports":[{"algorithm":"moela","evaluations":7,)"
    R"("seconds":"0x1.8p+1","front":[["0x1p+0","0x1p-1"]],"trace":[]}]})",
    R"([0.125,1e-3,123456789012345678,-0.0,"0x1.91eb851eb851fp+1",null])",
    R"({"nested":{"a":[{"b":[{"c":[1,2,3]}]}]},"u":"é😀"})",
    // Written by request_to_json and report_to_json from real values, so
    // mutations reach the decoders' budget, seconds, knob and report
    // fields (the hand-written run frame above names options the request
    // decoder ignores).
    R"({"id":5,"progress":true,"requests":[{"algorithm":"moela","checkpoint":)"
    R"(false,"label":"fuzz","need_designs":true,"options":{"evals":2000,"knob)"
    R"(s":{"moela.delta":"0x1.ccccccccccccdp-1","moela.forest.trees":"0x1p+3")"
    R"(},"n_local":5,"pop":50,"seconds":"0x1.5555555555555p-2","seed":41,"sna)"
    R"(pshot":500},"problem":"zdt1","problem_options":{"app":"BFS","objective)"
    R"(s":2,"seed":3,"small_platform":false,"variables":30},"trace":"9f2c51a0)"
    R"(7be4d380"}],"verb":"run"})",
    R"({"algorithm":"NSGA-II","designs":{"kind":"real","values":[["0x1.67f26c)"
    R"(28dc07dp-1","0x1.6c8c3afef3a2p-1","0x1.2588e363172c8p-3"],["0x1.2531bb)"
    R"(74715cp-5","0x1.ab203ae29597p-2","0x1.41af7629b35d9p-3"],["0x1.67f26c2)"
    R"(8dc07dp-1","0x1.6c8c3afef3a2p-1","0x1.260918937fedp-3"],["0x1.23004ef8)"
    R"(df51p-4","0x1.865537311ec7ap-2","0x1.b5ce0781f606dp-1"]]},"evaluations)"
    R"(":12,"final_front":[["0x1.67f26c28dc07dp-1","0x1.8057877d04f5cp+1"],[")"
    R"(0x1.2531bb74715cp-5","0x1.9ce3d245ae6b5p+1"]],"final_objectives":[["0x)"
    R"(1.67f26c28dc07dp-1","0x1.8057877d04f5cp+1"],["0x1.2531bb74715cp-5","0x)"
    R"(1.9ce3d245ae6b5p+1"],["0x1.67f26c28dc07dp-1","0x1.8074b92182a5cp+1"],[)"
    R"("0x1.23004ef8df51p-4","0x1.78580690527c6p+2"]],"provenance":{"algorith)"
    R"(m_key":"nsga2","cache_hit":false,"cache_key":"moela-run-v2|problem=zdt)"
    R"(1|objectives=0|variables=3|instance_seed=1|app=BFS|small=0|algorithm=n)"
    R"(sga2|evals=12|seconds=0x0p+0|snapshot=6|seed=1|pop=4|n_local=5|knobs=")"
    R"(,"cancelled":false,"knobs":{},"priority":"normal","problem":"zdt1","se)"
    R"(ed":1,"trace":""},"seconds":"0x1p-3","snapshots":[{"evaluations":1,"fr)"
    R"(ont":[["0x1.67e55eda1f8e2p-1","0x1.f139d6103e03p+1"]],"seconds":"0x1p-)"
    R"(4"},{"evaluations":7,"front":[["0x1.67e55eda1f8e2p-1","0x1.f139d6103e0)"
    R"(3p+1"],["0x1.90b871ef099a8p-2","0x1.b525b4e6ed02dp+1"],["0x1.23004ef8d)"
    R"(f51p-4","0x1.7ba35fae37506p+2"],["0x1.1a79b718754b6p-1","0x1.cdb554d85)"
    R"(6bd1p+2"]],"seconds":"0x1p-4"},{"evaluations":12,"front":[["0x1.67f26c)"
    R"(28dc07dp-1","0x1.8057877d04f5cp+1"],["0x1.2531bb74715cp-5","0x1.9ce3d2)"
    R"(45ae6b5p+1"]],"seconds":"0x1p-4"}]})",
};

std::string mutate(const std::string& input, util::Rng& rng) {
  std::string out = input;
  const int edits = 1 + static_cast<int>(rng.below(4));
  for (int e = 0; e < edits; ++e) {
    if (out.empty()) {
      out.push_back(static_cast<char>(rng.below(256)));
      continue;
    }
    switch (rng.below(5)) {
      case 0:  // flip one byte
        out[rng.below(out.size())] =
            static_cast<char>(rng.below(256));
        break;
      case 1:  // insert a structural byte where it hurts
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(out.size() + 1)),
                   "{}[]\",:\\0x"[rng.below(10)]);
        break;
      case 2:  // delete a short span
        {
          const std::size_t at = rng.below(out.size());
          out.erase(at, 1 + rng.below(4));
        }
        break;
      case 3:  // truncate
        out.resize(rng.below(out.size() + 1));
        break;
      case 4:  // splice a random seed frame's tail onto a prefix
        {
          const std::string& other =
              kSeedFrames[rng.below(std::size(kSeedFrames))];
          const std::size_t cut = rng.below(out.size() + 1);
          out = out.substr(0, cut) +
                std::string(other).substr(
                    rng.below(std::string(other).size() + 1));
        }
        break;
    }
  }
  return out;
}

TEST(FuzzWire, JsonParserSurvivesMutatedFrames) {
  util::Rng rng(0xF00DD00Dull);
  std::size_t accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string& seed = kSeedFrames[rng.below(std::size(kSeedFrames))];
    const std::string frame = mutate(seed, rng);
    std::string error;
    const auto parsed = Json::try_parse(frame, &error);
    if (!parsed) {
      EXPECT_FALSE(error.empty()) << "rejection must carry a message";
      continue;
    }
    ++accepted;
    // Anything accepted must round-trip deterministically: dump is a fixed
    // point after one hop.
    const std::string once = parsed->dump();
    const std::string twice = Json::parse(once).dump();
    ASSERT_EQ(once, twice) << frame;
  }
  // Mutations keep many frames valid; make sure the deep-parse branch
  // actually ran instead of every input dying in the tokenizer.
  EXPECT_GT(accepted, 100u);
}

TEST(FuzzWire, RequestDecoderSurvivesMutatedFrames) {
  util::Rng rng(0xCAFEF00Dull);
  const std::string run_frame = kSeedFrames[6];
  std::size_t decoded = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string frame = mutate(run_frame, rng);
    const auto parsed = Json::try_parse(frame);
    if (!parsed) continue;
    const Json* requests = parsed->find("requests");
    if (requests == nullptr || !requests->is_array()) continue;
    for (const Json& entry : requests->as_array()) {
      try {
        const api::RunRequest request = api::request_from_json(entry);
        // A decoded request must survive keying and re-encoding.
        (void)request.cache_key();
        (void)api::request_to_json(request).dump();
        ++decoded;
      } catch (const util::JsonError&) {
        // Expected rejection path for malformed requests.
      }
    }
  }
  EXPECT_GT(decoded, 50u);
}

TEST(FuzzWire, SnapshotDecoderSurvivesMutatedBlobs) {
  // The checkpoint decoder guards the resume path: a truncated or mutated
  // snapshot file (crashed daemon, torn disk, hostile client) must be a
  // clean JsonError — never a crash, never a half-accepted journal that
  // would replay a run from garbage.
  api::RunRequest request;
  request.problem = "zdt1";
  request.problem_options.num_variables = 10;
  request.algorithm = "moela";
  request.options.max_evaluations = 16;
  request.options.seed = 7;
  api::RunSnapshot seed_snapshot;
  seed_snapshot.fingerprint = api::snapshot_fingerprint(request);
  seed_snapshot.journal = {{0.5, 2.25}, {0.125, 3.0}, {1.0 / 3.0, 0.75}};
  seed_snapshot.evaluations = seed_snapshot.journal.size();
  const std::string seed_text = api::snapshot_to_text(seed_snapshot);

  // The unmutated seed must decode — a broken happy path would make every
  // mutant's rejection vacuous.
  EXPECT_EQ(api::snapshot_from_text(seed_text).journal,
            seed_snapshot.journal);

  util::Rng rng(0xD15EA5E5ull);
  std::size_t rejected = 0;
  for (int i = 0; i < 30000; ++i) {
    const std::string blob = mutate(seed_text, rng);
    try {
      const api::RunSnapshot snapshot = api::snapshot_from_text(blob);
      // The FNV checksum over the canonical payload makes surviving a
      // content mutation astronomically unlikely: anything accepted must
      // be internally consistent and a byte-exact round-trip fixed point.
      ASSERT_EQ(snapshot.evaluations, snapshot.journal.size()) << blob;
      const std::string re = api::snapshot_to_text(snapshot);
      ASSERT_EQ(api::snapshot_from_text(re).journal, snapshot.journal)
          << blob;
    } catch (const util::JsonError&) {
      ++rejected;  // the only acceptable failure mode
    }
  }
  EXPECT_GT(rejected, 25000u);
}

TEST(FuzzWire, EndpointParserSurvivesMutatedSpecs) {
  util::Rng rng(0xBEEFCAFEull);
  const std::string seeds[] = {"127.0.0.1:7313", ":7313", "host",  "7313",
                               "[::1]:7313",     "a:b:c", ":::::", ""};
  for (int i = 0; i < 5000; ++i) {
    std::string spec = mutate(seeds[rng.below(std::size(seeds))], rng);
    std::string host;
    int port = 0;
    if (serve::parse_host_port(spec, host, port)) {
      EXPECT_GE(port, 0);
      EXPECT_LE(port, 65535);
    }
  }
}

TEST(FuzzWire, RequestDecoderReachesBudgetSecondsAndKnobs) {
  // The request_to_json seed names the wire's option keys, so mutants of
  // it decode budgets, seconds and knobs, not only defaults.
  util::Rng rng(0x5EEDF00Dull);
  const std::string run_frame = kSeedFrames[std::size(kSeedFrames) - 2];
  std::size_t with_budget = 0, with_seconds = 0, with_knobs = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto parsed = Json::try_parse(mutate(run_frame, rng));
    if (!parsed) continue;
    const Json* requests = parsed->find("requests");
    if (requests == nullptr || !requests->is_array()) continue;
    for (const Json& entry : requests->as_array()) {
      try {
        const api::RunRequest request = api::request_from_json(entry);
        (void)request.cache_key();
        with_budget += request.options.max_evaluations == 2000;
        with_seconds += request.options.max_seconds == 1.0 / 3.0;
        with_knobs += !request.options.knobs.values().empty();
      } catch (const util::JsonError&) {
      }
    }
  }
  EXPECT_GT(with_budget, 50u);
  EXPECT_GT(with_seconds, 50u);
  EXPECT_GT(with_knobs, 50u);
}

// --- streaming report decoder vs the tree -------------------------------

/// What a decode yields, as comparable text: the report's DOM bytes, or
/// the kind of exception.
template <typename Decode>
std::string report_outcome(Decode&& decode) {
  try {
    std::string out = "report ";
    out += api::report_to_json(decode()).dump();
    return out;
  } catch (const util::JsonError&) {
    return "JsonError";
  } catch (const std::exception& e) {
    return std::string("other ") + e.what();
  }
}

std::string label_of(const std::vector<api::RunRequest>& requests,
                     std::size_t i) {
  return i < requests.size() ? requests[i].label_or_default() : util::dec(i);
}

/// serve::read_run_reply's outcome for one line.
std::string streamed_reply(const std::string& line, std::uint64_t id,
                           const std::vector<api::RunRequest>& requests) {
  try {
    const auto reports = serve::read_run_reply(line, id, requests, "w");
    if (!reports) return "declined";
    std::string out = "reports";
    for (const auto& r : *reports) {
      out += ' ';
      out += api::report_to_json(r).dump();
    }
    return out;
  } catch (const serve::RemoteError& e) {
    return std::string("RemoteError ") + e.what();
  } catch (const util::JsonError&) {
    return "JsonError";
  }
}

/// The same line through a tree, as the client read every reply before
/// the streamed decode. "declined" covers the lines it left to its
/// other paths: malformed text, other ids, events and rejections.
std::string tree_reply(const std::string& line, std::uint64_t id,
                       const std::vector<api::RunRequest>& requests) {
  const auto parsed = Json::try_parse(line);
  if (!parsed) return "declined";
  const Json* line_id = parsed->find("id");
  if (line_id == nullptr) return "declined";
  try {
    if (line_id->as_u64() != id) return "declined";
  } catch (const util::JsonError&) {
    return "declined";
  }
  if (parsed->find("event") != nullptr) return "declined";
  const Json* ok = parsed->find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return "declined";
  const Json* reports = parsed->find("reports");
  if (reports == nullptr || !reports->is_array()) return "declined";
  try {
    std::string out = "reports";
    for (std::size_t i = 0; i < reports->as_array().size(); ++i) {
      const Json& entry = reports->as_array()[i];
      if (const Json* error = entry.find("error")) {
        return "RemoteError w: run '" + label_of(requests, i) +
               "' failed: " + error->as_string();
      }
      out += ' ';
      out += api::report_to_json(api::report_from_json(entry)).dump();
    }
    return out;
  } catch (const util::JsonError&) {
    return "JsonError";
  }
}

api::RunReport small_report(const std::string& problem,
                            const std::string& algorithm) {
  api::RunRequest request;
  request.problem = problem;
  request.problem_options.num_variables = problem == "zdt1" ? 4 : 0;
  request.problem_options.small_platform = true;
  request.problem_options.num_objectives = problem == "noc" ? 2 : 0;
  request.algorithm = algorithm;
  request.options.max_evaluations = 48;
  request.options.snapshot_interval = 24;
  request.options.population_size = 4;
  request.options.knobs.set("moela.delta", 0.9);
  request.need_designs = true;
  api::Executor executor({.jobs = 1});
  return executor.run_all({request}).front();
}

/// `text` with `member` ("\"key\":value") inserted as its object's first
/// member.
std::string with_first_member(const std::string& text,
                              const std::string& member) {
  return "{" + member + "," + text.substr(1);
}

/// `text` with `member` appended as its object's last member.
std::string with_last_member(const std::string& text,
                             const std::string& member) {
  return text.substr(0, text.size() - 1) + "," + member + "}";
}

TEST(FuzzWire, ReportDecoderMatchesDomDecoder) {
  const std::string real =
      api::report_to_json(small_report("zdt1", "nsga2")).dump();
  const std::string binary =
      api::report_to_json(small_report("knapsack", "moead")).dump();
  const std::string noc =
      api::report_to_json(small_report("noc", "nsga2")).dump();
  ASSERT_NE(noc.find("\"kind\":\"noc\""), std::string::npos);
  const std::vector<std::string> report_seeds = {
      real, binary, noc,
      // A repeated key keeps its last value; only that one can fail.
      with_first_member(real, R"("snapshots":[])"),
      with_first_member(real, R"("snapshots":"bad")"),
      with_last_member(real, R"("snapshots":"bad")"),
      with_first_member(binary, R"("provenance":{"knobs":{"a":"x"}})"),
      // A non-object provenance is ignored, as Json::find ignores it.
      with_last_member(noc, R"("provenance":"string")"),
      with_last_member(real, R"("provenance":[1,2])"),
      R"({"provenance":{"knobs":{"k":"bad","k":"0x1p+0"},"seed":-1,)"
      R"("seed":7}})",
      R"({"designs":{"values":[["0x1p+0",2]],"kind":"real"}})",
      R"({"designs":{"kind":"binary","values":[[1,0]],"kind":"real"}})",
      R"({"designs":{"kind":"real","values":[[true]],"kind":"none"}})",
      R"({"designs":{"kind":"bogus"},"designs":"x"})",
      R"({"snapshots":[1,{"evaluations":3,"front":[[1]]},"x"]})",
      R"([{"algorithm":"not a report"}])",
  };
  util::Rng rng(0xD1FFD1FFull);
  std::size_t accepted = 0;
  for (int i = 0; i < 12000; ++i) {
    const std::string& seed = report_seeds[rng.below(report_seeds.size())];
    const std::string frame = i < 64 ? seed : mutate(seed, rng);
    const std::string tree = report_outcome(
        [&] { return api::report_from_json(Json::parse(frame)); });
    const std::string streamed =
        report_outcome([&] { return api::parse_report_json(frame); });
    ASSERT_EQ(streamed, tree) << frame;
    accepted += tree != "JsonError";
  }
  EXPECT_GT(accepted, 800u);

  // Whole run replies, as serve::Client reads them off the socket.
  const std::vector<api::RunRequest> requests(3);
  const std::string reply = "{\"id\":7,\"ok\":true,\"reports\":[";
  const std::vector<std::string> line_seeds = {
      reply + real + "," + binary + "," + noc + "]}",
      reply + real + ",{\"error\":\"boom\"}," + noc + "]}",
      reply + "{\"error\":5}," + real + "]}",
      reply + with_last_member(real, R"("snapshots":"bad")") +
          ",{\"error\":\"late\"}]}",
      reply + with_last_member(real, R"("error":"named")") + "]}",
      R"({"id":7,"reports":[],"ok":true,"reports":[)" + binary + "]}",
      R"({"id":7.0,"ok":true,"reports":[)" + real + "]}",
      R"({"id":8,"ok":true,"reports":[)" + real + "]}",
      R"({"id":7,"ok":false,"error":"rejected"})",
      R"({"event":"finished","id":7,"ok":true,"reports":[]})",
  };
  std::size_t decoded = 0;
  for (int i = 0; i < 6000; ++i) {
    const std::string& seed = line_seeds[rng.below(line_seeds.size())];
    const std::string line = i < 32 ? seed : mutate(seed, rng);
    const std::string tree = tree_reply(line, 7, requests);
    ASSERT_EQ(streamed_reply(line, 7, requests), tree) << line;
    decoded += tree.rfind("reports", 0) == 0;
  }
  EXPECT_GT(decoded, 80u);
}

}  // namespace
}  // namespace moela
