// JSON (de)serialization for the batched-execution value types — the wire
// schema of the serving protocol (src/serve/) and the per-run structured
// logs. The JSON field names map 1:1 onto the C++ members, so a request
// hand-written against api/request.hpp works unchanged over the socket.
//
// Exactness contract: every double that feeds results or cache keys
// (objective values, seconds, knob values) travels as a hexfloat string
// (util::exact_number), so a RunReport deserialized from the wire is
// bit-identical to the in-process one. Deserializers also accept plain
// JSON numbers for human-written requests.
//
// RunRequest limitations: only keyed problems serialize — a request whose
// problem is bound directly (RunRequest::bound_problem) has no stable
// description and request_from_json never produces one.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "api/optimizer.hpp"
#include "api/request.hpp"
#include "util/json.hpp"

namespace moela::api {

/// Request → JSON. Fields: problem, problem_options{objectives, variables,
/// seed, app, small_platform}, algorithm, options{evals, seconds, snapshot,
/// seed, pop, n_local, knobs{}}, need_designs, label, trace, checkpoint,
/// and (only when present) a resume snapshot (api/snapshot.hpp). Defaults
/// are written explicitly so the wire form is self-contained.
util::Json request_to_json(const RunRequest& request);

/// JSON → request. Unknown fields are ignored (forward compatibility);
/// absent fields keep their C++ defaults. Throws util::JsonError on a
/// type mismatch or a missing required field (problem, algorithm).
RunRequest request_from_json(const util::Json& json);

/// Report → JSON. Includes snapshots, the final front/objectives, the
/// type-erased designs (real / binary / noc kinds; other design types
/// serialize as kind "none" and drop the payload, mirroring the result
/// cache's codec), and provenance.
util::Json report_to_json(const RunReport& report);

/// JSON → report. Throws util::JsonError on malformed input.
RunReport report_from_json(const util::Json& json);

// Streaming report codec: the wire path's encoder and decoder, with no
// util::Json tree in between. report_to_json / report_from_json above stay
// the reference they are tested against.

/// Appends exactly the bytes of report_to_json(report).dump().
void append_report_json(std::string& out, const RunReport& report);

/// report_from_json(util::Json::parse(text)) without the tree: the same
/// report for every text that accepts, and a JsonError for every text it
/// rejects.
RunReport parse_report_json(std::string_view text);

/// Reads a member of a report object that is not a report field: called
/// with the key and the reader at the member's value, which it must
/// consume. The key is invalid once the reader moves on.
using OtherMemberReader =
    std::function<void(std::string_view key, util::JsonReader& reader)>;

/// Reads one report value from `reader`, as report_from_json reads it
/// from a tree: a repeated key keeps its last value, a non-object where an
/// object is read counts as absent, and the value is consumed whole before
/// a JsonError for a wrong-shaped field is thrown. Members that are not
/// report fields go to `other_member` when set, and are skipped otherwise.
RunReport read_report_json(util::JsonReader& reader,
                           const OtherMemberReader& other_member = {});

}  // namespace moela::api
