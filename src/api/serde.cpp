#include "api/serde.hpp"

#include <cstdint>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "api/snapshot.hpp"
#include "noc/design.hpp"
#include "noc/io.hpp"
#include "util/numeric.hpp"

namespace moela::api {
namespace {

using util::Json;
using util::JsonArray;
using util::JsonError;

Json rows_to_json(const std::vector<moo::ObjectiveVector>& rows) {
  Json out = Json::array();
  for (const auto& row : rows) {
    Json json_row = Json::array();
    for (double v : row) json_row.append(util::exact_number(v));
    out.append(std::move(json_row));
  }
  return out;
}

std::vector<moo::ObjectiveVector> rows_from_json(const Json& json) {
  std::vector<moo::ObjectiveVector> out;
  out.reserve(json.as_array().size());
  for (const auto& json_row : json.as_array()) {
    moo::ObjectiveVector row;
    row.reserve(json_row.as_array().size());
    for (const auto& v : json_row.as_array()) {
      row.push_back(util::exact_to_double(v));
    }
    out.push_back(std::move(row));
  }
  return out;
}

Json knobs_to_json(const std::map<std::string, double>& knobs) {
  Json out = Json::object();
  for (const auto& [name, value] : knobs) {
    out.set(name, util::exact_number(value));
  }
  return out;
}

std::map<std::string, double> knobs_from_json(const Json& json) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : json.as_object()) {
    out[name] = util::exact_to_double(value);
  }
  return out;
}

// Field readers: absent fields keep the caller's default, present fields
// must have the right type (JsonError otherwise).
void read_u64(const Json& obj, const char* key, std::uint64_t& out) {
  if (const Json* v = obj.find(key)) out = v->as_u64();
}
void read_size(const Json& obj, const char* key, std::size_t& out) {
  if (const Json* v = obj.find(key)) {
    out = static_cast<std::size_t>(v->as_u64());
  }
}
void read_exact(const Json& obj, const char* key, double& out) {
  if (const Json* v = obj.find(key)) out = util::exact_to_double(*v);
}
void read_string(const Json& obj, const char* key, std::string& out) {
  if (const Json* v = obj.find(key)) out = v->as_string();
}
void read_bool(const Json& obj, const char* key, bool& out) {
  if (const Json* v = obj.find(key)) out = v->as_bool();
}

// ---------------------------------------------------------------- designs
// Same three kinds as the result cache's disk codec: real vectors, binary
// vectors, NocDesign (via the noc/io text format, embedded as strings).

Json designs_to_json(const std::vector<AnyDesign>& designs) {
  Json out = Json::object();
  Json payload = Json::array();
  if (designs.empty()) {
    return out.set("kind", "none").set("values", std::move(payload));
  }
  const std::type_info& t = designs.front().type();
  if (t == typeid(std::vector<double>)) {
    for (const auto& d : designs) {
      Json row = Json::array();
      for (double x : d.as<std::vector<double>>()) {
        row.append(util::exact_number(x));
      }
      payload.append(std::move(row));
    }
    return out.set("kind", "real").set("values", std::move(payload));
  }
  if (t == typeid(std::vector<std::uint8_t>)) {
    for (const auto& d : designs) {
      Json row = Json::array();
      for (unsigned x : d.as<std::vector<std::uint8_t>>()) {
        row.append(static_cast<std::uint64_t>(x));
      }
      payload.append(std::move(row));
    }
    return out.set("kind", "binary").set("values", std::move(payload));
  }
  if (t == typeid(noc::NocDesign)) {
    for (const auto& d : designs) {
      payload.append(noc::design_to_string(d.as<noc::NocDesign>()));
    }
    return out.set("kind", "noc").set("values", std::move(payload));
  }
  return out.set("kind", "none").set("values", std::move(payload));
}

std::vector<AnyDesign> designs_from_json(const Json& json) {
  std::vector<AnyDesign> out;
  std::string kind = "none";
  read_string(json, "kind", kind);
  const Json* values = json.find("values");
  if (kind == "none" || values == nullptr) return out;
  out.reserve(values->as_array().size());
  if (kind == "real") {
    for (const auto& row : values->as_array()) {
      std::vector<double> v;
      v.reserve(row.as_array().size());
      for (const auto& x : row.as_array()) {
        v.push_back(util::exact_to_double(x));
      }
      out.push_back(AnyDesign::wrap<std::vector<double>>(std::move(v)));
    }
    return out;
  }
  if (kind == "binary") {
    for (const auto& row : values->as_array()) {
      std::vector<std::uint8_t> v;
      v.reserve(row.as_array().size());
      for (const auto& x : row.as_array()) {
        v.push_back(static_cast<std::uint8_t>(x.as_u64()));
      }
      out.push_back(AnyDesign::wrap<std::vector<std::uint8_t>>(std::move(v)));
    }
    return out;
  }
  if (kind == "noc") {
    for (const auto& text : values->as_array()) {
      try {
        out.push_back(AnyDesign::wrap<noc::NocDesign>(
            noc::design_from_string(text.as_string())));
      } catch (const std::exception& e) {
        throw JsonError(std::string("designs: bad noc payload: ") + e.what());
      }
    }
    return out;
  }
  throw JsonError("designs: unknown kind '" + kind + "'");
}

// ---------------------------------------------------------------- streaming
// The report codec without a tree. Writers emit each object's keys in the
// sorted order JsonObject iterates in. Readers take members in any order
// and mirror what report_from_json sees in a tree: a repeated key keeps
// its last value, and only that value's shape can fail the decode; a
// non-object where an object is read counts as absent (Json::find).

using util::JsonReader;
using util::JsonWriter;
using Kind = util::Json::Kind;

void write_rows(JsonWriter& w, const std::vector<moo::ObjectiveVector>& rows) {
  w.begin_array();
  for (const auto& row : rows) {
    w.begin_array();
    for (double v : row) w.exact(v);
    w.end_array();
  }
  w.end_array();
}

void write_knobs(JsonWriter& w, const std::map<std::string, double>& knobs) {
  w.begin_object();
  for (const auto& [name, value] : knobs) w.key(name).exact(value);
  w.end_object();
}

void write_designs(JsonWriter& w, const std::vector<AnyDesign>& designs) {
  const std::type_info& t =
      designs.empty() ? typeid(void) : designs.front().type();
  w.begin_object();
  if (t == typeid(std::vector<double>)) {
    w.key("kind").string("real").key("values").begin_array();
    for (const auto& d : designs) {
      w.begin_array();
      for (double x : d.as<std::vector<double>>()) w.exact(x);
      w.end_array();
    }
  } else if (t == typeid(std::vector<std::uint8_t>)) {
    w.key("kind").string("binary").key("values").begin_array();
    for (const auto& d : designs) {
      w.begin_array();
      for (unsigned x : d.as<std::vector<std::uint8_t>>()) {
        w.number(static_cast<std::uint64_t>(x));
      }
      w.end_array();
    }
  } else if (t == typeid(noc::NocDesign)) {
    w.key("kind").string("noc").key("values").begin_array();
    for (const auto& d : designs) {
      w.string(noc::design_to_string(d.as<noc::NocDesign>()));
    }
  } else {
    w.key("kind").string("none").key("values").begin_array();
  }
  w.end_array().end_object();
}

void write_report(JsonWriter& w, const RunReport& report) {
  const RunProvenance& p = report.provenance;
  w.begin_object();
  w.key("algorithm").string(report.algorithm);
  w.key("designs");
  write_designs(w, report.final_designs);
  w.key("evaluations").number(static_cast<std::uint64_t>(report.evaluations));
  w.key("final_front");
  write_rows(w, report.final_front);
  w.key("final_objectives");
  write_rows(w, report.final_objectives);
  w.key("provenance").begin_object();
  w.key("algorithm_key").string(p.algorithm_key);
  w.key("cache_hit").boolean(p.cache_hit);
  w.key("cache_key").string(p.cache_key);
  w.key("cancelled").boolean(p.cancelled);
  w.key("knobs");
  write_knobs(w, p.knobs);
  w.key("priority").string(p.priority);
  w.key("problem").string(p.problem);
  w.key("seed").number(p.seed);
  w.key("trace").string(p.trace_id);
  w.end_object();
  w.key("seconds").exact(report.seconds);
  w.key("snapshots").begin_array();
  for (const auto& s : report.snapshots) {
    w.begin_object();
    w.key("evaluations").number(static_cast<std::uint64_t>(s.evaluations));
    w.key("front");
    write_rows(w, s.front);
    w.key("seconds").exact(s.seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

/// Decodes one member's value with `decode`. When the value has the wrong
/// shape it is skipped and the error kept in `error` until the object
/// closes, so that a later duplicate of the key can clear it; malformed
/// JSON throws at once (skip() meets it again).
template <typename Decode>
void read_member(JsonReader& r, std::exception_ptr& error, Decode&& decode) {
  const JsonReader::Mark mark = r.mark();
  error = nullptr;
  try {
    decode();
  } catch (const JsonError&) {
    r.rewind(mark);
    r.skip();
    error = std::current_exception();
  }
}

template <std::size_t N>
void rethrow_first(const std::exception_ptr (&errors)[N]) {
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

[[noreturn]] void mistyped(const char* wanted) {
  throw JsonError(std::string("report: expected ") + wanted);
}

std::string read_string_value(JsonReader& r, std::string& scratch) {
  if (r.peek() != Kind::kString) mistyped("a string");
  return std::string(r.read_string(scratch));
}

std::uint64_t read_u64_value(JsonReader& r) {
  if (r.peek() != Kind::kNumber) mistyped("a number");
  return r.read_number().as_u64();
}

bool read_bool_value(JsonReader& r) {
  if (r.peek() != Kind::kBool) mistyped("a bool");
  return r.read_bool();
}

/// util::exact_to_double on the next value: a number, or a numeric string.
double read_exact_value(JsonReader& r, std::string& scratch) {
  switch (r.peek()) {
    case Kind::kNumber: return r.read_number().as_double();
    case Kind::kString: {
      const std::string_view text = r.read_string(scratch);
      double d = 0.0;
      if (util::parse_double(text, d)) return d;
      throw JsonError("Json: string '" + std::string(text) +
                      "' is not a number");
    }
    default: mistyped("a number or numeric string");
  }
}

/// One array of exact doubles. Elements collect in `buffer`, so the
/// returned vector is allocated once at its final size.
std::vector<double> read_exact_row(JsonReader& r, std::string& scratch,
                                   std::vector<double>& buffer) {
  if (r.peek() != Kind::kArray) mistyped("a row array");
  buffer.clear();
  r.begin_array();
  while (r.next_element()) buffer.push_back(read_exact_value(r, scratch));
  return std::vector<double>(buffer.begin(), buffer.end());
}

std::vector<moo::ObjectiveVector> read_rows(JsonReader& r,
                                            std::string& scratch) {
  if (r.peek() != Kind::kArray) mistyped("an array of rows");
  std::vector<moo::ObjectiveVector> out;
  std::vector<double> buffer;
  r.begin_array();
  while (r.next_element()) out.push_back(read_exact_row(r, scratch, buffer));
  return out;
}

std::map<std::string, double> read_knobs(JsonReader& r, std::string& scratch) {
  if (r.peek() != Kind::kObject) mistyped("a knob object");
  std::map<std::string, double> out;
  std::map<std::string, std::exception_ptr> errors;
  r.begin_object();
  std::string_view key;
  while (r.next_key(key)) {
    std::string name(key);  // skipping a bad value reuses the key buffer
    std::exception_ptr error;
    read_member(r, error, [&] { out[name] = read_exact_value(r, scratch); });
    if (error) {
      errors[name] = error;
    } else {
      errors.erase(name);
    }
  }
  if (!errors.empty()) std::rethrow_exception(errors.begin()->second);
  return out;
}

/// The "values" array of a designs object whose kind is `kind`.
std::vector<AnyDesign> read_design_values(JsonReader& r,
                                          const std::string& kind,
                                          std::string& scratch) {
  const bool known = kind == "real" || kind == "binary" || kind == "noc";
  if (!known) throw JsonError("designs: unknown kind '" + kind + "'");
  if (r.peek() != Kind::kArray) mistyped("a design array");
  std::vector<AnyDesign> out;
  std::vector<double> buffer;
  r.begin_array();
  while (r.next_element()) {
    if (kind == "noc") {
      const std::string text = read_string_value(r, scratch);
      try {
        out.push_back(
            AnyDesign::wrap<noc::NocDesign>(noc::design_from_string(text)));
      } catch (const std::exception& e) {
        throw JsonError(std::string("designs: bad noc payload: ") + e.what());
      }
      continue;
    }
    if (kind == "real") {
      out.push_back(AnyDesign::wrap<std::vector<double>>(
          read_exact_row(r, scratch, buffer)));
      continue;
    }
    if (r.peek() != Kind::kArray) mistyped("a design row");
    std::vector<std::uint8_t> v;
    r.begin_array();
    while (r.next_element()) {
      v.push_back(static_cast<std::uint8_t>(read_u64_value(r)));
    }
    out.push_back(AnyDesign::wrap<std::vector<std::uint8_t>>(std::move(v)));
  }
  return out;
}

std::vector<AnyDesign> read_designs(JsonReader& r, std::string& scratch) {
  if (r.peek() != Kind::kObject) {
    r.skip();
    return {};
  }
  // "values" is decoded as it streams past when "kind" came first (the
  // sorted order every writer uses). Otherwise, or when a later "kind"
  // changes how it reads, it is decoded again from its text at the end.
  std::string kind = "none";
  std::exception_ptr kind_error;
  std::string_view values;
  std::string decoded_as;
  std::vector<AnyDesign> out;
  std::exception_ptr values_error;
  r.begin_object();
  std::string_view key;
  while (r.next_key(key)) {
    if (key == "kind") {
      read_member(r, kind_error, [&] { kind = read_string_value(r, scratch); });
    } else if (key == "values") {
      const std::size_t start = r.offset();
      decoded_as.clear();
      if (kind == "real" || kind == "binary" || kind == "noc") {
        decoded_as = kind;
        read_member(r, values_error,
                    [&] { out = read_design_values(r, kind, scratch); });
      } else {
        r.skip();
      }
      values = r.text().substr(start, r.offset() - start);
    } else {
      r.skip();
    }
  }
  // report_from_json reads "kind" first and "values" only for a kind.
  if (kind_error) std::rethrow_exception(kind_error);
  if (kind == "none" || values.empty()) return {};
  if (decoded_as != kind) {
    JsonReader again(values);
    return read_design_values(again, kind, scratch);
  }
  if (values_error) std::rethrow_exception(values_error);
  return out;
}

core::ArchiveSnapshot read_snapshot(JsonReader& r, std::string& scratch) {
  core::ArchiveSnapshot snapshot;
  if (r.peek() != Kind::kObject) {
    r.skip();
    return snapshot;
  }
  enum { kEvaluations, kSeconds, kFront, kFields };
  std::exception_ptr errors[kFields];
  r.begin_object();
  std::string_view key;
  while (r.next_key(key)) {
    if (key == "evaluations") {
      read_member(r, errors[kEvaluations], [&] {
        snapshot.evaluations = static_cast<std::size_t>(read_u64_value(r));
      });
    } else if (key == "seconds") {
      read_member(r, errors[kSeconds],
                  [&] { snapshot.seconds = read_exact_value(r, scratch); });
    } else if (key == "front") {
      read_member(r, errors[kFront],
                  [&] { snapshot.front = read_rows(r, scratch); });
    } else {
      r.skip();
    }
  }
  rethrow_first(errors);
  return snapshot;
}

std::vector<core::ArchiveSnapshot> read_snapshots(JsonReader& r,
                                                  std::string& scratch) {
  if (r.peek() != Kind::kArray) mistyped("a snapshot array");
  std::vector<core::ArchiveSnapshot> out;
  r.begin_array();
  while (r.next_element()) out.push_back(read_snapshot(r, scratch));
  return out;
}

RunProvenance read_provenance(JsonReader& r, std::string& scratch) {
  RunProvenance p;
  if (r.peek() != Kind::kObject) {
    r.skip();
    return p;
  }
  enum {
    kProblem, kAlgorithmKey, kSeed, kKnobs, kCacheKey, kCacheHit,
    kCancelled, kPriority, kTrace, kFields
  };
  std::exception_ptr errors[kFields];
  const auto string_member = [&](int field, std::string& out) {
    read_member(r, errors[field],
                [&] { out = read_string_value(r, scratch); });
  };
  const auto bool_member = [&](int field, bool& out) {
    read_member(r, errors[field], [&] { out = read_bool_value(r); });
  };
  r.begin_object();
  std::string_view key;
  while (r.next_key(key)) {
    if (key == "problem") {
      string_member(kProblem, p.problem);
    } else if (key == "algorithm_key") {
      string_member(kAlgorithmKey, p.algorithm_key);
    } else if (key == "seed") {
      read_member(r, errors[kSeed], [&] { p.seed = read_u64_value(r); });
    } else if (key == "knobs") {
      read_member(r, errors[kKnobs],
                  [&] { p.knobs = read_knobs(r, scratch); });
    } else if (key == "cache_key") {
      string_member(kCacheKey, p.cache_key);
    } else if (key == "cache_hit") {
      bool_member(kCacheHit, p.cache_hit);
    } else if (key == "cancelled") {
      bool_member(kCancelled, p.cancelled);
    } else if (key == "priority") {
      string_member(kPriority, p.priority);
    } else if (key == "trace") {
      string_member(kTrace, p.trace_id);
    } else {
      r.skip();
    }
  }
  rethrow_first(errors);
  return p;
}

}  // namespace

Json request_to_json(const RunRequest& request) {
  Json problem_options = Json::object();
  problem_options.set("objectives", request.problem_options.num_objectives)
      .set("variables", request.problem_options.num_variables)
      .set("seed", request.problem_options.seed)
      .set("app", request.problem_options.app)
      .set("small_platform", request.problem_options.small_platform);

  Json options = Json::object();
  options.set("evals", request.options.max_evaluations)
      .set("seconds", util::exact_number(request.options.max_seconds))
      .set("snapshot", request.options.snapshot_interval)
      .set("seed", request.options.seed)
      .set("pop", request.options.population_size)
      .set("n_local", request.options.n_local)
      .set("knobs", knobs_to_json(request.options.knobs.values()));

  Json out = Json::object();
  out.set("problem", request.problem)
      .set("problem_options", std::move(problem_options))
      .set("algorithm", request.algorithm)
      .set("options", std::move(options))
      .set("need_designs", request.need_designs)
      .set("label", request.label)
      .set("trace", request.trace_id)
      .set("checkpoint", request.checkpoint);
  // The resume payload only when present: most requests carry none, and an
  // absent key keeps pre-checkpoint wire peers byte-compatible.
  if (request.resume != nullptr) {
    out.set("resume", snapshot_to_json(*request.resume));
  }
  return out;
}

RunRequest request_from_json(const Json& json) {
  RunRequest request;
  read_string(json, "problem", request.problem);
  read_string(json, "algorithm", request.algorithm);
  if (request.problem.empty()) {
    throw JsonError("request: missing or empty 'problem'");
  }
  if (request.algorithm.empty()) {
    throw JsonError("request: missing or empty 'algorithm'");
  }
  if (const Json* po = json.find("problem_options")) {
    read_size(*po, "objectives", request.problem_options.num_objectives);
    read_size(*po, "variables", request.problem_options.num_variables);
    read_u64(*po, "seed", request.problem_options.seed);
    read_string(*po, "app", request.problem_options.app);
    read_bool(*po, "small_platform", request.problem_options.small_platform);
  }
  if (const Json* ro = json.find("options")) {
    read_size(*ro, "evals", request.options.max_evaluations);
    read_exact(*ro, "seconds", request.options.max_seconds);
    read_size(*ro, "snapshot", request.options.snapshot_interval);
    read_u64(*ro, "seed", request.options.seed);
    read_size(*ro, "pop", request.options.population_size);
    read_size(*ro, "n_local", request.options.n_local);
    if (const Json* knobs = ro->find("knobs")) {
      for (const auto& [name, value] : knobs_from_json(*knobs)) {
        request.options.knobs.set(name, value);
      }
    }
  }
  read_bool(json, "need_designs", request.need_designs);
  read_string(json, "label", request.label);
  // Absent on pre-telemetry wire peers: the empty default stands.
  read_string(json, "trace", request.trace_id);
  // Absent on pre-checkpoint wire peers: both defaults stand. A resume
  // payload is validated strictly (shape, salt, checksum) — a request
  // carrying garbage is rejected whole rather than silently run fresh, so
  // a corrupting middlebox cannot hide.
  read_bool(json, "checkpoint", request.checkpoint);
  if (const Json* resume = json.find("resume")) {
    request.resume =
        std::make_shared<const RunSnapshot>(snapshot_from_json(*resume));
  }
  return request;
}

Json report_to_json(const RunReport& report) {
  Json snapshots = Json::array();
  for (const auto& s : report.snapshots) {
    Json snapshot = Json::object();
    snapshot.set("evaluations", s.evaluations)
        .set("seconds", util::exact_number(s.seconds))
        .set("front", rows_to_json(s.front));
    snapshots.append(std::move(snapshot));
  }

  const RunProvenance& p = report.provenance;
  Json provenance = Json::object();
  provenance.set("problem", p.problem)
      .set("algorithm_key", p.algorithm_key)
      .set("seed", p.seed)
      .set("knobs", knobs_to_json(p.knobs))
      .set("cache_key", p.cache_key)
      .set("cache_hit", p.cache_hit)
      .set("cancelled", p.cancelled)
      .set("priority", p.priority)
      .set("trace", p.trace_id);

  Json out = Json::object();
  out.set("algorithm", report.algorithm)
      .set("snapshots", std::move(snapshots))
      .set("final_front", rows_to_json(report.final_front))
      .set("final_objectives", rows_to_json(report.final_objectives))
      .set("designs", designs_to_json(report.final_designs))
      .set("evaluations", report.evaluations)
      .set("seconds", util::exact_number(report.seconds))
      .set("provenance", std::move(provenance));
  return out;
}

RunReport report_from_json(const Json& json) {
  RunReport report;
  read_string(json, "algorithm", report.algorithm);
  if (const Json* snapshots = json.find("snapshots")) {
    report.snapshots.reserve(snapshots->as_array().size());
    for (const auto& s : snapshots->as_array()) {
      core::ArchiveSnapshot snapshot;
      read_size(s, "evaluations", snapshot.evaluations);
      read_exact(s, "seconds", snapshot.seconds);
      if (const Json* front = s.find("front")) {
        snapshot.front = rows_from_json(*front);
      }
      report.snapshots.push_back(std::move(snapshot));
    }
  }
  if (const Json* front = json.find("final_front")) {
    report.final_front = rows_from_json(*front);
  }
  if (const Json* objectives = json.find("final_objectives")) {
    report.final_objectives = rows_from_json(*objectives);
  }
  if (const Json* designs = json.find("designs")) {
    report.final_designs = designs_from_json(*designs);
  }
  read_size(json, "evaluations", report.evaluations);
  read_exact(json, "seconds", report.seconds);
  if (const Json* provenance = json.find("provenance")) {
    RunProvenance& p = report.provenance;
    read_string(*provenance, "problem", p.problem);
    read_string(*provenance, "algorithm_key", p.algorithm_key);
    read_u64(*provenance, "seed", p.seed);
    if (const Json* knobs = provenance->find("knobs")) {
      p.knobs = knobs_from_json(*knobs);
    }
    read_string(*provenance, "cache_key", p.cache_key);
    read_bool(*provenance, "cache_hit", p.cache_hit);
    read_bool(*provenance, "cancelled", p.cancelled);
    // Absent on pre-scheduler wire peers: the default ("normal") stands.
    read_string(*provenance, "priority", p.priority);
    // Absent on pre-telemetry wire peers: the empty default stands.
    read_string(*provenance, "trace", p.trace_id);
  }
  return report;
}

void append_report_json(std::string& out, const RunReport& report) {
  util::JsonWriter writer(out);
  write_report(writer, report);
}

RunReport read_report_json(util::JsonReader& r,
                           const OtherMemberReader& other_member) {
  RunReport report;
  if (r.peek() != Kind::kObject) {
    r.skip();
    return report;
  }
  enum {
    kAlgorithm, kSnapshots, kFinalFront, kFinalObjectives, kDesigns,
    kEvaluations, kSeconds, kProvenance, kFields
  };
  std::exception_ptr errors[kFields];
  std::string scratch;
  r.begin_object();
  std::string_view key;
  while (r.next_key(key)) {
    if (key == "algorithm") {
      read_member(r, errors[kAlgorithm], [&] {
        report.algorithm = read_string_value(r, scratch);
      });
    } else if (key == "snapshots") {
      read_member(r, errors[kSnapshots], [&] {
        report.snapshots = read_snapshots(r, scratch);
      });
    } else if (key == "final_front") {
      read_member(r, errors[kFinalFront], [&] {
        report.final_front = read_rows(r, scratch);
      });
    } else if (key == "final_objectives") {
      read_member(r, errors[kFinalObjectives], [&] {
        report.final_objectives = read_rows(r, scratch);
      });
    } else if (key == "designs") {
      read_member(r, errors[kDesigns], [&] {
        report.final_designs = read_designs(r, scratch);
      });
    } else if (key == "evaluations") {
      read_member(r, errors[kEvaluations], [&] {
        report.evaluations = static_cast<std::size_t>(read_u64_value(r));
      });
    } else if (key == "seconds") {
      read_member(r, errors[kSeconds], [&] {
        report.seconds = read_exact_value(r, scratch);
      });
    } else if (key == "provenance") {
      read_member(r, errors[kProvenance], [&] {
        report.provenance = read_provenance(r, scratch);
      });
    } else if (other_member) {
      other_member(key, r);
    } else {
      r.skip();
    }
  }
  rethrow_first(errors);
  return report;
}

RunReport parse_report_json(std::string_view text) {
  util::JsonReader reader(text);
  RunReport report = read_report_json(reader);
  reader.finish();
  return report;
}

}  // namespace moela::api
