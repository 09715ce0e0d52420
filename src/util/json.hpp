// Minimal dependency-free JSON: one value type, a compact one-line writer,
// and a strict recursive-descent parser. Built for the serving protocol
// (src/serve/) and the per-run structured logs — both are line-delimited
// JSON, so dump() always emits a single line (control characters in strings
// are escaped, objects iterate in sorted key order for deterministic
// output).
//
// The format has one definition, in two streaming halves that the tree
// (Json) is built on: JsonWriter renders values (dump() is a JsonWriter
// walk) and JsonReader tokenizes them (parse() is a JsonReader descent).
// A codec that reads or writes its own types through them, without a
// tree, gets the tree's bytes, grammar, nesting cap and error text.
//
// Exactness: JSON number literals are decimal, so bit-exact doubles travel
// as hexfloat STRINGS ("0x1.8p+1") via exact_number() and are read back
// with exact_to_double(), which accepts either representation. Unsigned
// 64-bit integers (seeds, budgets) are a distinct storage form so they
// round-trip without passing through a double.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace moela::util {

class Json;
using JsonArray = std::vector<Json>;
/// std::map keeps dump() output key-sorted and deterministic.
using JsonObject = std::map<std::string, Json>;

/// Thrown by the typed accessors on a kind mismatch and by parse() on
/// malformed input (the message carries the byte offset).
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool value) : value_(value) {}
  Json(double value) : value_(value) {}
  Json(int value) : value_(static_cast<double>(value)) {}
  Json(std::uint64_t value) : value_(value) {}
  Json(const char* value) : value_(std::string(value)) {}
  Json(std::string value) : value_(std::move(value)) {}
  Json(JsonArray value) : value_(std::move(value)) {}
  Json(JsonObject value) : value_(std::move(value)) {}

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  Kind kind() const {
    // The variant stores numbers in two alternatives (double and u64), so
    // the index does not map 1:1 onto Kind.
    switch (value_.index()) {
      case 0: return Kind::kNull;
      case 1: return Kind::kBool;
      case 2:
      case 3: return Kind::kNumber;
      case 4: return Kind::kString;
      case 5: return Kind::kArray;
      default: return Kind::kObject;
    }
  }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const {
    return std::holds_alternative<double>(value_) ||
           std::holds_alternative<std::uint64_t>(value_);
  }
  /// True when the number is stored as an exact u64 (not via a double).
  bool holds_u64() const {
    return std::holds_alternative<std::uint64_t>(value_);
  }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  bool as_bool() const;
  /// Any number (u64 storage is converted; may round above 2^53).
  double as_double() const;
  /// Exact unsigned integer: u64 storage, or a double that is integral and
  /// in range. Anything else throws.
  std::uint64_t as_u64() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object field access; nullptr when absent (or not an object: the
  /// callers' "missing field" handling covers both).
  const Json* find(const std::string& key) const;

  /// Object/array builders, chainable: o.set("a", 1).set("b", "x").
  Json& set(const std::string& key, Json value);
  Json& append(Json value);

  /// Compact single-line rendering. Non-finite doubles (no JSON literal
  /// exists) render as null — exactness-critical doubles travel as
  /// exact_number() strings instead.
  std::string dump() const;

  /// Strict parse of exactly one JSON value (trailing garbage is an
  /// error). Throws JsonError with a byte offset; nesting is capped to
  /// keep adversarial input from overflowing the stack.
  static Json parse(std::string_view text);
  /// Non-throwing parse; on failure returns nullopt and fills `error`.
  static std::optional<Json> try_parse(std::string_view text,
                                       std::string* error = nullptr);

  bool operator==(const Json& other) const { return value_ == other.value_; }

 private:
  std::variant<std::nullptr_t, bool, double, std::uint64_t, std::string,
               JsonArray, JsonObject>
      value_;
};

/// Defensive object-field readers for version-skew-tolerant consumers
/// (protocol events from a daemon of another build): a missing or
/// mistyped field yields the fallback instead of throwing.
std::uint64_t u64_field_or(const Json& object, const std::string& key,
                           std::uint64_t fallback);
double double_field_or(const Json& object, const std::string& key,
                       double fallback);
std::string string_field_or(const Json& object, const std::string& key,
                            std::string fallback = {});

/// Streaming writer: appends one JSON text to a string, value by value,
/// with the separators dump() writes. dump() is built on it, so a value
/// written here has the tree's exact bytes; to match dump()'s key order a
/// caller writes each object's keys in sorted (std::map) order.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(&out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Writes `"key":`; the next call writes the member's value.
  JsonWriter& key(std::string_view key);

  JsonWriter& null();
  JsonWriter& boolean(bool value);
  /// Integral doubles print as integers, others in shortest round-trip
  /// form; non-finite ones print as null (see Json::dump).
  JsonWriter& number(double value);
  JsonWriter& number(std::uint64_t value);
  JsonWriter& string(std::string_view value);
  /// exact_number(value): the bit-exact hexfloat string.
  JsonWriter& exact(double value);

  /// Writes the separator the next value needs, for a caller that appends
  /// that one value to the string itself.
  JsonWriter& slot();

 private:
  std::string* out_;
  bool need_comma_ = false;
};

/// Pull reader over one JSON text: the tokenizer Json::parse is built on,
/// for decoders that read values straight into their own types. The
/// grammar, the nesting cap and the error messages are parse()'s; every
/// error throws JsonError carrying the byte offset.
///
///   JsonReader reader(text);
///   reader.begin_object();
///   std::string_view key;
///   while (reader.next_key(key)) {
///     if (key == "n") n = reader.read_number().as_u64();
///     else reader.skip();
///   }
///   reader.finish();
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Kind of the next value (a byte that starts no value reads as a
  /// number, which read_number() then rejects). Consumes only whitespace.
  Json::Kind peek();

  void read_null();
  bool read_bool();
  /// A number in the tree's storage: u64 for a plain non-negative integer
  /// that fits, double otherwise.
  Json read_number();
  /// The unescaped string: a view into the text when it holds no escape,
  /// into `scratch` otherwise. Valid until either changes.
  std::string_view read_string(std::string& scratch);
  std::string read_string();
  /// Any value, as a tree.
  Json read_value();
  /// Consumes one value of any kind, checked exactly as read_value()
  /// checks it, and returns its text.
  std::string_view skip();

  void begin_array();
  /// True when another element follows (read it next); false once the
  /// closing ']' is consumed.
  bool next_element();
  void begin_object();
  /// True with the member's unescaped key when another member follows
  /// (read its value next); false once the closing '}' is consumed. The
  /// key stays valid until the next call.
  bool next_key(std::string_view& key);

  /// Throws unless only whitespace follows the value read.
  void finish();

  /// Byte offset of the next unread character.
  std::size_t offset() const { return pos_; }
  std::string_view text() const { return text_; }

  /// A point to come back to: rewind(mark()) forgets everything read
  /// since, e.g. to skip() a value whose decoding failed half way.
  struct Mark {
    std::size_t pos = 0;
    std::size_t depth = 0;
    bool first = false;
  };
  Mark mark() const { return {pos_, depth_, first_}; }
  void rewind(const Mark& mark) {
    pos_ = mark.pos;
    depth_ = mark.depth;
    first_ = mark.first;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const;
  void skip_ws();
  /// Every value starts here: the nesting cap, then whitespace.
  void begin_value();
  char peek_char();
  bool consume(char expected);
  void expect(char expected);
  void expect_literal(const char* literal);
  std::string_view parse_string(std::string& scratch);
  unsigned parse_hex4();
  void append_codepoint(std::string& out, unsigned cp);

  std::string_view text_;
  std::size_t pos_ = 0;
  /// Containers open around the next value.
  std::size_t depth_ = 0;
  /// True until the innermost open container's first member is announced.
  bool first_ = false;
  std::string key_scratch_;
  std::string skip_scratch_;
};

/// Bit-exact double carrier: a hexfloat string value (util::hexfloat
/// rendering, the same one used by the result cache's disk tier and cache
/// keys).
Json exact_number(double value);
/// Reads a double back from exact_number() output — or from a plain JSON
/// number, so hand-written requests can use ordinary literals.
double exact_to_double(const Json& value);

}  // namespace moela::util
