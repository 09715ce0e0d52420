#include "util/json.hpp"

#include <cmath>

#include "util/numeric.hpp"

namespace moela::util {
namespace {

[[noreturn]] void kind_error(const char* wanted, Json::Kind got) {
  static const char* names[] = {"null",   "bool",  "number",
                                "string", "array", "object"};
  throw JsonError(std::string("Json: wanted ") + wanted + ", have " +
                  names[static_cast<int>(got)]);
}

/// Quoted, escaped string. Runs of bytes that need no escape are copied
/// whole.
void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static const char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

void write_value(JsonWriter& writer, const Json& v) {
  switch (v.kind()) {
    case Json::Kind::kNull: writer.null(); break;
    case Json::Kind::kBool: writer.boolean(v.as_bool()); break;
    case Json::Kind::kNumber:
      if (v.holds_u64()) {
        writer.number(v.as_u64());
      } else {
        writer.number(v.as_double());
      }
      break;
    case Json::Kind::kString: writer.string(v.as_string()); break;
    case Json::Kind::kArray:
      writer.begin_array();
      for (const auto& item : v.as_array()) write_value(writer, item);
      writer.end_array();
      break;
    case Json::Kind::kObject:
      writer.begin_object();
      for (const auto& [key, value] : v.as_object()) {
        writer.key(key);
        write_value(writer, value);
      }
      writer.end_object();
      break;
  }
}

constexpr std::size_t kMaxDepth = 100;

}  // namespace

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  kind_error("bool", kind());
}

double Json::as_double() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&value_)) {
    return static_cast<double>(*u);
  }
  kind_error("number", kind());
}

std::uint64_t Json::as_u64() const {
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&value_)) return *u;
  if (const double* d = std::get_if<double>(&value_)) {
    if (*d >= 0.0 && *d < 18446744073709551616.0 &&
        *d == std::floor(*d)) {
      return static_cast<std::uint64_t>(*d);
    }
    throw JsonError("Json: number is not an unsigned integer");
  }
  kind_error("number", kind());
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  kind_error("string", kind());
}

const JsonArray& Json::as_array() const {
  if (const JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  kind_error("array", kind());
}

const JsonObject& Json::as_object() const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  kind_error("object", kind());
}

const Json* Json::find(const std::string& key) const {
  const JsonObject* o = std::get_if<JsonObject>(&value_);
  if (o == nullptr) return nullptr;
  auto it = o->find(key);
  return it == o->end() ? nullptr : &it->second;
}

Json& Json::set(const std::string& key, Json value) {
  JsonObject* o = std::get_if<JsonObject>(&value_);
  if (o == nullptr) kind_error("object", kind());
  (*o)[key] = std::move(value);
  return *this;
}

Json& Json::append(Json value) {
  JsonArray* a = std::get_if<JsonArray>(&value_);
  if (a == nullptr) kind_error("array", kind());
  a->push_back(std::move(value));
  return *this;
}

// ---------------------------------------------------------------- writer

JsonWriter& JsonWriter::slot() {
  if (need_comma_) *out_ += ',';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  slot();
  *out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  *out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  slot();
  *out_ += '[';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  *out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view key) {
  if (need_comma_) *out_ += ',';
  append_escaped(*out_, key);
  *out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::null() {
  slot();
  *out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::boolean(bool value) {
  slot();
  *out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::number(double value) {
  slot();
  if (!std::isfinite(value)) {
    *out_ += "null";  // JSON has no literal for inf/nan; see header comment
    return *this;
  }
  // Integral doubles print as integers (cleaner, still exact); everything
  // else gets the shortest round-trip rendering. Both via to_chars, so the
  // process locale can never change the bytes. The magnitude check must
  // come first: casting |value| >= 2^63 to long long is undefined behavior.
  if (std::fabs(value) < 1e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    *out_ += dec(static_cast<long long>(value));
  } else {
    *out_ += shortest_double(value);
  }
  return *this;
}

JsonWriter& JsonWriter::number(std::uint64_t value) {
  slot();
  *out_ += dec(value);
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view value) {
  slot();
  append_escaped(*out_, value);
  return *this;
}

JsonWriter& JsonWriter::exact(double value) {
  // A hexfloat holds no byte that needs escaping.
  slot();
  *out_ += '"';
  append_hexfloat(*out_, value);
  *out_ += '"';
  return *this;
}

// ---------------------------------------------------------------- reader

void JsonReader::fail(const std::string& what) const {
  throw JsonError("Json parse error at byte " + dec(pos_) + ": " + what);
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

void JsonReader::begin_value() {
  if (depth_ > kMaxDepth) fail("nesting too deep");
  skip_ws();
}

char JsonReader::peek_char() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

bool JsonReader::consume(char expected) {
  if (pos_ < text_.size() && text_[pos_] == expected) {
    ++pos_;
    return true;
  }
  return false;
}

void JsonReader::expect(char expected) {
  if (!consume(expected)) {
    fail(std::string("expected '") + expected + "'");
  }
}

void JsonReader::expect_literal(const char* literal) {
  for (const char* p = literal; *p != '\0'; ++p) {
    if (pos_ >= text_.size() || text_[pos_] != *p) {
      fail(std::string("bad literal (wanted \"") + literal + "\")");
    }
    ++pos_;
  }
}

Json::Kind JsonReader::peek() {
  begin_value();
  switch (peek_char()) {
    case 'n': return Json::Kind::kNull;
    case 't':
    case 'f': return Json::Kind::kBool;
    case '"': return Json::Kind::kString;
    case '[': return Json::Kind::kArray;
    case '{': return Json::Kind::kObject;
    default: return Json::Kind::kNumber;
  }
}

void JsonReader::read_null() {
  begin_value();
  expect_literal("null");
}

bool JsonReader::read_bool() {
  begin_value();
  if (peek_char() == 't') {
    expect_literal("true");
    return true;
  }
  expect_literal("false");
  return false;
}

Json JsonReader::read_number() {
  begin_value();
  // The token is the longest run of digits and ".eE+-" (a sign included).
  const std::size_t start = pos_;
  bool digits_only = true;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c < '0' || c > '9') {
      if (c != '.' && c != 'e' && c != 'E' && c != '+' && c != '-') break;
      digits_only = false;
    }
    ++pos_;
  }
  if (pos_ == start) fail("expected a value");
  const std::string_view token = text_.substr(start, pos_ - start);
  // A plain non-negative integer keeps u64 storage (exact seeds/budgets);
  // everything else parses as a double, locale-independently.
  if (digits_only) {
    std::uint64_t u = 0;
    if (parse_u64(token, u)) return Json(u);
  }
  double d = 0.0;
  if (!parse_double(token, d)) fail("bad number '" + std::string(token) + "'");
  return Json(d);
}

std::string_view JsonReader::read_string(std::string& scratch) {
  begin_value();
  return parse_string(scratch);
}

std::string JsonReader::read_string() {
  std::string scratch;
  const std::string_view value = read_string(scratch);
  return value.data() == scratch.data() ? std::move(scratch)
                                        : std::string(value);
}

std::string_view JsonReader::parse_string(std::string& scratch) {
  expect('"');
  // Bytes up to the next quote, escape or control byte copy verbatim.
  const auto plain_end = [this](std::size_t from) {
    while (from < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[from]);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++from;
    }
    return from;
  };
  const std::size_t start = pos_;
  pos_ = plain_end(pos_);
  if (pos_ < text_.size() && text_[pos_] == '"') {
    ++pos_;
    return text_.substr(start, pos_ - 1 - start);
  }
  scratch.assign(text_.data() + start, pos_ - start);
  for (;;) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
    if (c == '"') return scratch;
    if (c < 0x20) fail("raw control character in string");
    // Otherwise c is the backslash of an escape.
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': scratch += '"'; break;
      case '\\': scratch += '\\'; break;
      case '/': scratch += '/'; break;
      case 'b': scratch += '\b'; break;
      case 'f': scratch += '\f'; break;
      case 'n': scratch += '\n'; break;
      case 'r': scratch += '\r'; break;
      case 't': scratch += '\t'; break;
      case 'u': append_codepoint(scratch, parse_hex4()); break;
      default: fail("bad escape");
    }
    const std::size_t run = plain_end(pos_);
    scratch.append(text_.data() + pos_, run - pos_);
    pos_ = run;
  }
}

unsigned JsonReader::parse_hex4() {
  unsigned value = 0;
  for (int i = 0; i < 4; ++i) {
    if (pos_ >= text_.size()) fail("unterminated \\u escape");
    const char c = text_[pos_++];
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
    else fail("bad \\u escape digit");
  }
  return value;
}

void JsonReader::append_codepoint(std::string& out, unsigned cp) {
  // Surrogate pair: \uD800-\uDBFF must be followed by \uDC00-\uDFFF.
  if (cp >= 0xD800 && cp <= 0xDBFF) {
    if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
        text_[pos_ + 1] != 'u') {
      fail("lone high surrogate");
    }
    pos_ += 2;
    const unsigned low = parse_hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
    cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
  } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
    fail("lone low surrogate");
  }
  // UTF-8 encode.
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

void JsonReader::begin_array() {
  begin_value();
  expect('[');
  ++depth_;
  first_ = true;
}

bool JsonReader::next_element() {
  skip_ws();
  if (consume(']')) {
    --depth_;
    first_ = false;  // the closed array was its parent's current member
    return false;
  }
  if (first_) {
    first_ = false;
  } else {
    expect(',');
  }
  return true;
}

void JsonReader::begin_object() {
  begin_value();
  expect('{');
  ++depth_;
  first_ = true;
}

bool JsonReader::next_key(std::string_view& key) {
  skip_ws();
  if (consume('}')) {
    --depth_;
    first_ = false;
    return false;
  }
  if (first_) {
    first_ = false;
  } else {
    expect(',');
    skip_ws();
  }
  key = parse_string(key_scratch_);
  skip_ws();
  expect(':');
  return true;
}

Json JsonReader::read_value() {
  switch (peek()) {
    case Json::Kind::kNull: read_null(); return Json();
    case Json::Kind::kBool: return Json(read_bool());
    case Json::Kind::kString: return Json(read_string());
    case Json::Kind::kArray: {
      JsonArray out;
      begin_array();
      while (next_element()) out.push_back(read_value());
      return Json(std::move(out));
    }
    case Json::Kind::kObject: {
      JsonObject out;
      begin_object();
      std::string_view key;
      while (next_key(key)) {
        std::string name(key);  // read_value() reuses the key buffer
        out[std::move(name)] = read_value();
      }
      return Json(std::move(out));
    }
    case Json::Kind::kNumber: break;
  }
  return read_number();
}

std::string_view JsonReader::skip() {
  const Json::Kind kind = peek();
  const std::size_t start = pos_;
  switch (kind) {
    case Json::Kind::kNull: read_null(); break;
    case Json::Kind::kBool: read_bool(); break;
    case Json::Kind::kString: read_string(skip_scratch_); break;
    case Json::Kind::kArray:
      begin_array();
      while (next_element()) skip();
      break;
    case Json::Kind::kObject: {
      begin_object();
      std::string_view key;
      while (next_key(key)) skip();
      break;
    }
    case Json::Kind::kNumber: read_number(); break;
  }
  return text_.substr(start, pos_ - start);
}

void JsonReader::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing content after JSON value");
}

std::string Json::dump() const {
  std::string out;
  JsonWriter writer(out);
  write_value(writer, *this);
  return out;
}

Json Json::parse(std::string_view text) {
  JsonReader reader(text);
  Json value = reader.read_value();
  reader.finish();
  return value;
}

std::optional<Json> Json::try_parse(std::string_view text,
                                    std::string* error) {
  try {
    return parse(text);
  } catch (const JsonError& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

std::uint64_t u64_field_or(const Json& object, const std::string& key,
                           std::uint64_t fallback) {
  const Json* value = object.find(key);
  if (value == nullptr) return fallback;
  try {
    return value->as_u64();
  } catch (const JsonError&) {
    return fallback;
  }
}

double double_field_or(const Json& object, const std::string& key,
                       double fallback) {
  const Json* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_double()
                                                : fallback;
}

std::string string_field_or(const Json& object, const std::string& key,
                            std::string fallback) {
  const Json* value = object.find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : std::move(fallback);
}

Json exact_number(double value) { return Json(hexfloat(value)); }

double exact_to_double(const Json& value) {
  if (value.is_number()) return value.as_double();
  if (value.is_string()) {
    const std::string& s = value.as_string();
    double d = 0.0;
    if (parse_double(s, d)) return d;
    throw JsonError("Json: string '" + s + "' is not a number");
  }
  throw JsonError("Json: expected a number or numeric string");
}

}  // namespace moela::util
