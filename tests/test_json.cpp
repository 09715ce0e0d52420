// Tests for the dependency-free JSON reader/writer (util/json.hpp): kinds
// and accessors, compact deterministic dumping, strict parsing (errors,
// escapes, depth cap), round-trips, and the hexfloat exact-double carrier
// the serving protocol depends on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace moela::util {
namespace {

TEST(Json, KindsAndAccessors) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(2.5).is_number());
  EXPECT_TRUE(Json(std::uint64_t{7}).is_number());
  EXPECT_TRUE(Json("x").is_string());
  EXPECT_TRUE(Json::array().is_array());
  EXPECT_TRUE(Json::object().is_object());

  EXPECT_EQ(Json(true).as_bool(), true);
  EXPECT_EQ(Json(2.5).as_double(), 2.5);
  EXPECT_EQ(Json(std::uint64_t{7}).as_u64(), 7u);
  EXPECT_EQ(Json("x").as_string(), "x");

  // Cross-kind access throws, never silently coerces.
  EXPECT_THROW(Json("x").as_bool(), JsonError);
  EXPECT_THROW(Json(true).as_double(), JsonError);
  EXPECT_THROW(Json(2.5).as_string(), JsonError);
  EXPECT_THROW(Json(2.5).as_u64(), JsonError);  // not integral
}

TEST(Json, U64RoundTripsExactly) {
  // Above 2^53: a double detour would corrupt it.
  const std::uint64_t big = (1ull << 63) + 12345;
  const Json parsed = Json::parse(Json(big).dump());
  EXPECT_EQ(parsed.as_u64(), big);
  // Integral doubles are accepted by as_u64.
  EXPECT_EQ(Json(42.0).as_u64(), 42u);
}

TEST(Json, DumpIsCompactSortedAndSingleLine) {
  Json o = Json::object();
  o.set("zeta", 1).set("alpha", Json::array().append("a\nb"));
  // std::map ordering makes the output canonical; the embedded newline is
  // escaped so one value is always one line.
  EXPECT_EQ(o.dump(), "{\"alpha\":[\"a\\nb\"],\"zeta\":1}");
  EXPECT_EQ(o.dump().find('\n'), std::string::npos);
}

TEST(Json, ParsesNestedDocument) {
  const Json v = Json::parse(
      R"({"a": [1, -2.5, true, null], "b": {"c": "str"}, "d": false})");
  EXPECT_EQ(v.find("a")->as_array().size(), 4u);
  EXPECT_EQ(v.find("a")->as_array()[0].as_u64(), 1u);
  EXPECT_EQ(v.find("a")->as_array()[1].as_double(), -2.5);
  EXPECT_TRUE(v.find("a")->as_array()[3].is_null());
  EXPECT_EQ(v.find("b")->find("c")->as_string(), "str");
  EXPECT_EQ(v.find("b")->find("missing"), nullptr);
  EXPECT_EQ(v.find("d")->as_bool(), false);
}

TEST(Json, RoundTripsThroughDump) {
  const char* docs[] = {
      "null", "true", "[1,2,3]", "{\"a\":{\"b\":[[]]}}",
      "{\"s\":\"quote \\\" backslash \\\\ tab \\t\"}",
      "[0.125,1e-3,123456789012345678]",
  };
  for (const char* doc : docs) {
    const Json first = Json::parse(doc);
    const Json second = Json::parse(first.dump());
    EXPECT_EQ(first, second) << doc;
    EXPECT_EQ(first.dump(), second.dump()) << doc;
  }
}

TEST(Json, StringEscapes) {
  const Json v = Json::parse(R"("a\u0041\n\u00e9\u20ac")");
  EXPECT_EQ(v.as_string(), "aA\n\xc3\xa9\xe2\x82\xac");  // é and € in UTF-8
  // Surrogate pair → U+1F600.
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
  EXPECT_THROW(Json::parse(R"("\ud83d")"), JsonError);  // lone surrogate
}

TEST(Json, RejectsMalformedInput) {
  const char* bad[] = {
      "",      "{",        "[1,",     "tru",        "1 2",
      "{a:1}", "[01x]",    "\"\x01\"", "{\"a\":}",  "nul",
  };
  for (const char* doc : bad) {
    EXPECT_THROW(Json::parse(doc), JsonError) << "'" << doc << "'";
    std::string error;
    EXPECT_FALSE(Json::try_parse(doc, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(Json, DepthIsCapped) {
  std::string deep;
  for (int i = 0; i < 500; ++i) deep += '[';
  for (int i = 0; i < 500; ++i) deep += ']';
  EXPECT_THROW(Json::parse(deep), JsonError);
}

TEST(Json, ExactNumberRoundTripsDoublesBitForBit) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           0.1,
                           -2.5e-300,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::infinity()};
  for (double v : values) {
    const Json carried = Json::parse(exact_number(v).dump());
    const double back = exact_to_double(carried);
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << v;
  }
  // NaN: payload comparison is overkill, but it must stay NaN.
  EXPECT_TRUE(std::isnan(exact_to_double(
      Json::parse(exact_number(std::nan("")).dump()))));
  // Plain numbers are accepted too (hand-written requests).
  EXPECT_EQ(exact_to_double(Json(2.5)), 2.5);
  EXPECT_THROW(exact_to_double(Json("not-a-number")), JsonError);
}

// --- the streaming halves ------------------------------------------------

TEST(JsonWriter, WritesDumpBytes) {
  Json tree = Json::object();
  tree.set("a", Json::array()
                    .append(Json())
                    .append(true)
                    .append(2.5)
                    .append(std::uint64_t{18446744073709551615ull})
                    .append(std::numeric_limits<double>::infinity())
                    .append(-3.0))
      .set("b\n\"", exact_number(-0.0))
      .set("c", Json::object().set("d", Json::array()));
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("a").begin_array().null().boolean(true).number(2.5);
  w.number(std::uint64_t{18446744073709551615ull});
  w.number(std::numeric_limits<double>::infinity()).number(-3.0);
  w.end_array();
  w.key("b\n\"").exact(-0.0);
  w.key("c").begin_object().key("d").begin_array().end_array().end_object();
  w.end_object();
  EXPECT_EQ(out, tree.dump());
}

TEST(JsonReader, SkipAcceptsAndRejectsWhatParseDoes) {
  std::string deep;
  for (int i = 0; i < 101; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < 101; ++i) deep += ']';
  const std::string docs[] = {
      "",         "{",          "[1,",      "tru",         "1 2",
      "{a:1}",    "[01x]",      "\"\x01\"", "{\"a\":}",    "nul",
      "[1,2]",    "{\"a\":[{}]}", "-0.5e3",   "\"\\ud83d\"", deep,
      deep.substr(1, deep.size() - 2), "  null ", "{\"a\":1,}",
  };
  for (const std::string& doc : docs) {
    std::string parse_error, skip_error;
    try {
      (void)Json::parse(doc);
    } catch (const JsonError& e) {
      parse_error = e.what();
    }
    try {
      JsonReader reader(doc);
      reader.skip();
      reader.finish();
    } catch (const JsonError& e) {
      skip_error = e.what();
    }
    EXPECT_EQ(skip_error, parse_error) << "'" << doc << "'";
  }
}

TEST(JsonReader, PullsMembersWithoutATree) {
  const std::string text =
      R"({"n":7, "s":"plain", "e":"a\nb", "k\u0041":[1.5,"0x1p-1"],)"
      R"( "skip":{"x":[null,true]}})";
  JsonReader reader(text);
  reader.begin_object();
  std::string scratch;
  std::vector<std::string> keys;
  std::string_view key;
  while (reader.next_key(key)) {
    keys.emplace_back(key);
    if (key == "n") {
      EXPECT_EQ(reader.read_number().as_u64(), 7u);
    } else if (key == "s") {
      const std::string_view value = reader.read_string(scratch);
      EXPECT_EQ(value, "plain");
      // No escape: the view points into the text, nothing is copied.
      EXPECT_GE(value.data(), text.data());
      EXPECT_LT(value.data(), text.data() + text.size());
    } else if (key == "e") {
      EXPECT_EQ(reader.read_string(), "a\nb");
    } else if (key == "kA") {
      reader.begin_array();
      ASSERT_TRUE(reader.next_element());
      EXPECT_EQ(reader.peek(), Json::Kind::kNumber);
      EXPECT_EQ(reader.read_number().as_double(), 1.5);
      ASSERT_TRUE(reader.next_element());
      EXPECT_EQ(exact_to_double(reader.read_value()), 0.5);
      EXPECT_FALSE(reader.next_element());
    } else {
      EXPECT_EQ(reader.skip(), R"({"x":[null,true]})");
    }
  }
  reader.finish();
  EXPECT_EQ(keys, (std::vector<std::string>{"n", "s", "e", "kA", "skip"}));
}

}  // namespace
}  // namespace moela::util
