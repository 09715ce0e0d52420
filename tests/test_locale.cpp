// Locale-independence regression tests: the serving stack's bit-identical
// guarantee must survive a hostile process locale. A daemon started under
// de_DE (radix character ',', digit grouping '.') must produce the exact
// same cache keys, hexfloat strings, JSON bytes, and parses as one started
// under C — otherwise a fleet with mixed locales silently misses its own
// cache and rejects its own wire frames. Skips when the locale is not
// installed (minimal CI images).
#include <gtest/gtest.h>

#include <clocale>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <locale>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/request.hpp"
#include "api/result_cache.hpp"
#include "api/serde.hpp"
#include "util/json.hpp"
#include "util/numeric.hpp"

namespace moela {
namespace {

// Doubles with awkward renderings: fractional (radix character exposure),
// huge (digit grouping exposure), subnormal, negative zero.
const double kProbes[] = {0.1,     1.0 / 3.0, 1.5,    -2.75e9,
                          1234567.891, 5e-324, -0.0,   1e308};

/// Applies de_DE to BOTH locale systems for the test's scope: the C locale
/// (printf/strtod honor it) and, where the system provides it, the global
/// C++ locale (iostreams imbue it at construction). Restores on scope exit
/// so the surrounding test binary stays in "C".
class ScopedGermanLocale {
 public:
  ScopedGermanLocale() {
    c_applied_ = std::setlocale(LC_ALL, "de_DE.UTF-8") != nullptr ||
                 std::setlocale(LC_ALL, "de_DE.utf8") != nullptr;
    if (!c_applied_) return;
    try {
      previous_cxx_ = std::locale::global(std::locale("de_DE.UTF-8"));
      cxx_applied_ = true;
    } catch (const std::runtime_error&) {
      // C++ locale not installed; the C-locale half still tests
      // printf/strtod paths.
    }
  }
  ~ScopedGermanLocale() {
    if (cxx_applied_) std::locale::global(previous_cxx_);
    std::setlocale(LC_ALL, "C");
  }
  bool applied() const { return c_applied_; }

 private:
  bool c_applied_ = false;
  bool cxx_applied_ = false;
  std::locale previous_cxx_;
};

#define SKIP_WITHOUT_GERMAN_LOCALE(guard)                             \
  if (!(guard).applied()) {                                           \
    GTEST_SKIP() << "de_DE.UTF-8 locale not installed on this host";  \
  }

api::RunRequest sample_request() {
  api::RunRequest request;
  request.problem = "zdt1";
  request.algorithm = "moela";
  request.options.max_evaluations = 2000;
  request.options.max_seconds = 1.0 / 3.0;
  request.options.seed = 41;
  request.options.knobs.set("moela.delta", 0.9).set("probe", 1234567.891);
  return request;
}

TEST(Locale, HexfloatFormattingIsLocaleProof) {
  std::string c_hex[std::size(kProbes)];
  std::string c_shortest[std::size(kProbes)];
  for (std::size_t i = 0; i < std::size(kProbes); ++i) {
    c_hex[i] = util::hexfloat(kProbes[i]);
    c_shortest[i] = util::shortest_double(kProbes[i]);
  }
  ScopedGermanLocale german;
  SKIP_WITHOUT_GERMAN_LOCALE(german);
  for (std::size_t i = 0; i < std::size(kProbes); ++i) {
    EXPECT_EQ(util::hexfloat(kProbes[i]), c_hex[i]);
    EXPECT_EQ(util::shortest_double(kProbes[i]), c_shortest[i]);
    double parsed = 0.0;
    ASSERT_TRUE(util::parse_double(c_hex[i], parsed)) << c_hex[i];
    EXPECT_EQ(parsed, kProbes[i]);
  }
  EXPECT_EQ(util::fixed_double(1234567.891, 3), "1234567.891");
  EXPECT_EQ(util::dec(1234567), "1234567");  // no grouping separators
}

TEST(Locale, CacheKeyIsLocaleProof) {
  const api::RunRequest request = sample_request();
  const std::string reference_key = request.cache_key();
  ASSERT_NE(reference_key.find("seconds=0x"), std::string::npos)
      << "cache key no longer carries hexfloat seconds: " << reference_key;
  ScopedGermanLocale german;
  SKIP_WITHOUT_GERMAN_LOCALE(german);
  EXPECT_EQ(request.cache_key(), reference_key);
}

TEST(Locale, SerdeRoundTripIsLocaleProof) {
  const api::RunRequest request = sample_request();
  const std::string reference_wire = api::request_to_json(request).dump();
  ScopedGermanLocale german;
  SKIP_WITHOUT_GERMAN_LOCALE(german);
  // Same bytes out...
  EXPECT_EQ(api::request_to_json(request).dump(), reference_wire);
  // ...and the German-locale process parses the C-locale frame exactly.
  const api::RunRequest decoded =
      api::request_from_json(util::Json::parse(reference_wire));
  EXPECT_EQ(decoded.options.max_seconds, request.options.max_seconds);
  EXPECT_EQ(decoded.options.knobs.values(), request.options.knobs.values());
  EXPECT_EQ(decoded.cache_key(), request.cache_key());
}

TEST(Locale, JsonNumbersAreLocaleProof) {
  ScopedGermanLocale german;
  SKIP_WITHOUT_GERMAN_LOCALE(german);
  for (double probe : kProbes) {
    const std::string wire = util::exact_number(probe).dump();
    EXPECT_EQ(wire.find(','), std::string::npos) << wire;
    const double back =
        util::exact_to_double(util::Json::parse(wire));
    EXPECT_EQ(back, probe) << wire;
  }
  // Plain (non-exact) numbers too: dump must use '.', parse must accept it.
  const std::string dumped = util::Json(0.1).dump();
  EXPECT_EQ(dumped, "0.1");
  EXPECT_EQ(util::Json::parse("1.5").as_double(), 1.5);
  EXPECT_EQ(util::Json::parse("1e-3").as_double(), 1e-3);
}

/// Groups digits in threes with '.', as de_DE does. It is built in, so the
/// test needs no system locale and runs on every host.
class DotGrouping : public std::numpunct<char> {
 protected:
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// Installs `locale` as the global C++ locale for its scope.
class ScopedGlobalLocale {
 public:
  explicit ScopedGlobalLocale(const std::locale& locale)
      : previous_(std::locale::global(locale)) {}
  ~ScopedGlobalLocale() { std::locale::global(previous_); }

 private:
  std::locale previous_;
};

/// A report whose integers each group under DotGrouping.
api::RunReport grouping_probe_report() {
  api::RunReport report;
  report.algorithm = "NSGA-II";
  report.evaluations = 1500;
  report.seconds = 1234567.891;
  report.snapshots.push_back({1000, 0.5, {{1234.5, 0.1}}});
  report.final_front = {{1234.5, 0.1}};
  report.final_objectives = {{1234.5, 0.1}};
  report.final_designs.push_back(api::AnyDesign::wrap<std::vector<double>>(
      std::vector<double>(1234, 0.25)));
  api::RunProvenance& p = report.provenance;
  p.problem = "zdt1";
  p.algorithm_key = "nsga2";
  p.seed = 123456;
  p.knobs = {{"nsga2.max_generations", 1000.0}};
  return report;
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(Locale, DiskTierIsLocaleProof) {
  namespace fs = std::filesystem;
  const api::RunReport report = grouping_probe_report();
  const std::string key = "locale-probe";
  const fs::path root = fs::path(testing::TempDir()) / "moela-locale-cache";
  fs::remove_all(root);
  const fs::path plain = root / "plain";
  const fs::path grouped = root / "grouped";
  const std::string entry = api::ResultCache::hash_key(key) + ".moela";

  api::ResultCache(plain.string()).store(key, report);
  std::optional<api::RunReport> read_while_grouped;
  {
    ScopedGlobalLocale scoped(
        std::locale(std::locale::classic(), new DotGrouping));
    std::ostringstream probe;
    probe << 123456;
    ASSERT_EQ(probe.str(), "123.456");  // the locale really groups
    api::ResultCache(grouped.string()).store(key, report);
    read_while_grouped = api::ResultCache(plain.string()).lookup(key);
  }
  // Same bytes out...
  const std::string plain_text = file_bytes(plain / entry);
  const std::string grouped_text = file_bytes(grouped / entry);
  EXPECT_TRUE(grouped_text == plain_text)
      << grouped_text.substr(0, grouped_text.find("\ndesigns"));
  // ...and each side reads the other's entry back whole.
  api::RunReport expected = report;
  expected.provenance.cache_key = key;
  expected.provenance.cache_hit = true;
  const std::string expected_bytes = api::report_to_json(expected).dump();
  const auto read_plain = api::ResultCache(grouped.string()).lookup(key);
  ASSERT_TRUE(read_plain.has_value());
  EXPECT_EQ(api::report_to_json(*read_plain).dump(), expected_bytes);
  ASSERT_TRUE(read_while_grouped.has_value());
  EXPECT_EQ(api::report_to_json(*read_while_grouped).dump(), expected_bytes);
  fs::remove_all(root);
}

}  // namespace
}  // namespace moela
