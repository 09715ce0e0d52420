// Locale-independent numeric formatting and parsing (std::to_chars /
// std::from_chars). Every value that crosses a determinism boundary — cache
// keys, the hexfloat disk tier, the line-JSON wire protocol, run logs —
// must be rendered and parsed through these helpers, never through the
// printf/strtod family: C formatting honors LC_NUMERIC, so a daemon started
// under de_DE would write "0x1,8p+1" and fail to read back its own cache.
// scripts/moela_lint.py enforces this in the wire files.
//
// hexfloat() is byte-identical to glibc's "%a" under the C locale
// (including subnormals and signed zero), so cache keys and disk files
// written by earlier printf-based builds keep their exact bytes.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace moela::util {

/// Decimal rendering of any integer type. Rejects floating-point arguments
/// at compile time — use hexfloat() (exact) or shortest_double() (display)
/// for those, so a double can never silently pick up decimal formatting.
template <typename T>
std::string dec(T value) {
  static_assert(std::is_integral_v<T>,
                "util::dec is for integers; doubles must go through "
                "hexfloat()/shortest_double()");
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

/// Appends hexfloat(value) to `out` without a temporary string.
inline void append_hexfloat(std::string& out, double value) {
  char buffer[40];
  char* cursor = buffer;
  double magnitude = value;
  if (std::signbit(value)) {
    *cursor++ = '-';
    magnitude = -value;
  }
  *cursor++ = '0';
  *cursor++ = 'x';
  const auto result = std::to_chars(cursor, buffer + sizeof(buffer),
                                    magnitude, std::chars_format::hex);
  if (result.ec != std::errc()) {
    out += "0x0p+0";  // cannot happen: buffer fits
    return;
  }
  out.append(buffer, result.ptr);
}

/// Bit-exact hexfloat rendering ("0x1.8p+1"), locale-independent.
inline std::string hexfloat(double value) {
  std::string out;
  append_hexfloat(out, value);
  return out;
}

/// Shortest decimal string that round-trips the double ("0.1", "1e+300").
/// For human-facing output; exactness-critical paths use hexfloat().
inline std::string shortest_double(double value) {
  char buffer[40];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

/// printf "%.*f" equivalent (fixed notation), locale-independent.
inline std::string fixed_double(double value, int precision) {
  char buffer[512];  // fixed notation of 1e308 needs ~310 digits
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::fixed, precision);
  if (result.ec != std::errc()) return "inf";
  return std::string(buffer, result.ptr);
}

/// Full-token double parse, locale-independent. Accepts everything the wire
/// carries: decimal ("1.5", "1e-3"), hexfloat with the 0x prefix
/// ("0x1.8p+1"), optional +/- sign, and inf/nan spellings. Returns false
/// (leaving `out` untouched) on empty input, trailing junk, or overflow.
inline bool parse_double(std::string_view token, double& out) {
  if (token.empty()) return false;
  bool negative = false;
  if (token.front() == '+' || token.front() == '-') {
    negative = token.front() == '-';
    token.remove_prefix(1);
    if (token.empty()) return false;
  }
  auto format = std::chars_format::general;
  if (token.size() > 2 && token[0] == '0' &&
      (token[1] == 'x' || token[1] == 'X')) {
    format = std::chars_format::hex;
    token.remove_prefix(2);
  }
  double magnitude = 0.0;
  const auto result =
      std::from_chars(token.data(), token.data() + token.size(), magnitude,
                      format);
  if (result.ec != std::errc() || result.ptr != token.data() + token.size()) {
    return false;
  }
  out = negative ? -magnitude : magnitude;
  return true;
}

/// Full-token base-10 unsigned parse. No sign, no whitespace, no suffix.
inline bool parse_u64(std::string_view token, std::uint64_t& out) {
  if (token.empty()) return false;
  std::uint64_t value = 0;
  const auto result =
      std::from_chars(token.data(), token.data() + token.size(), value, 10);
  if (result.ec != std::errc() || result.ptr != token.data() + token.size()) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace moela::util
