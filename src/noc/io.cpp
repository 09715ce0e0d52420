#include "noc/io.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <system_error>

namespace moela::noc {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("noc::io: " + what);
}

/// Takes the next line that is neither blank nor a '#' comment off the
/// front of `text`, without its '\n' (the last line may lack one). False
/// when only blank and comment lines are left.
bool next_line(std::string_view& text, std::string_view& line) {
  while (!text.empty()) {
    const std::size_t end = text.find('\n');
    line = text.substr(0, end);
    text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first != std::string_view::npos && line[first] != '#') return true;
  }
  return false;
}

std::string_view expect_line(std::string_view& text, const char* context) {
  std::string_view line;
  if (!next_line(text, line)) {
    fail(std::string("unexpected end of input in ") + context);
  }
  return line;
}

/// Strips `prefix` off the front of `line`.
bool take_prefix(std::string_view& line, std::string_view prefix) {
  if (line.substr(0, prefix.size()) != prefix) return false;
  line.remove_prefix(prefix.size());
  return true;
}

/// Takes a decimal number off the front of `line`, plus the space before
/// the next one. It must fit `out` and carry no sign and no leading zero;
/// a space must be followed by another number.
template <typename T>
bool take_number(std::string_view& line, T& out) {
  const char* first = line.data();
  const auto [end, ec] = std::from_chars(first, first + line.size(), out);
  if (ec != std::errc() || (*first == '0' && end - first > 1)) return false;
  line.remove_prefix(static_cast<std::size_t>(end - first));
  if (line.empty()) return true;
  if (line.size() == 1 || line.front() != ' ') return false;
  line.remove_prefix(1);
  return true;
}

}  // namespace

std::string design_to_string(const NocDesign& design) {
  // Sized for the widest ids, then filled by to_chars, so no locale can
  // insert digit grouping into a serialized design.
  std::string out(64 + 6 * design.placement.size() + 12 * design.links.size(),
                  '\0');
  char* cursor = out.data();
  char* const end = cursor + out.size();
  const auto put = [&](std::string_view text) {
    cursor = std::copy(text.begin(), text.end(), cursor);
  };
  const auto put_number = [&](std::size_t value) {
    cursor = std::to_chars(cursor, end, value).ptr;
  };
  put("noc-design v1\nplacement");
  for (CoreId c : design.placement) {
    *cursor++ = ' ';
    put_number(c);
  }
  put("\nlinks ");
  put_number(design.links.size());
  *cursor++ = '\n';
  for (const Link& l : design.links) {
    put_number(l.a);
    *cursor++ = ' ';
    put_number(l.b);
    *cursor++ = '\n';
  }
  out.resize(static_cast<std::size_t>(cursor - out.data()));
  return out;
}

NocDesign read_design(std::string_view& text) {
  if (expect_line(text, "design header") != "noc-design v1") {
    fail("bad design header");
  }
  NocDesign design;
  std::string_view line = expect_line(text, "placement");
  if (!take_prefix(line, "placement ") || line.empty()) {
    fail("expected 'placement <core ids>'");
  }
  while (!line.empty()) {
    CoreId core = 0;
    if (!take_number(line, core)) fail("malformed placement");
    design.placement.push_back(core);
  }
  line = expect_line(text, "links");
  std::size_t link_count = 0;
  if (!take_prefix(line, "links ") || !take_number(line, link_count) ||
      !line.empty()) {
    fail("expected 'links <count>'");
  }
  // A link line takes at least four bytes, so a damaged count cannot
  // reserve more than the text could hold.
  design.links.reserve(std::min(link_count, text.size() / 4));
  for (std::size_t k = 0; k < link_count; ++k) {
    line = expect_line(text, "link entry");
    TileId a = 0, b = 0;
    if (!take_number(line, a) || !take_number(line, b) || !line.empty()) {
      fail("malformed link entry");
    }
    design.links.emplace_back(a, b);
  }
  design.canonicalize();
  return design;
}

NocDesign design_from_string(std::string_view text) {
  NocDesign design = read_design(text);
  std::string_view trailing;
  if (next_line(text, trailing)) fail("text after the design");
  return design;
}

}  // namespace moela::noc
