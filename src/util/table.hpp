// Plain-text table rendering for benchmark output. The bench harness prints
// the same rows the paper's tables report; this keeps the formatting in one
// place.
#pragma once

#include <string>
#include <vector>

namespace moela::util {

/// A simple column-aligned text table with an optional title, rendered in
/// GitHub-flavored-markdown style (usable both in terminals and docs).
class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  /// Sets the header row. Must be called before any add_row.
  void set_header(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  void add_row_numeric(const std::string& label,
                       const std::vector<double>& values, int precision = 2);

  /// Renders the table as markdown.
  std::string to_string() const;

  /// Renders rows as CSV (header first), no title.
  std::string to_csv() const;

  /// Prints to stdout.
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper for table cells).
std::string fmt(double v, int precision = 2);
/// Formats as a multiplicative factor, e.g. "12.3x".
std::string fmt_factor(double v, int precision = 2);
/// Formats as a percentage, e.g. "42%". `v` is a fraction (0.42 -> "42%").
std::string fmt_percent(double v, int precision = 0);

}  // namespace moela::util
