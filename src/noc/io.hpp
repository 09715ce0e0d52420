// Plain-text (de)serialization for designs, so explorations can be
// checkpointed, diffed, and handed to downstream tooling.
//
// Format (line-oriented):
//   noc-design v1
//   placement <core ids, one line, tile order>
//   links <count>
//   <a> <b>            (one line per link)
//
// Whole-line '#' comments and blank lines may appear anywhere. Every other
// line must hold exactly what design_to_string writes: the tokens above,
// one space apart, with ids in decimal and within their integer types.
// Anything else throws, so a damaged text never decodes as some other
// design. The parser does not know the platform: whether each id names one
// of its cores and tiles is validate()'s job (noc/constraints.hpp).
#pragma once

#include <string>
#include <string_view>

#include "noc/design.hpp"

namespace moela::noc {

/// Writes `design` in the v1 text format.
std::string design_to_string(const NocDesign& design);

/// Parses one v1 design from the front of `text` and advances `text` past
/// it. Throws std::runtime_error on malformed input. The result is
/// syntactically well-formed but NOT constraint-checked; call validate()
/// for that.
NocDesign read_design(std::string_view& text);

/// Parses a text that holds exactly one v1 design (comments and blank lines
/// aside). Throws std::runtime_error on malformed input.
NocDesign design_from_string(std::string_view text);

}  // namespace moela::noc
