#include "trace.hpp"

#include <algorithm>
#include <fstream>

#include "util/json.hpp"

namespace perfbench {

std::vector<std::int64_t> SpanRecorder::self_ns() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> out(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    covered.reserve(children[i].size());
    for (std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans_[c].start_ns, span.start_ns);
      const std::int64_t hi = std::min(spans_[c].end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t coverage = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) coverage += hi - from;
      reach = std::max(reach, hi);
    }
    out[i] = (span.end_ns - span.start_ns) - coverage;
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& span : spans_) {
    moela::util::Json line = moela::util::Json::object();
    line.set("name", span.name);
    line.set("start_ns", static_cast<double>(span.start_ns));
    line.set("end_ns", static_cast<double>(span.end_ns));
    line.set("parent", static_cast<double>(span.parent));
    line.set("run", static_cast<double>(span.run));
    out << line.dump() << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
