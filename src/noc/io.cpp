#include "noc/io.hpp"

#include <iomanip>
#include <istream>
#include <locale>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/numeric.hpp"

namespace moela::noc {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("noc::io: " + what);
}

/// Reads the next non-comment, non-empty line.
bool next_line(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    return true;
  }
  return false;
}

std::istringstream expect_line(std::istream& is, const std::string& context) {
  std::string line;
  if (!next_line(is, line)) fail("unexpected end of input in " + context);
  return std::istringstream(line);
}

}  // namespace

void write_design(std::ostream& os, const NocDesign& design) {
  os << design_to_string(design);
}

NocDesign read_design(std::istream& is) {
  is.imbue(std::locale::classic());
  {
    auto header = expect_line(is, "design header");
    std::string magic, version;
    header >> magic >> version;
    if (magic != "noc-design" || version != "v1") {
      fail("bad design header");
    }
  }
  NocDesign design;
  {
    auto line = expect_line(is, "placement");
    std::string tag;
    line >> tag;
    if (tag != "placement") fail("expected 'placement'");
    unsigned value = 0;
    while (line >> value) {
      design.placement.push_back(static_cast<CoreId>(value));
    }
    if (design.placement.empty()) fail("empty placement");
  }
  std::size_t link_count = 0;
  {
    auto line = expect_line(is, "links");
    std::string tag;
    line >> tag >> link_count;
    if (tag != "links") fail("expected 'links'");
  }
  design.links.reserve(link_count);
  for (std::size_t k = 0; k < link_count; ++k) {
    auto line = expect_line(is, "link entry");
    unsigned a = 0, b = 0;
    if (!(line >> a >> b)) fail("malformed link entry");
    design.links.emplace_back(static_cast<TileId>(a),
                              static_cast<TileId>(b));
  }
  design.canonicalize();
  return design;
}

std::string design_to_string(const NocDesign& design) {
  // util::dec renders through to_chars, so no locale can insert digit
  // grouping into a serialized design.
  std::string out = "noc-design v1\nplacement";
  for (CoreId c : design.placement) {
    out += ' ';
    out += util::dec(c);
  }
  out += "\nlinks ";
  out += util::dec(design.links.size());
  out += '\n';
  for (const Link& l : design.links) {
    out += util::dec(l.a);
    out += ' ';
    out += util::dec(l.b);
    out += '\n';
  }
  return out;
}

NocDesign design_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_design(is);
}

void write_workload(std::ostream& os, const Workload& workload) {
  os.imbue(std::locale::classic());
  // Round-trip exact doubles.
  os << std::setprecision(17);
  os << "noc-workload v1 " << workload.name << '\n';
  os << "cores " << workload.core_power.size() << '\n';
  os << "power";
  for (double p : workload.core_power) os << ' ' << p;
  os << '\n';
  std::size_t nonzero = 0;
  const std::size_t n = workload.traffic.num_cores();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (workload.traffic(i, j) != 0.0) ++nonzero;
    }
  }
  os << "traffic " << nonzero << '\n';
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double f = workload.traffic(i, j);
      if (f != 0.0) os << i << ' ' << j << ' ' << f << '\n';
    }
  }
}

Workload read_workload(std::istream& is) {
  is.imbue(std::locale::classic());
  Workload w;
  {
    auto header = expect_line(is, "workload header");
    std::string magic, version;
    header >> magic >> version >> w.name;
    if (magic != "noc-workload" || version != "v1") {
      fail("bad workload header");
    }
  }
  std::size_t cores = 0;
  {
    auto line = expect_line(is, "cores");
    std::string tag;
    line >> tag >> cores;
    if (tag != "cores" || cores == 0) fail("expected 'cores <n>'");
  }
  {
    auto line = expect_line(is, "power");
    std::string tag;
    line >> tag;
    if (tag != "power") fail("expected 'power'");
    double p = 0.0;
    while (line >> p) w.core_power.push_back(p);
    if (w.core_power.size() != cores) fail("power entry count mismatch");
  }
  std::size_t nonzero = 0;
  {
    auto line = expect_line(is, "traffic");
    std::string tag;
    line >> tag >> nonzero;
    if (tag != "traffic") fail("expected 'traffic'");
  }
  w.traffic = TrafficMatrix(cores);
  for (std::size_t k = 0; k < nonzero; ++k) {
    auto line = expect_line(is, "traffic entry");
    std::size_t i = 0, j = 0;
    double f = 0.0;
    if (!(line >> i >> j >> f) || i >= cores || j >= cores) {
      fail("malformed traffic entry");
    }
    w.traffic(i, j) = f;
  }
  return w;
}

std::string workload_to_string(const Workload& workload) {
  std::ostringstream os;
  write_workload(os, workload);
  return os.str();
}

Workload workload_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_workload(is);
}

}  // namespace moela::noc
