#include "api/result_cache.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <concepts>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include "noc/design.hpp"
#include "noc/io.hpp"
#include "util/file.hpp"
#include "util/numeric.hpp"

namespace moela::api {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------------ writer
// Doubles are hexfloats (util::append_hexfloat, the rendering cache keys
// use) and integers go through util::dec, so no locale reaches the bytes.

void put_one(std::string& out, std::string_view text) { out += text; }
void put_one(std::string& out, char c) { out += c; }
void put_one(std::string& out, double value) {
  util::append_hexfloat(out, value);
}
template <std::unsigned_integral T>
void put_one(std::string& out, T value) { out += util::dec(value); }

/// Appends each piece: text as is, integers in decimal, doubles as
/// hexfloats.
template <typename... Pieces>
void put(std::string& out, const Pieces&... pieces) {
  (put_one(out, pieces), ...);
}

/// "<rows> <width>\n", then each row's values one space apart.
void put_rows(std::string& out,
              const std::vector<moo::ObjectiveVector>& rows) {
  put(out, rows.size(), ' ', rows.empty() ? 0 : rows.front().size(), '\n');
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      put(out, i == 0 ? "" : " ", row[i]);
    }
    out += '\n';
  }
}

/// "<size> <value>...\n" per design.
template <typename T>
void put_vectors(std::string& out, const std::vector<AnyDesign>& designs) {
  for (const auto& d : designs) {
    const auto& values = d.as<std::vector<T>>();
    put(out, values.size());
    for (const T value : values) put(out, ' ', value);
    out += '\n';
  }
}

// Codec for the library's design types. Unknown types serialize as "none"
// (the report is still useful for fronts/traces; lookups that need designs
// reject it).
void put_designs(std::string& out, const std::vector<AnyDesign>& designs) {
  const std::type_info& t =
      designs.empty() ? typeid(void) : designs.front().type();
  if (t == typeid(std::vector<double>)) {
    put(out, "designs real ", designs.size(), '\n');
    put_vectors<double>(out, designs);
  } else if (t == typeid(std::vector<std::uint8_t>)) {
    put(out, "designs binary ", designs.size(), '\n');
    put_vectors<std::uint8_t>(out, designs);
  } else if (t == typeid(noc::NocDesign)) {
    put(out, "designs noc ", designs.size(), '\n');
    for (const auto& d : designs) {
      out += noc::design_to_string(d.as<noc::NocDesign>());
    }
  } else {
    out += "designs none 0\n";
  }
}

// ------------------------------------------------------------------ reader

/// Reads an entry line by line. Every line ends in '\n' and holds exactly
/// the fields the writer wrote, one space apart; the readers below turn any
/// other text into a miss.
class EntryReader {
 public:
  explicit EntryReader(std::string_view text) : rest_(text) {}

  /// Moves to the next line; false when no whole line is left.
  bool next_line() {
    const std::size_t end = rest_.find('\n');
    if (end == std::string_view::npos) return false;
    line_ = rest_.substr(0, end);
    rest_.remove_prefix(end + 1);
    open_ = !line_.empty();
    return true;
  }
  /// Moves to the next line and takes its first field, which must be `tag`.
  bool next_line(std::string_view tag) {
    std::string_view first;
    return next_line() && field(first) && first == tag;
  }

  /// Takes the current line's next field; false when none is left or it is
  /// empty (two spaces in a row, a space at the end).
  bool field(std::string_view& out) {
    if (!open_) return false;
    const std::size_t end = line_.find(' ');
    out = line_.substr(0, end);
    if (end == std::string_view::npos) {
      open_ = false;
    } else {
      line_.remove_prefix(end + 1);
    }
    return !out.empty();
  }
  /// Takes the next field as a decimal number that must fit `out`.
  template <std::unsigned_integral T>
  bool field(T& out) {
    std::string_view token;
    std::uint64_t value = 0;
    if (!field(token) || !util::parse_u64(token, value) ||
        value > std::numeric_limits<T>::max()) {
      return false;
    }
    out = static_cast<T>(value);
    return true;
  }
  bool field(double& out) {
    std::string_view token;
    return field(token) && util::parse_double(token, out);
  }
  /// Takes the rest of the current line, spaces and all; false when the
  /// line has nothing left, not even the space after a tag.
  bool rest_of_line(std::string_view& out) {
    if (!open_) return false;
    out = line_;
    open_ = false;
    return true;
  }
  /// True when the current line has no field left.
  bool line_done() const { return !open_; }

  /// The text after the current line, for a sub-reader to consume.
  std::string_view& rest() { return rest_; }

 private:
  std::string_view rest_;
  std::string_view line_;
  bool open_ = false;
};

/// Reads a "<tag> <value>" line, `-` standing for an empty name.
bool read_name(EntryReader& in, std::string_view tag, std::string& out) {
  std::string_view value;
  if (!in.next_line(tag) || !in.field(value) || !in.line_done()) return false;
  out = value == "-" ? std::string() : std::string(value);
  return true;
}

/// Reads a "<tag> <number>" line.
template <typename T>
bool read_tagged(EntryReader& in, std::string_view tag, T& out) {
  return in.next_line(tag) && in.field(out) && in.line_done();
}

/// Reads the `count` values that end the current line.
template <typename T>
bool read_values(EntryReader& in, std::size_t count, std::vector<T>& out) {
  for (std::size_t i = 0; i < count; ++i) {
    T value{};
    if (!in.field(value)) return false;
    out.push_back(value);
  }
  return in.line_done();
}

/// Reads the "<rows> <width>" fields that end the current line, then the
/// rows.
bool read_rows(EntryReader& in, std::vector<moo::ObjectiveVector>& out) {
  std::size_t rows = 0, width = 0;
  if (!in.field(rows) || !in.field(width) || !in.line_done()) return false;
  for (std::size_t r = 0; r < rows; ++r) {
    moo::ObjectiveVector row;
    if (!in.next_line() || !read_values(in, width, row)) return false;
    out.push_back(std::move(row));
  }
  return true;
}

template <typename T>
bool read_vectors(EntryReader& in, std::size_t count,
                  std::vector<AnyDesign>& out) {
  for (std::size_t k = 0; k < count; ++k) {
    std::vector<T> values;
    std::size_t size = 0;
    if (!in.next_line() || !in.field(size) || !read_values(in, size, values)) {
      return false;
    }
    out.push_back(AnyDesign::wrap<std::vector<T>>(std::move(values)));
  }
  return true;
}

bool read_designs(EntryReader& in, std::vector<AnyDesign>& out) {
  std::string_view kind;
  std::size_t count = 0;
  if (!in.next_line("designs") || !in.field(kind) || !in.field(count) ||
      !in.line_done()) {
    return false;
  }
  if (kind == "none") return count == 0;
  if (kind == "real") return read_vectors<double>(in, count, out);
  if (kind == "binary") return read_vectors<std::uint8_t>(in, count, out);
  if (kind != "noc") return false;
  try {
    for (std::size_t k = 0; k < count; ++k) {
      out.push_back(
          AnyDesign::wrap<noc::NocDesign>(noc::read_design(in.rest())));
    }
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

namespace detail {

void write_report(std::string& out, const std::string& key,
                  const RunReport& report) {
  const RunProvenance& p = report.provenance;
  put(out, "moela-report v1\nkey ", key, "\nalgorithm ", report.algorithm,
      "\nproblem ", p.problem.empty() ? "-" : p.problem, "\nalgorithm_key ",
      p.algorithm_key.empty() ? "-" : p.algorithm_key, "\nseed ", p.seed,
      "\nevaluations ", report.evaluations, "\nseconds ", report.seconds,
      "\nknobs ", p.knobs.size(), '\n');
  for (const auto& [name, value] : p.knobs) put(out, name, ' ', value, '\n');
  put(out, "snapshots ", report.snapshots.size(), '\n');
  for (const auto& s : report.snapshots) {
    put(out, "snapshot ", s.evaluations, ' ', s.seconds, ' ');
    put_rows(out, s.front);
  }
  out += "front ";
  put_rows(out, report.final_front);
  out += "objectives ";
  put_rows(out, report.final_objectives);
  put_designs(out, report.final_designs);
}

std::optional<RunReport> read_report(std::string_view text,
                                     const std::string& key) {
  // A cut-short entry (a crash or a full disk mid-write) lacks the final
  // newline or whole lines; either way it is a miss.
  if (text.empty() || text.back() != '\n') return std::nullopt;
  EntryReader in(text);
  std::string_view line;
  if (!in.next_line() || !in.rest_of_line(line) || line != "moela-report v1") {
    return std::nullopt;
  }
  // The embedded key turns a hash collision into a miss.
  if (!in.next_line("key") || !in.rest_of_line(line) || line != key) {
    return std::nullopt;
  }
  RunReport report;
  if (!in.next_line("algorithm") || !in.rest_of_line(line)) {
    return std::nullopt;
  }
  report.algorithm = line;
  RunProvenance& p = report.provenance;
  std::size_t knob_count = 0;
  if (!read_name(in, "problem", p.problem) ||
      !read_name(in, "algorithm_key", p.algorithm_key) ||
      !read_tagged(in, "seed", p.seed) ||
      !read_tagged(in, "evaluations", report.evaluations) ||
      !read_tagged(in, "seconds", report.seconds) ||
      !read_tagged(in, "knobs", knob_count)) {
    return std::nullopt;
  }
  for (std::size_t k = 0; k < knob_count; ++k) {
    std::string_view name;
    double value = 0.0;
    if (!in.next_line() || !in.field(name) || !in.field(value) ||
        !in.line_done()) {
      return std::nullopt;
    }
    p.knobs[std::string(name)] = value;
  }
  std::size_t snapshot_count = 0;
  if (!read_tagged(in, "snapshots", snapshot_count)) return std::nullopt;
  for (std::size_t k = 0; k < snapshot_count; ++k) {
    core::ArchiveSnapshot s;
    if (!in.next_line("snapshot") || !in.field(s.evaluations) ||
        !in.field(s.seconds) || !read_rows(in, s.front)) {
      return std::nullopt;
    }
    report.snapshots.push_back(std::move(s));
  }
  if (!in.next_line("front") || !read_rows(in, report.final_front) ||
      !in.next_line("objectives") ||
      !read_rows(in, report.final_objectives) ||
      !read_designs(in, report.final_designs) || !in.rest().empty()) {
    return std::nullopt;
  }
  p.cache_key = key;
  return report;
}

}  // namespace detail

std::string ResultCache::default_disk_dir() {
  if (const char* dir = std::getenv("MOELA_CACHE_DIR");
      dir != nullptr && *dir != '\0') {
    return dir;
  }
  if (const char* xdg = std::getenv("XDG_CACHE_HOME");
      xdg != nullptr && *xdg != '\0') {
    return std::string(xdg) + "/moela";
  }
  if (const char* home = std::getenv("HOME");
      home != nullptr && *home != '\0') {
    return std::string(home) + "/.cache/moela";
  }
  return ".moela-cache";
}

std::uintmax_t ResultCache::default_max_disk_bytes() {
  if (const char* env = std::getenv("MOELA_CACHE_MAX_BYTES");
      env != nullptr && *env != '\0') {
    // "0" is a valid setting: it disables the cap entirely.
    std::uint64_t parsed = 0;
    if (util::parse_u64(env, parsed)) return parsed;
  }
  return 1ull << 30;  // 1 GiB
}

std::string ResultCache::hash_key(const std::string& key) {
  // FNV-1a 64-bit.
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

std::optional<RunReport> ResultCache::lookup(const std::string& key,
                                             bool need_designs) {
  if (key.empty()) return std::nullopt;
  {
    util::MutexLock lock(mutex_);
    auto it = memory_.find(key);
    // The designs check also applies here: a disk entry stored without
    // designs gets promoted into the memory tier below, and must not
    // satisfy a need_designs lookup from memory either.
    if (it != memory_.end() &&
        (!need_designs || !it->second.final_designs.empty())) {
      ++stats_.memory_hits;
      if (metric_memory_hits_ != nullptr) metric_memory_hits_->add();
      RunReport hit = it->second;
      hit.provenance.cache_hit = true;
      return hit;
    }
  }
  if (!dir_.empty()) {
    const fs::path path = fs::path(dir_) / (hash_key(key) + ".moela");
    if (const auto text = util::read_file(path.string())) {
      auto report = detail::read_report(*text, key);
      if (report.has_value() &&
          (!need_designs || !report->final_designs.empty())) {
        report->provenance.cache_hit = true;
        // Refresh the entry's file time so the size cap evicts
        // least-recently-USED, not least-recently-written.
        std::error_code ec;
        fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
        util::MutexLock lock(mutex_);
        ++stats_.disk_hits;
        if (metric_disk_hits_ != nullptr) metric_disk_hits_->add();
        memory_.emplace(key, *report);
        return report;
      }
    }
  }
  util::MutexLock lock(mutex_);
  ++stats_.misses;
  if (metric_misses_ != nullptr) metric_misses_->add();
  return std::nullopt;
}

void ResultCache::store(const std::string& key, const RunReport& report) {
  if (key.empty() || report.provenance.cancelled) return;
  {
    util::MutexLock lock(mutex_);
    memory_.insert_or_assign(key, report);
    ++stats_.stores;
    if (metric_stores_ != nullptr) metric_stores_->add();
  }
  if (dir_.empty()) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return;  // cache is best-effort: an unwritable dir is not an error
  const std::string name = hash_key(key) + ".moela";
  std::string text;
  detail::write_report(text, key, report);
  if (util::write_file_atomic((fs::path(dir_) / name).string(), text) &&
      max_disk_bytes() > 0) {
    enforce_disk_cap(name);
  }
}

void ResultCache::enforce_disk_cap(const std::string& keep) {
  // One cap snapshot for the whole pass, so a concurrent
  // set_max_disk_bytes() cannot make the two threshold checks disagree.
  const std::uintmax_t cap = max_disk_bytes();
  std::error_code ec;
  struct Entry {
    fs::path path;
    std::pair<std::int64_t, std::int64_t> used;  // mtime: seconds, ns
    std::uintmax_t size;
  };
  std::vector<Entry> entries;
  std::uintmax_t total = 0;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::path& path = it->path();
    if (path.extension() != ".moela") continue;  // not temp files
    // One stat for both fields: directory_entry's last_write_time() and
    // file_size() each stat the file again.
    struct stat info {};
    if (::stat(path.c_str(), &info) != 0) {
      return;  // racing another process; try again next store
    }
    Entry entry{path, {info.st_mtim.tv_sec, info.st_mtim.tv_nsec},
                static_cast<std::uintmax_t>(info.st_size)};
    total += entry.size;
    entries.push_back(std::move(entry));
  }
  if (total <= cap) return;
  // Oldest-used first; the just-written entry sorts last so it only goes
  // when it alone exceeds the cap.
  std::sort(entries.begin(), entries.end(), [&](const Entry& a,
                                                const Entry& b) {
    const bool a_keep = a.path.filename() == keep;
    const bool b_keep = b.path.filename() == keep;
    if (a_keep != b_keep) return b_keep;
    return a.used < b.used;
  });
  std::size_t evicted = 0;
  for (const auto& entry : entries) {
    if (total <= cap) break;
    if (fs::remove(entry.path, ec) && !ec) {
      total -= entry.size;
      ++evicted;
    }
  }
  if (evicted > 0) {
    util::MutexLock lock(mutex_);
    stats_.evictions += evicted;
    if (metric_evictions_ != nullptr) metric_evictions_->add(evicted);
  }
}

void ResultCache::set_metrics(util::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    metric_memory_hits_ = nullptr;
    metric_disk_hits_ = nullptr;
    metric_misses_ = nullptr;
    metric_stores_ = nullptr;
    metric_evictions_ = nullptr;
    return;
  }
  const std::string lookups = "moela_cache_lookups_total";
  const std::string lookups_help = "Result-cache lookups by outcome";
  metric_memory_hits_ =
      &metrics->counter(lookups, lookups_help, {{"result", "hit_memory"}});
  metric_disk_hits_ =
      &metrics->counter(lookups, lookups_help, {{"result", "hit_disk"}});
  metric_misses_ =
      &metrics->counter(lookups, lookups_help, {{"result", "miss"}});
  metric_stores_ = &metrics->counter("moela_cache_stores_total",
                                     "Reports stored into the result cache");
  metric_evictions_ =
      &metrics->counter("moela_cache_evictions_total",
                        "Disk-tier entry files evicted by the size cap");
}

ResultCache::Stats ResultCache::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

}  // namespace moela::api
