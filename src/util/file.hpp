// Whole-file reads and atomic whole-file writes for the on-disk stores: the
// result cache's entries and the executor's run snapshots.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace moela::util {

/// The whole content of the file at `path`; nullopt when it cannot be
/// opened or read.
std::optional<std::string> read_file(const std::string& path);

/// Publishes `bytes` at `path` atomically. The bytes go to a temp file next
/// to `path`, named uniquely per process and call, so concurrent writers
/// never interleave. The temp file is closed, and only when every byte was
/// written and the close succeeded is it renamed over `path` (atomic on
/// POSIX). Otherwise it is removed and false returned: a reader, or a
/// crash, never observes a partial file at `path`.
bool write_file_atomic(const std::string& path, std::string_view bytes);

}  // namespace moela::util
