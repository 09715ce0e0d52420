#include "util/file.hpp"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/numeric.hpp"

namespace moela::util {

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  // Sized by fstat plus a spare byte, so the file comes in one read and the
  // next read returns 0; a file that grows meanwhile grows the buffer.
  struct stat info {};
  std::string out(::fstat(fd, &info) == 0 ? info.st_size + 1 : 4096, '\0');
  std::size_t size = 0;
  ssize_t n = 0;
  while ((n = ::read(fd, out.data() + size, out.size() - size)) != 0) {
    if (n < 0 && errno != EINTR) break;
    if (n > 0) size += static_cast<std::size_t>(n);
    if (size == out.size()) out.resize(2 * size);
  }
  ::close(fd);
  if (n < 0) return std::nullopt;
  out.resize(size);
  return out;
}

bool write_file_atomic(const std::string& path, std::string_view bytes) {
  static std::atomic<std::uint64_t> write_counter{0};
  const std::string temp =
      path + ".tmp." + dec(::getpid()) + "." + dec(write_counter++);
  const int fd =
      ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  bool written = true;
  while (written && !bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n > 0) {
      bytes.remove_prefix(static_cast<std::size_t>(n));
    } else {
      written = n < 0 && errno == EINTR;  // else a full disk, a size limit
    }
  }
  // close() reports write-back errors some file systems defer to it.
  const bool closed = ::close(fd) == 0;
  if (written && closed && std::rename(temp.c_str(), path.c_str()) == 0) {
    return true;
  }
  std::remove(temp.c_str());
  return false;
}

}  // namespace moela::util
