// Deterministic fault injection for the serving-stack tests, shared by
// test_serve.cpp and test_sharded_executor.cpp (and the checkpoint/resume
// acceptance tests that PR 9 adds). Every failure mode here is triggered
// at an exact, repeatable point — an event count, a chunk boundary — never
// by sleeps or wall-clock racing:
//
//   * DaemonProcess        — the REAL moela_serve binary in a child
//                            process, killable with SIGKILL mid-run: the
//                            only honest stand-in for a crashed fleet
//                            daemon (an in-process Server cannot die
//                            without taking the test down with it).
//   * FaultTrigger         — an atomic fire-on-the-Nth-call latch, the
//                            deterministic "after N progress events"
//                            trigger.
//   * RawConnection        — a bare client socket for protocol-level
//                            misuse: back-to-back pipelined lines,
//                            malformed verbs, and abrupt mid-batch
//                            disconnects (sever()).
//   * closed_port()        — a loopback port with nothing listening:
//                            connect() fails deterministically.
//   * ProbeThenFailEndpoint — passes the coordinator's health probe, then
//                            either refuses every later connect or drops
//                            each connection at its first run line — a
//                            daemon dying right after joining the fleet.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace moela::fault {

/// A loopback port with nothing listening on it: bound once to reserve a
/// number the kernel will then refuse connections to.
inline int closed_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// A fake daemon that passes the coordinator's health probe and then fails.
/// It answers every verb but `run` with a bare ok (no capacity fields, so
/// the coordinator sends it one-request chunks), and then does what its
/// mode says:
///   * kRefuseAfterProbe — shuts its listener before its first reply, so
///     every later connect is refused: a daemon that dies right after the
///     probe;
///   * kDropAtRun — drops each connection at its first run line: a daemon
///     that dies mid-conversation, before it starts any run.
class ProbeThenFailEndpoint {
 public:
  enum class Mode { kRefuseAfterProbe, kDropAtRun };

  explicit ProbeThenFailEndpoint(Mode mode) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 4), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
    server_ = std::thread([this, mode] {
      for (;;) {
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn < 0) return;  // listener shut down
        serve::LineReader reader(conn);
        std::string line;
        while (reader.read_line(line)) {
          const auto message = util::Json::try_parse(line, nullptr);
          if (!message.has_value() || !message->is_object() ||
              util::string_field_or(*message, "verb") == "run") {
            break;
          }
          if (mode == Mode::kRefuseAfterProbe) ::shutdown(fd_, SHUT_RDWR);
          serve::send_json(
              conn, serve::make_ok(util::u64_field_or(*message, "id", 0)));
        }
        ::close(conn);
      }
    });
  }

  ~ProbeThenFailEndpoint() {
    ::shutdown(fd_, SHUT_RDWR);  // wakes the blocked accept
    if (server_.joinable()) server_.join();
    ::close(fd_);
  }

  ProbeThenFailEndpoint(const ProbeThenFailEndpoint&) = delete;
  ProbeThenFailEndpoint& operator=(const ProbeThenFailEndpoint&) = delete;

  int port() const { return port_; }

 private:
  int fd_ = -1;
  int port_ = 0;
  std::thread server_;
};

/// Fire-on-the-Nth-call latch: `fire()` returns true exactly once, on the
/// n-th invocation, from whichever thread gets there — the deterministic
/// "kill the daemon after N progress events" trigger.
class FaultTrigger {
 public:
  explicit FaultTrigger(std::size_t n) : remaining_(n) {}

  bool fire() {
    std::size_t current = remaining_.load(std::memory_order_relaxed);
    while (current > 0) {
      if (remaining_.compare_exchange_weak(current, current - 1,
                                           std::memory_order_relaxed)) {
        return current == 1;
      }
    }
    return false;
  }

  bool fired() const {
    return remaining_.load(std::memory_order_relaxed) == 0;
  }

 private:
  std::atomic<std::size_t> remaining_;
};

/// Absolute path of the moela_serve binary, resolved relative to the
/// running test executable (CMake puts tests in <build>/tests and the
/// daemon in <build>). MOELA_SERVE_BIN overrides for out-of-tree setups.
inline std::string serve_binary_path() {
  if (const char* env = ::getenv("MOELA_SERVE_BIN");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  std::string dir;
  if (n > 0) {
    self[n] = '\0';
    dir.assign(self);
    const std::size_t slash = dir.rfind('/');
    dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash);
  } else {
    dir = ".";
  }
  return dir + "/../moela_serve";
}

/// The real moela_serve binary as a child process — the only daemon a test
/// can SIGKILL mid-run without dying itself. Binds an ephemeral port and
/// reports it via the daemon's own "listening on host:port" stderr line,
/// so there is no bind race and no sleep.
class DaemonProcess {
 public:
  /// Spawns `moela_serve --port 0 <extra_args...>`. Callers pass cache /
  /// snapshot / jobs flags explicitly (e.g. {"--no-cache", "--jobs", "2"}).
  explicit DaemonProcess(std::vector<std::string> extra_args = {
                             "--no-cache"}) {
    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) != 0) {
      ADD_FAILURE() << "pipe failed";
      return;
    }
    const std::string binary = serve_binary_path();
    std::vector<std::string> args = {binary, "--port", "0"};
    for (auto& arg : extra_args) args.push_back(std::move(arg));

    pid_ = ::fork();
    if (pid_ < 0) {
      ADD_FAILURE() << "fork failed";
      return;
    }
    if (pid_ == 0) {
      // Child: stderr (the "listening on" line) goes to the parent's pipe.
      ::close(pipe_fds[0]);
      ::dup2(pipe_fds[1], STDERR_FILENO);
      ::close(pipe_fds[1]);
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);  // exec failed; the parent sees EOF without a port
    }
    ::close(pipe_fds[1]);
    stderr_fd_ = pipe_fds[0];

    // The daemon prints exactly one "listening on <host>:<port> (" line
    // once the socket is bound; parse the port out of it. Plain ::read —
    // serve::LineReader is socket-only (recv) and this is a pipe.
    std::string buffered;
    char chunk[512];
    while (port_ == 0) {
      const ssize_t n = ::read(stderr_fd_, chunk, sizeof(chunk));
      if (n <= 0) break;  // daemon exited before binding
      buffered.append(chunk, static_cast<std::size_t>(n));
      std::size_t eol;
      while (port_ == 0 && (eol = buffered.find('\n')) != std::string::npos) {
        const std::string line = buffered.substr(0, eol);
        buffered.erase(0, eol + 1);
        const std::size_t at = line.find("listening on ");
        if (at == std::string::npos) continue;
        const std::size_t colon = line.find(':', at);
        if (colon == std::string::npos) continue;
        int port = 0;
        for (std::size_t i = colon + 1;
             i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
          port = port * 10 + (line[i] - '0');
        }
        port_ = port;
      }
    }
    EXPECT_GT(port_, 0) << "daemon failed to start: " << binary;
    // Keep draining stderr so the child can never block on a full pipe.
    drain_ = std::thread([fd = stderr_fd_] {
      char sink[512];
      while (::read(fd, sink, sizeof(sink)) > 0) {
      }
    });
  }

  ~DaemonProcess() {
    kill();
    if (drain_.joinable()) drain_.join();
    if (stderr_fd_ >= 0) ::close(stderr_fd_);
  }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// SIGKILL + reap: the crash. No drain, no flush, no goodbye — exactly
  /// what a powered-off fleet machine looks like to its peers. Idempotent.
  void kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  bool alive() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int stderr_fd_ = -1;
  std::thread drain_;
};

/// A bare protocol connection for adversarial client behavior: pipelined
/// back-to-back lines, malformed payloads, and — the checkpoint tests'
/// staple — sever(): an abrupt RST-style close with a batch in flight.
class RawConnection {
 public:
  explicit RawConnection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    reader_ = std::make_unique<serve::LineReader>(fd_);
  }

  ~RawConnection() { sever(); }

  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  int fd() const { return fd_; }

  bool send(const std::string& line) { return serve::send_line(fd_, line); }

  bool read_line(std::string& out) { return reader_->read_line(out); }

  /// Drops the connection mid-conversation — no shutdown handshake, no
  /// pending-read drain. The server's reader sees EOF/ECONNRESET with the
  /// batch still running. Idempotent.
  void sever() {
    if (fd_ < 0) return;
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::unique_ptr<serve::LineReader> reader_;
};

}  // namespace moela::fault
