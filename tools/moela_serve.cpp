// moela_serve: the long-lived optimization-serving daemon. Listens on a
// TCP socket, speaks the line-delimited JSON protocol of
// serve/protocol.hpp, and dispatches RunRequests onto one shared
// thread-pooled api::Executor backed by one process-lifetime
// api::ResultCache — so clients pay neither process startup nor repeated
// identical runs, and results stay bit-identical to inline execution for
// fixed seeds.
//
//   moela_serve                          # 127.0.0.1:7313, all cores
//   moela_serve --port 7400 --jobs 8 --cache-dir /var/cache/moela
//   moela_serve --host 0.0.0.0 --run-log runs.jsonl
//
// Submit with `moela_cli --connect host:port ...` or raw nc(1); see the
// README's "Serving" section for the protocol reference.
//
// Signals: the first SIGINT/SIGTERM drains gracefully (stop accepting,
// finish in-flight runs, answer, exit 0); a second cancels in-flight runs
// at their next budget check (they still answer, marked cancelled); a
// third falls back to the default disposition (hard kill). Clients cancel
// their own in-flight batches with the protocol's cancel verb — a
// client-side Ctrl-C never needs to touch the daemon's ladder.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "api/result_cache.hpp"
#include "api/run_log.hpp"
#include "serve/server.hpp"
#include "util/numeric.hpp"

using namespace moela;

namespace {

struct ServeCliOptions {
  serve::ServeConfig config;
  std::string run_log_path;
  std::string metrics_dump_path;  // empty = no exposition file at drain
  bool help = false;
};

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: moela_serve [options]\n"
               "\n"
               "  --host ADDR        bind address (default 127.0.0.1; use "
               "0.0.0.0 for\n"
               "                     non-local clients)\n"
               "  --port N           TCP port (default %d; 0 = ephemeral, "
               "printed on start)\n"
               "  --jobs N           Executor worker threads (default 0 = "
               "all cores)\n"
               "  --max-inflight N   per-connection cap on queued+running "
               "runs (default 256)\n"
               "  --max-queued N     daemon-wide admission bound on queued "
               "runs; a batch\n"
               "                     that would exceed it is shed with an "
               "'overloaded'\n"
               "                     error (default 1024)\n"
               "  --weights I,N,B    weighted-fair dispatch credits per "
               "scheduling class\n"
               "                     interactive,normal,batch (default "
               "8,4,1; each >= 1)\n"
               "  --no-cache         disable the result cache\n"
               "  --cache-dir PATH   cache directory (default "
               "$MOELA_CACHE_DIR, else\n"
               "                     ~/.cache/moela)\n"
               "  --cache-max-bytes N  disk-tier size cap with LRU "
               "eviction; 0 = no cap\n"
               "                     (default $MOELA_CACHE_MAX_BYTES, else "
               "1 GiB)\n"
               "  --run-log PATH     append one JSONL record per completed "
               "run\n"
               "                     (default $MOELA_RUN_LOG)\n"
               "  --snapshot-dir PATH  persist checkpointing runs' "
               "RunSnapshots under\n"
               "                     PATH (atomic, schema-salted files); "
               "an interrupted\n"
               "                     run resumes from its file "
               "bit-identically\n"
               "  --metrics-dump PATH  write the final telemetry snapshot "
               "as Prometheus\n"
               "                     text exposition to PATH at drain "
               "(live scraping\n"
               "                     uses the 'metrics' verb instead)\n"
               "  --help             this text\n"
               "\n"
               "Protocol: line-delimited JSON over TCP; verbs: ping, run,\n"
               "cancel, list_algorithms, list_problems, cache_stats, "
               "health,\nmetrics, shutdown. See docs/protocol.md.\n",
               serve::kDefaultPort);
}

std::optional<ServeCliOptions> parse_args(
    int argc, char** argv, std::optional<std::uintmax_t>& cache_max_bytes) {
  ServeCliOptions cli;
  cache_max_bytes.reset();  // absent flag = keep the ResultCache default
  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "moela_serve: %s needs a value\n", flag);
      return nullptr;
    }
    return argv[++i];
  };
  // Checked numeric parsing: no sign, padding or suffix, and an overflow
  // is an error rather than a saturated value.
  auto integer_value = [&](int& i, const char* flag, auto& out) -> bool {
    const char* v = need_value(i, flag);
    if (v == nullptr) return false;
    std::uint64_t parsed = 0;
    if (!util::parse_u64(v, parsed)) {
      std::fprintf(stderr,
                   "moela_serve: %s wants a non-negative integer, got "
                   "'%s'\n",
                   flag, v);
      return false;
    }
    out = parsed;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      cli.help = true;
    } else if (arg == "--host") {
      if ((v = need_value(i, "--host")) == nullptr) return std::nullopt;
      cli.config.host = v;
    } else if (arg == "--port") {
      std::size_t port = 0;
      if (!integer_value(i, "--port", port)) return std::nullopt;
      if (port > 65535) {
        std::fprintf(stderr, "moela_serve: --port out of range\n");
        return std::nullopt;
      }
      cli.config.port = static_cast<int>(port);
    } else if (arg == "--jobs") {
      if (!integer_value(i, "--jobs", cli.config.jobs)) return std::nullopt;
    } else if (arg == "--max-inflight") {
      if (!integer_value(i, "--max-inflight", cli.config.max_inflight)) {
        return std::nullopt;
      }
      if (cli.config.max_inflight == 0) {
        std::fprintf(stderr, "moela_serve: --max-inflight wants at least "
                             "1\n");
        return std::nullopt;
      }
    } else if (arg == "--max-queued") {
      if (!integer_value(i, "--max-queued", cli.config.max_queued)) {
        return std::nullopt;
      }
      if (cli.config.max_queued == 0) {
        std::fprintf(stderr, "moela_serve: --max-queued wants at least 1\n");
        return std::nullopt;
      }
    } else if (arg == "--weights") {
      if ((v = need_value(i, "--weights")) == nullptr) return std::nullopt;
      unsigned interactive = 0, normal = 0, batch = 0;
      char trailing = '\0';
      if (std::sscanf(v, "%u,%u,%u%c", &interactive, &normal, &batch,
                      &trailing) != 3 ||
          interactive == 0 || normal == 0 || batch == 0) {
        std::fprintf(stderr,
                     "moela_serve: --weights wants three positive integers "
                     "I,N,B, got '%s'\n",
                     v);
        return std::nullopt;
      }
      cli.config.weights.interactive = interactive;
      cli.config.weights.normal = normal;
      cli.config.weights.batch = batch;
    } else if (arg == "--no-cache") {
      cli.config.use_cache = false;
    } else if (arg == "--cache-dir") {
      if ((v = need_value(i, "--cache-dir")) == nullptr) return std::nullopt;
      cli.config.cache_dir = v;
    } else if (arg == "--cache-max-bytes") {
      std::uintmax_t bytes = 0;
      if (!integer_value(i, "--cache-max-bytes", bytes)) {
        return std::nullopt;
      }
      cache_max_bytes = bytes;  // 0 is meaningful: it disables the cap
    } else if (arg == "--run-log") {
      if ((v = need_value(i, "--run-log")) == nullptr) return std::nullopt;
      cli.run_log_path = v;
    } else if (arg == "--snapshot-dir") {
      if ((v = need_value(i, "--snapshot-dir")) == nullptr) {
        return std::nullopt;
      }
      cli.config.snapshot_dir = v;
    } else if (arg == "--metrics-dump") {
      if ((v = need_value(i, "--metrics-dump")) == nullptr) {
        return std::nullopt;
      }
      cli.metrics_dump_path = v;
    } else {
      std::fprintf(stderr, "moela_serve: unknown flag '%s'\n", arg.c_str());
      return std::nullopt;
    }
  }
  return cli;
}

// Signal escalation ladder; handlers may only touch lock-free atomics and
// call the Server's async-signal-safe entry points.
serve::Server* g_server = nullptr;
std::atomic<int> g_signal_count{0};

void handle_signal(int signum) {
  const int count = g_signal_count.fetch_add(1) + 1;
  if (g_server == nullptr) {
    std::signal(signum, SIG_DFL);
    std::raise(signum);
    return;
  }
  if (count == 1) {
    g_server->signal_shutdown();
  } else if (count == 2) {
    g_server->signal_hard_stop();
  } else {
    std::signal(signum, SIG_DFL);
    std::raise(signum);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::uintmax_t> cache_max_bytes;
  const auto parsed = parse_args(argc, argv, cache_max_bytes);
  if (!parsed) {
    print_usage(stderr);
    return 2;
  }
  if (parsed->help) {
    print_usage(stdout);
    return 0;
  }

  std::unique_ptr<api::RunLogger> run_log;
  serve::ServeConfig config = parsed->config;
  if (!parsed->run_log_path.empty()) {
    run_log = std::make_unique<api::RunLogger>(parsed->run_log_path);
    // An explicitly requested log that cannot be written is a startup
    // error, not something to limp on without.
    if (!run_log->ok()) return 2;
    config.run_log = run_log.get();
  }

  try {
    serve::Server server(config);
    if (config.use_cache && cache_max_bytes.has_value() && server.cache()) {
      server.cache()->set_max_disk_bytes(*cache_max_bytes);
    }
    server.start();

    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    std::fprintf(stderr,
                 "moela_serve: listening on %s:%d (jobs=%zu, cache %s, "
                 "max-inflight %zu, max-queued %zu, weights %u,%u,%u)\n",
                 config.host.c_str(), server.port(),
                 config.jobs == 0
                     ? static_cast<std::size_t>(
                           std::thread::hardware_concurrency())
                     : config.jobs,
                 config.use_cache ? server.cache()->disk_dir().c_str()
                                  : "off",
                 config.max_inflight, config.max_queued,
                 config.weights.interactive, config.weights.normal,
                 config.weights.batch);

    server.wait();
    g_server = nullptr;
    // The drain-time exposition file: everything the daemon counted over
    // its whole life, in the same text format a live scrape of the
    // `metrics` verb would render. Written after wait() so the last
    // batch's observations are included.
    if (!parsed->metrics_dump_path.empty()) {
      std::FILE* dump = std::fopen(parsed->metrics_dump_path.c_str(), "w");
      if (dump == nullptr) {
        std::fprintf(stderr, "moela_serve: cannot write metrics dump '%s'\n",
                     parsed->metrics_dump_path.c_str());
      } else {
        const std::string text = server.metrics_text();
        std::fwrite(text.data(), 1, text.size(), dump);
        std::fclose(dump);
        std::fprintf(stderr, "moela_serve: metrics dumped to %s\n",
                     parsed->metrics_dump_path.c_str());
      }
    }
    std::fprintf(stderr, "moela_serve: drained, %llu run(s) handled; bye\n",
                 static_cast<unsigned long long>(server.runs_handled()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "moela_serve: %s\n", e.what());
    return 1;
  }
}
