// moela_cli: compose problem x algorithm x budgets from the command line
// and emit CSV — the serving front-end of the runtime-composition API.
// Nothing here is algorithm- or problem-specific: problems come from
// api::make_problem(), algorithms from api::registry(), and per-algorithm
// parameters ride in --knob name=value pairs.
//
// Every invocation — single run or sweep — is a batch of api::RunRequests
// scheduled on the thread-pooled api::Executor: --jobs picks the worker
// count, --replicates fans each cell out across seeds, repeating
// --algo/--app sweeps the grid, and a disk-backed result cache (on by
// default; see --no-cache / --cache-dir / $MOELA_CACHE_DIR) makes repeated
// identical invocations near-free. Ctrl-C requests a graceful stop:
// in-flight runs wind down at their next budget check and still report —
// and with --connect the stop reaches the daemon(s) as the protocol's
// cancel verb, so remote work halts too instead of burning CPU to
// completion.
//
// With --connect host:port the same sweep flags submit to remote
// moela_serve daemons instead of running in-process. One daemon or a
// repeated-flag FLEET, the batch goes through api::ShardedExecutor (the
// daemons' lanes steal chunks from one queue; a lone daemon gets the whole
// batch in one wire batch): requests travel as line-delimited JSON
// (api/serde.hpp), merged reports come back bit-identical to a local run,
// and each daemon's process-lifetime cache answers repeats. So the CLI has
// two execution paths, the in-process api::Executor and the coordinator.
//
//   moela_cli --problem zdt1 --algorithm moela --evals 2000 --seed 1
//   moela_cli --problem zdt1 --algo moela --algo nsga2 --replicates 3
//             --jobs 4 --evals 2000
//   moela_cli --problem noc --app BFS --app SRAD --objectives 5
//             --algo moela --algo moos --seconds 5 --jobs 2
//   moela_cli --connect localhost:7313 --problem zdt1 --algo moela
//             --replicates 3 --evals 2000
//   moela_cli --connect host1:7313 --connect host2:7313
//             --problem zdt1 --algo moela --replicates 8
//             --evals 2000                     # sharded sweep
//   moela_cli --connect :7313 --shutdown     # drain the daemon(s)
//   moela_cli --list
//
// stdout carries the final Pareto front(s) as CSV (one objective per
// column, '#' provenance comments per run); run metadata goes to stderr so
// pipelines stay clean.
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "api/executor.hpp"
#include "api/optimizer.hpp"
#include "api/priority.hpp"
#include "api/problems.hpp"
#include "api/registry.hpp"
#include "api/request.hpp"
#include "api/result_cache.hpp"
#include "api/run_log.hpp"
#include "api/sharded_executor.hpp"
#include "serve/client.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/numeric.hpp"
#include "util/timer.hpp"

using namespace moela;

namespace {

struct CliOptions {
  std::string problem;
  std::vector<std::string> algorithms;
  std::vector<std::string> apps;  // NoC sweep; empty = ProblemOptions default
  api::ProblemOptions problem_options;
  api::RunOptions run_options;
  std::size_t jobs = 1;
  std::size_t replicates = 1;
  bool use_cache = true;
  std::string cache_dir;   // empty = ResultCache::default_disk_dir()
  bool progress = false;   // in-run progress lines at the snapshot cadence
  std::string out_path;    // empty = stdout
  std::string trace_path;  // empty = no trace dump
  std::string run_log_path;  // empty = $MOELA_RUN_LOG (via the Executor)
  /// moela_serve endpoints (--connect host:port, repeatable). Non-empty =
  /// the batch runs remotely through api::ShardedExecutor, whatever the
  /// count.
  std::vector<api::ShardEndpoint> connect;
  /// Scheduling class for daemon-side admission (--connect only; an
  /// in-process batch is alone in its Executor's queue).
  api::Priority priority = api::Priority::kNormal;
  bool priority_set = false;
  bool remote_shutdown = false;  // with --connect: drain the daemon(s)
  bool show_metrics = false;  // with --connect: print telemetry snapshots
  bool list = false;
  bool help = false;
};

void print_usage(std::FILE* to) {
  std::fprintf(to,
               "usage: moela_cli --problem NAME --algorithm NAME [options]\n"
               "\n"
               "  --problem NAME     problem to solve (see --list)\n"
               "  --algorithm NAME   optimizer registry key (see --list);\n"
               "  --algo NAME        repeatable — multiple keys sweep them "
               "all\n"
               "  --evals N          objective-evaluation budget "
               "(default 20000)\n"
               "  --seconds S        wall-clock budget, 0 = off (default 0)\n"
               "  --seed N           RNG seed (default 1)\n"
               "  --replicates K     run each cell K times with seeds "
               "seed..seed+K-1\n"
               "  --jobs N           Executor worker threads (default 1; "
               "0 = all cores)\n"
               "  --pop N            population / archive size (default 50)\n"
               "  --n-local N        local searches per iteration "
               "(default 5)\n"
               "  --snapshot N       snapshot cadence in evals (default "
               "500)\n"
               "  --objectives M     objective count (problem default if "
               "omitted)\n"
               "  --variables N      decision variables / items (problem "
               "default)\n"
               "  --app TAG          NoC workload app: BP BFS GAU HOT PF SC "
               "SRAD\n"
               "                     (repeatable — multiple apps sweep "
               "them)\n"
               "  --small            NoC: 3x3x3 platform instead of 4x4x4\n"
               "  --knob NAME=VALUE  per-algorithm knob (repeatable; see "
               "api/optimizers.cpp)\n"
               "  --no-cache         disable the result cache\n"
               "  --cache-dir PATH   cache directory (default "
               "$MOELA_CACHE_DIR,\n"
               "                     else ~/.cache/moela)\n"
               "  --run-log PATH     append one JSONL record per completed "
               "run\n"
               "                     (default $MOELA_RUN_LOG)\n"
               "  --connect H:P      submit to a moela_serve daemon instead "
               "of running\n"
               "                     in-process (cache/jobs are then "
               "server-side);\n"
               "                     repeatable — several endpoints shard "
               "the batch\n"
               "                     across the fleet (docs/operations.md)\n"
               "  --priority CLASS   daemon-side scheduling class: "
               "interactive,\n"
               "                     normal (default), or batch (needs "
               "--connect;\n"
               "                     see docs/scheduling.md)\n"
               "  --shutdown         with --connect: ask the daemon(s) to "
               "drain and exit\n"
               "  --metrics          with --connect: print each daemon's "
               "telemetry\n"
               "                     snapshot (metrics verb) as one JSON "
               "line, then exit\n"
               "  --progress         stream in-run progress at the snapshot "
               "cadence\n"
               "  --out PATH         write the front CSV(s) to PATH instead "
               "of stdout\n"
               "  --trace PATH       also dump the anytime snapshot trace "
               "CSV\n"
               "  --list             list problems and algorithms, then "
               "exit\n"
               "  --help             this text\n"
               "\n"
               "Ctrl-C stops the batch gracefully: in-flight runs return "
               "their partial\nfronts (marked cancelled=1). With --connect "
               "the stop crosses the wire\n(protocol cancel verb): "
               "daemon-side work halts, the daemons keep serving.\n");
}

std::optional<CliOptions> parse_args(int argc, char** argv) {
  CliOptions cli;
  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "moela_cli: %s needs a value\n", flag);
      return nullptr;
    }
    return argv[++i];
  };
  // Checked numeric parsing: a typo like "--evals 20k" must be an error,
  // not a silent zero-budget run, and an overflow must not saturate.
  auto integer_value = [&](int& i, const char* flag, auto& out) -> bool {
    const char* v = need_value(i, flag);
    if (v == nullptr) return false;
    std::uint64_t parsed = 0;
    if (!util::parse_u64(v, parsed)) {
      std::fprintf(stderr,
                   "moela_cli: %s wants a non-negative integer, got '%s'\n",
                   flag, v);
      return false;
    }
    out = parsed;
    return true;
  };
  // A seconds budget: a finite number >= 0 with no padding or suffix.
  // -5, nan, inf and 1e400 would each read as "no budget" yet still feed
  // the cache key; -0 is refused with them, so 0 has one spelling.
  auto seconds_value = [&](int& i, const char* flag, double& out) -> bool {
    const char* v = need_value(i, flag);
    if (v == nullptr) return false;
    double parsed = 0.0;
    if (!util::parse_double(v, parsed) || !std::isfinite(parsed) ||
        std::signbit(parsed)) {
      std::fprintf(stderr,
                   "moela_cli: %s wants a finite number >= 0, got '%s'\n",
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
    } else if (arg == "--list") {
      cli.list = true;
    } else if (arg == "--small") {
      cli.problem_options.small_platform = true;
    } else if (arg == "--no-cache") {
      cli.use_cache = false;
    } else if (arg == "--progress") {
      cli.progress = true;
    } else if (arg == "--problem") {
      if ((v = need_value(i, "--problem")) == nullptr) return std::nullopt;
      cli.problem = v;
    } else if (arg == "--algorithm" || arg == "--algo") {
      if ((v = need_value(i, arg.c_str())) == nullptr) return std::nullopt;
      cli.algorithms.push_back(v);
    } else if (arg == "--evals") {
      if (!integer_value(i, "--evals", cli.run_options.max_evaluations)) {
        return std::nullopt;
      }
    } else if (arg == "--seconds") {
      if (!seconds_value(i, "--seconds", cli.run_options.max_seconds)) {
        return std::nullopt;
      }
    } else if (arg == "--seed") {
      if (!integer_value(i, "--seed", cli.run_options.seed)) {
        return std::nullopt;
      }
      cli.problem_options.seed = cli.run_options.seed;
    } else if (arg == "--replicates") {
      if (!integer_value(i, "--replicates", cli.replicates)) {
        return std::nullopt;
      }
      if (cli.replicates == 0) {
        std::fprintf(stderr, "moela_cli: --replicates wants at least 1\n");
        return std::nullopt;
      }
    } else if (arg == "--jobs") {
      if (!integer_value(i, "--jobs", cli.jobs)) return std::nullopt;
    } else if (arg == "--pop") {
      if (!integer_value(i, "--pop", cli.run_options.population_size)) {
        return std::nullopt;
      }
    } else if (arg == "--n-local") {
      if (!integer_value(i, "--n-local", cli.run_options.n_local)) {
        return std::nullopt;
      }
    } else if (arg == "--snapshot") {
      if (!integer_value(i, "--snapshot",
                         cli.run_options.snapshot_interval)) {
        return std::nullopt;
      }
    } else if (arg == "--objectives") {
      if (!integer_value(i, "--objectives",
                         cli.problem_options.num_objectives)) {
        return std::nullopt;
      }
    } else if (arg == "--variables") {
      if (!integer_value(i, "--variables",
                         cli.problem_options.num_variables)) {
        return std::nullopt;
      }
    } else if (arg == "--app") {
      if ((v = need_value(i, "--app")) == nullptr) return std::nullopt;
      cli.apps.push_back(v);
    } else if (arg == "--knob") {
      if ((v = need_value(i, "--knob")) == nullptr) return std::nullopt;
      if (!cli.run_options.knobs.parse_assignment(v)) {
        std::fprintf(stderr, "moela_cli: bad --knob '%s' (want NAME=VALUE)\n",
                     v);
        return std::nullopt;
      }
    } else if (arg == "--cache-dir") {
      if ((v = need_value(i, "--cache-dir")) == nullptr) return std::nullopt;
      cli.cache_dir = v;
    } else if (arg == "--run-log") {
      if ((v = need_value(i, "--run-log")) == nullptr) return std::nullopt;
      cli.run_log_path = v;
    } else if (arg == "--connect") {
      if ((v = need_value(i, "--connect")) == nullptr) return std::nullopt;
      api::ShardEndpoint endpoint;
      if (!api::parse_shard_endpoint(v, endpoint)) {
        std::fprintf(stderr, "moela_cli: bad --connect '%s' (want host:port)\n",
                     v);
        return std::nullopt;
      }
      cli.connect.push_back(std::move(endpoint));
    } else if (arg == "--priority") {
      if ((v = need_value(i, "--priority")) == nullptr) return std::nullopt;
      if (!api::parse_priority(v, cli.priority)) {
        std::fprintf(stderr,
                     "moela_cli: bad --priority '%s' (want interactive, "
                     "normal, or batch)\n",
                     v);
        return std::nullopt;
      }
      cli.priority_set = true;
    } else if (arg == "--shutdown") {
      cli.remote_shutdown = true;
    } else if (arg == "--metrics") {
      cli.show_metrics = true;
    } else if (arg == "--out") {
      if ((v = need_value(i, "--out")) == nullptr) return std::nullopt;
      cli.out_path = v;
    } else if (arg == "--trace") {
      if ((v = need_value(i, "--trace")) == nullptr) return std::nullopt;
      cli.trace_path = v;
    } else {
      std::fprintf(stderr, "moela_cli: unknown flag '%s'\n", arg.c_str());
      return std::nullopt;
    }
  }
  return cli;
}

/// Provenance header comments (satellite of the batch API: every CSV block
/// is traceable to the request that produced it).
void write_provenance(std::ostream& out, const api::RunReport& report) {
  const api::RunProvenance& p = report.provenance;
  out << "# problem=" << (p.problem.empty() ? "<custom>" : p.problem)
      << " algorithm=" << (p.algorithm_key.empty() ? "?" : p.algorithm_key)
      << " name=\"" << report.algorithm << "\""
      << " seed=" << p.seed << " evaluations=" << report.evaluations
      << " seconds=" << report.seconds
      << " cache=" << (p.cache_hit ? "hit" : "miss")
      << " cancelled=" << (p.cancelled ? 1 : 0);
  // Trace lives in the '#' comment only: CI diffs fronts with grep -v '^#',
  // so per-invocation ids never break bit-identity checks on the data rows.
  if (!p.trace_id.empty()) out << " trace=" << p.trace_id;
  out << "\n";
  if (!p.knobs.empty()) {
    out << "# knobs";
    for (const auto& [name, value] : p.knobs) {
      out << ' ' << name << '=' << value;
    }
    out << "\n";
  }
}

void write_front_csv(std::ostream& out,
                     const std::vector<moo::ObjectiveVector>& front) {
  if (front.empty()) return;
  for (std::size_t m = 0; m < front[0].size(); ++m) {
    out << (m == 0 ? "" : ",") << "objective_" << m;
  }
  out << "\n";
  for (const auto& point : front) {
    for (std::size_t m = 0; m < point.size(); ++m) {
      out << (m == 0 ? "" : ",") << point[m];
    }
    out << "\n";
  }
}

void print_algorithm(const std::string& name,
                     const std::vector<std::string>& knobs) {
  std::printf("  %s\n", name.c_str());
  if (knobs.empty()) {
    std::printf("      knobs: (none declared — accepts any)\n");
    return;
  }
  std::printf("      knobs:");
  for (const auto& knob : knobs) std::printf(" %s", knob.c_str());
  std::printf("\n");
}

/// --list: problem keys and algorithm keys with the knob keys each
/// algorithm's adapter declared at registration.
int list_registry() {
  std::printf("problems:\n");
  for (const auto& name : api::problem_names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("algorithms:\n");
  for (const auto& name : api::registry().names()) {
    print_algorithm(name, api::registry().knob_keys(name));
  }
  return 0;
}

/// --list --connect: the DAEMON's registry (which may have plugins this
/// binary lacks), via the list_problems / list_algorithms verbs.
int list_remote(serve::Client& client) {
  std::printf("problems:\n");
  for (const auto& name : client.list_problems()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("algorithms:\n");
  const util::Json algorithms = client.list_algorithms();
  for (const auto& entry : algorithms.as_array()) {
    std::vector<std::string> knobs;
    if (const util::Json* k = entry.find("knobs")) {
      for (const auto& knob : k->as_array()) knobs.push_back(knob.as_string());
    }
    const util::Json* name = entry.find("name");
    print_algorithm(name != nullptr ? name->as_string() : "?", knobs);
  }
  return 0;
}

/// With --connect, execution settings live daemon-side; note the flags
/// this invocation set that will not travel.
void warn_daemon_side_flags(const CliOptions& cli) {
  if (!cli.use_cache || !cli.cache_dir.empty() || cli.jobs != 1 ||
      !cli.run_log_path.empty()) {
    std::fprintf(stderr,
                 "moela_cli: note: --jobs/--no-cache/--cache-dir/"
                 "--run-log are daemon-side settings; ignored with "
                 "--connect\n");
  }
}

/// Warns about --knob names no selected algorithm declares (they would be
/// silently ignored at run time — almost always a typo).
void warn_unknown_knobs(const CliOptions& cli) {
  const auto unknown = api::registry().unknown_knob_keys(
      cli.run_options.knobs, cli.algorithms);
  for (const auto& key : unknown) {
    std::fprintf(stderr,
                 "moela_cli: warning: knob '%s' is not recognized by any "
                 "selected algorithm and will be ignored\n",
                 key.c_str());
  }
}

/// Builds the batch: (app x algorithm x replicate), in output order. Every
/// request carries ONE freshly minted trace id for the whole invocation —
/// the correlation handle that the daemons echo into provenance, JSONL run
/// logs, and progress events (and that write_provenance prints), so a
/// fleet-wide sweep can be grepped end to end. Announced on stderr up
/// front, before any runs start.
std::vector<api::RunRequest> build_requests(const CliOptions& cli) {
  const std::string trace = util::mint_trace_id();
  std::fprintf(stderr, "moela_cli: trace %s\n", trace.c_str());
  std::vector<std::string> apps = cli.apps;
  if (apps.empty()) apps.push_back(cli.problem_options.app);
  std::vector<api::RunRequest> requests;
  for (const auto& app : apps) {
    for (const auto& algorithm : cli.algorithms) {
      api::RunRequest base;
      base.problem = cli.problem;
      base.problem_options = cli.problem_options;
      base.problem_options.app = app;
      base.algorithm = algorithm;
      base.options = cli.run_options;
      base.label = cli.problem +
                   (cli.problem == "noc" ? ":" + app : std::string()) + ":" +
                   algorithm;
      base.trace_id = trace;
      for (auto& request : api::expand_replicates(base, cli.replicates)) {
        request.label += ":seed" + std::to_string(request.options.seed);
        requests.push_back(std::move(request));
      }
    }
  }
  return requests;
}

// Ctrl-C: ask the batch to stop; a second Ctrl-C falls back to the default
// (hard kill). Signal handlers may only touch lock-free atomics and call
// async-signal-safe functions, so the pointer itself is atomic,
// request_stop is a single atomic store, and the notice goes out via a
// raw write(2). With --connect the stop crosses the wire: the in-flight
// batch's cancel verb is sent to every daemon holding work.
std::atomic<api::RunControl*> g_control{nullptr};

void handle_sigint(int) {
  if (auto* control = g_control.load()) {
    control->request_stop();
    constexpr char kNotice[] =
        "\nmoela_cli: stop requested — cancelling in-flight runs (Ctrl-C "
        "again to kill)\n";
    [[maybe_unused]] ssize_t ignored =
        write(STDERR_FILENO, kNotice, sizeof(kNotice) - 1);
  }
  std::signal(SIGINT, SIG_DFL);
}

/// Clears the signal handler's pointer on every exit path (including a
/// throwing run), so a late Ctrl-C can never touch a destroyed control.
struct ControlGuard {
  explicit ControlGuard(api::RunControl& control) { g_control = &control; }
  ~ControlGuard() { g_control = nullptr; }
};

/// The stderr progress printer of both execution paths (the Executor and
/// the coordinator both notify through api::RunControl with batch-order
/// indices).
void install_progress_printer(api::RunControl& control,
                              const std::vector<api::RunRequest>& requests,
                              bool stream_progress) {
  control.on_progress([&control, &requests,
                       stream_progress](const api::RunProgress& p) {
    // After Ctrl-C the console said "cancelling"; cadence events still in
    // flight must not show progress climbing past that. Final `finished`
    // lines still print — they are the completion tally.
    if (!p.finished && control.stop_requested()) return;
    if (p.finished) {
      std::fprintf(stderr,
                   "moela_cli: [%zu/%zu] %s done (%zu evals, %.2f s%s)\n",
                   p.completed, p.batch_size,
                   p.batch_index < requests.size()
                       ? requests[p.batch_index].label.c_str()
                       : "?",
                   p.evaluations, p.seconds, p.cache_hit ? ", cached" : "");
    } else if (stream_progress) {
      std::fprintf(stderr,
                   "moela_cli: [run %zu] %s at %zu/%zu evals (%.2f s)\n",
                   p.batch_index + 1, p.algorithm.c_str(), p.evaluations,
                   p.max_evaluations, p.seconds);
    }
  });
}

/// Batch summary + front CSV(s) + optional trace CSV — shared by the
/// in-process and --connect paths (the reports are bit-identical either
/// way, so the output code cannot tell them apart). Returns the process
/// exit code.
int write_outputs(const CliOptions& cli,
                  const std::vector<api::RunRequest>& requests,
                  const std::vector<api::RunReport>& reports,
                  double wall_seconds) {
  std::size_t cache_hits = 0, cancelled = 0;
  for (const auto& report : reports) {
    cache_hits += report.provenance.cache_hit ? 1 : 0;
    cancelled += report.provenance.cancelled ? 1 : 0;
  }
  const std::string cancelled_note =
      cancelled > 0 ? ", " + std::to_string(cancelled) + " cancelled" : "";
  std::fprintf(stderr,
               "moela_cli: batch done in %.2f s (%zu run(s), %zu cache "
               "hit(s)%s)\n",
               wall_seconds, reports.size(), cache_hits,
               cancelled_note.c_str());
  if (cancelled > 0) {
    std::fprintf(stderr,
                 "moela_cli: cancelled %zu run(s), %zu completed (partial "
                 "fronts marked cancelled=1)\n",
                 cancelled, reports.size() - cancelled);
  }

  std::ofstream out_file;
  if (!cli.out_path.empty()) {
    out_file.open(cli.out_path);
    if (!out_file) {
      std::fprintf(stderr, "moela_cli: cannot open '%s'\n",
                   cli.out_path.c_str());
      return 1;
    }
  }
  std::ostream& out = cli.out_path.empty() ? std::cout : out_file;
  out.precision(12);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports.size() > 1) {
      out << (i == 0 ? "" : "\n") << "# run " << (i + 1) << "/"
          << reports.size() << " " << requests[i].label << "\n";
    }
    write_provenance(out, reports[i]);
    write_front_csv(out, reports[i].final_front);
  }
  if (!cli.out_path.empty()) {
    std::fprintf(stderr, "moela_cli: front CSV written to %s\n",
                 cli.out_path.c_str());
  }

  if (!cli.trace_path.empty()) {
    std::ofstream trace(cli.trace_path);
    if (!trace) {
      std::fprintf(stderr, "moela_cli: cannot open '%s'\n",
                   cli.trace_path.c_str());
      return 1;
    }
    trace.precision(12);
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (reports.size() > 1) {
        trace << (i == 0 ? "" : "\n") << "# run " << (i + 1) << "/"
              << reports.size() << " " << requests[i].label << "\n";
      }
      write_provenance(trace, reports[i]);
      trace << "evaluations,seconds,front_size\n";
      for (const auto& s : reports[i].snapshots) {
        trace << s.evaluations << "," << s.seconds << "," << s.front.size()
              << "\n";
      }
    }
    std::fprintf(stderr, "moela_cli: trace CSV written to %s\n",
                 cli.trace_path.c_str());
  }
  return cancelled > 0 ? 130 : 0;
}

/// Runs `verb(client, "host:port")` on a fresh connection to each
/// --connect daemon in turn. A daemon that cannot be reached (or fails the
/// verb) is reported on stderr without stopping the rest; returns 0 when
/// every daemon answered, else 1.
template <typename Verb>
int for_each_daemon(const CliOptions& cli, Verb verb) {
  int exit_code = 0;
  for (const api::ShardEndpoint& endpoint : cli.connect) {
    try {
      serve::Client client;
      client.connect(endpoint.host, endpoint.port);
      verb(client, endpoint.to_string());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "moela_cli: %s\n", e.what());
      exit_code = 1;
    }
  }
  return exit_code;
}

/// --metrics: print every daemon's telemetry snapshot (the metrics verb)
/// as one JSON line on stdout, so a quick fleet health check is
/// `moela_cli --connect a --connect b --metrics | jq`.
int show_fleet_metrics(const CliOptions& cli) {
  return for_each_daemon(
      cli, [](serve::Client& client, const std::string& endpoint) {
        util::Json snapshot = client.metrics();
        snapshot.set("endpoint", endpoint);
        std::printf("%s\n", snapshot.dump().c_str());
      });
}

/// --shutdown: ask every daemon to drain and exit.
int drain_fleet(const CliOptions& cli) {
  return for_each_daemon(
      cli, [](serve::Client& client, const std::string& endpoint) {
        client.shutdown_server();
        std::fprintf(stderr, "moela_cli: daemon at %s is draining\n",
                     endpoint.c_str());
      });
}

/// The --connect path, for one daemon or a fleet: api::ShardedExecutor
/// fans the batch across the endpoints and merges the reports back into
/// request order — bit-identical to an inline run. A lone daemon gets the
/// whole batch as one wire batch (up to its in-flight bound).
int run_sharded(const CliOptions& cli) {
  try {
    if (cli.list) {
      // The fleet shares one registry by construction; ask the first
      // daemon.
      serve::Client client;
      client.connect(cli.connect.front().host, cli.connect.front().port);
      return list_remote(client);
    }
    if (cli.problem.empty() || cli.algorithms.empty()) {
      if (cli.remote_shutdown) return drain_fleet(cli);
      std::fprintf(stderr, "moela_cli: --problem and --algorithm are "
                           "required (or --shutdown / --list)\n");
      return 2;
    }
    warn_daemon_side_flags(cli);
    warn_unknown_knobs(cli);

    const std::vector<api::RunRequest> requests = build_requests(cli);
    std::fprintf(stderr,
                 "moela_cli: sharding %zu run(s) across %zu daemon(s) "
                 "(evals<=%zu, seconds<=%.1f)\n",
                 requests.size(), cli.connect.size(),
                 cli.run_options.max_evaluations,
                 cli.run_options.max_seconds);

    api::ShardedExecutorConfig config;
    config.endpoints = cli.connect;
    config.stream_progress = cli.progress;
    config.priority = cli.priority;
    // Checkpoints exist so a peer can resume a dead shard's runs; a lone
    // daemon has no peer.
    config.checkpoint = config.endpoints.size() > 1;
    api::ShardedExecutor sharded(config);
    api::RunControl control;
    const ControlGuard guard(control);
    std::signal(SIGINT, handle_sigint);
    install_progress_printer(control, requests, cli.progress);

    util::Timer wall;
    const std::vector<api::RunReport> reports =
        sharded.run_all(requests, &control);
    const double wall_seconds = wall.elapsed_seconds();

    for (const api::ShardStats& shard : sharded.shard_stats()) {
      std::string note;
      if (!shard.healthy) note += " (unreachable)";
      if (shard.failures > 0) {
        note += ", " + std::to_string(shard.failures) + " failure(s)";
      }
      if (shard.resumed > 0) {
        note += ", " + std::to_string(shard.resumed) + " resumed";
      }
      if (!shard.error.empty()) note += ": " + shard.error;
      std::fprintf(stderr, "moela_cli: shard %s: %zu run(s)%s\n",
                   shard.endpoint.c_str(), shard.completed, note.c_str());
    }

    const int exit_code = write_outputs(cli, requests, reports, wall_seconds);
    // A failed drain fails a clean batch, but never masks a Ctrl-C's 130.
    if (cli.remote_shutdown && drain_fleet(cli) != 0 && exit_code == 0) {
      return 1;
    }
    return exit_code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "moela_cli: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse_args(argc, argv);
  if (!parsed) {
    print_usage(stderr);
    return 2;
  }
  const CliOptions& cli = *parsed;
  if (cli.help) {
    print_usage(stdout);
    return 0;
  }
  if (cli.remote_shutdown && cli.connect.empty()) {
    std::fprintf(stderr, "moela_cli: --shutdown needs --connect\n");
    return 2;
  }
  if (cli.show_metrics) {
    if (cli.connect.empty()) {
      std::fprintf(stderr, "moela_cli: --metrics needs --connect (the "
                           "registry lives in the daemon)\n");
      return 2;
    }
    return show_fleet_metrics(cli);
  }
  if (cli.priority_set && cli.connect.empty()) {
    std::fprintf(stderr, "moela_cli: --priority needs --connect (an "
                         "in-process batch has no admission queue)\n");
    return 2;
  }
  if (cli.apps.size() > 1 && cli.problem != "noc") {
    std::fprintf(stderr,
                 "moela_cli: multiple --app values only apply to the noc "
                 "problem\n");
    return 2;
  }
  // Before any connect: a daemon would reject the key only after the
  // batch's good runs had executed.
  for (const auto& algorithm : cli.algorithms) {
    if (!api::registry().contains(algorithm)) {
      std::fprintf(stderr,
                   "moela_cli: unknown algorithm '%s' (see --list)\n",
                   algorithm.c_str());
      return 2;
    }
  }
  if (!cli.connect.empty()) return run_sharded(cli);
  if (cli.list) return list_registry();
  if (cli.problem.empty() || cli.algorithms.empty()) {
    std::fprintf(stderr, "moela_cli: --problem and --algorithm are "
                         "required\n\n");
    print_usage(stderr);
    return 2;
  }
  warn_unknown_knobs(cli);

  try {
    const std::vector<api::RunRequest> requests = build_requests(cli);

    api::ResultCache cache(
        cli.use_cache
            ? (cli.cache_dir.empty() ? api::ResultCache::default_disk_dir()
                                     : cli.cache_dir)
            : std::string());
    std::optional<api::RunLogger> run_log;
    if (!cli.run_log_path.empty()) {
      run_log.emplace(cli.run_log_path);
      // Fail fast: an explicitly requested log that cannot be written must
      // not silently degrade (or fall back to $MOELA_RUN_LOG).
      if (!run_log->ok()) return 2;
    }

    api::ExecutorConfig executor_config;
    executor_config.jobs = cli.jobs;
    executor_config.cache = cli.use_cache ? &cache : nullptr;
    if (run_log.has_value()) executor_config.run_log = &*run_log;
    api::Executor executor(executor_config);

    std::fprintf(stderr,
                 "moela_cli: %zu run(s) on %zu worker(s) (evals<=%zu, "
                 "seconds<=%.1f, cache %s)\n",
                 requests.size(), executor.jobs(),
                 cli.run_options.max_evaluations, cli.run_options.max_seconds,
                 cli.use_cache ? cache.disk_dir().c_str() : "off");

    api::RunControl control;
    const ControlGuard guard(control);
    std::signal(SIGINT, handle_sigint);
    install_progress_printer(control, requests, cli.progress);

    util::Timer wall;
    std::vector<api::RunReport> reports =
        executor.run_all(requests, &control);
    const double wall_seconds = wall.elapsed_seconds();

    return write_outputs(cli, requests, reports, wall_seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "moela_cli: %s\n", e.what());
    return 1;
  }
}
