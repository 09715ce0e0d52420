// perfbench_driver: runs one benchmark workload and prints every metric by
// name with its unit, then, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Normally launched through
// perfbench/run.py, which builds it first:
//
//   perfbench_driver --workload noc-moela --seed 3 --seconds 20 --trace 0
//       --pins perfbench/pins.json --work-dir .bench_build/work
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that gives the per-layer metrics. --digest prints the
// workload's output digest for a seed and --calibrate the per-run data the
// pinned normalization is chosen from; neither times anything.
#include <cstdio>
#include <filesystem>
#include <string>

#include "util/json.hpp"
#include "util/numeric.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using moela::util::Json;

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--digest") {
      args.digest_only = true;
      continue;
    }
    if (flag == "--calibrate") {
      args.calibrate = true;
      continue;
    }
    if (!has_value) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && moela::util::parse_u64(value, number)) {
      args.seed = number;
    } else if (flag == "--seconds" &&
               moela::util::parse_double(value, args.seconds) &&
               args.seconds > 0) {
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
    } else if (flag == "--pins") {
      args.pins_path = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--serve") {
      args.serve_path = value;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  bool known = false;
  for (const auto& name : workload_names()) known |= name == args.workload;
  if (!known) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return false;
  }
  if (args.pins_path.empty() || args.work_dir.empty()) {
    std::fprintf(stderr, "perfbench: --pins and --work-dir are required\n");
    return false;
  }
  return true;
}

Json metrics_json(const std::vector<Metric>& metrics) {
  Json out = Json::object();
  for (const Metric& m : metrics) {
    Json entry = Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    out.set(m.name, std::move(entry));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.serve_path = PERFBENCH_SERVE_PATH;
  if (!parse_args(argc, argv, args)) return 2;
  try {
    const Pins pins = Pins::load(args.pins_path);
    std::filesystem::create_directories(args.work_dir);
    if (args.digest_only || args.calibrate) {
      const auto requests = make_requests(args.workload, args.seed);
      const Reference ref = run_reference(requests);
      if (args.calibrate) {
        print_calibration(args, pins, requests, ref);
      } else {
        Json line = Json::object();
        line.set("workload", args.workload);
        line.set("seed", args.seed);
        line.set("digest", workload_digest(ref.content));
        std::printf("%s\n", line.dump().c_str());
      }
      return 0;
    }

    const Result result = args.workload == "fleet-sweep"
                              ? run_fleet(args, pins)
                              : run_inprocess(args, pins);
    const auto& metrics = args.trace ? result.per_layer : result.end_to_end;
    std::printf("workload %s seed %llu%s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? " (traced)" : "");
    for (const auto& line : result.notes) std::printf("  %s\n", line.c_str());
    for (const Metric& m : metrics) {
      std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const Metric& m : result.ungated) {
      std::printf("  %-28s %14.6g %s (not gated)\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    Tally tally{result.attempted, result.failed};
    std::printf("  %-28s %14.6g %s\n", "failed_frac", tally.failed_frac(),
                "ratio");
    Json out = Json::object();
    out.set("correct", result.correct && result.failed == 0);
    out.set("attempted", static_cast<std::uint64_t>(result.attempted));
    out.set("failed", static_cast<std::uint64_t>(result.failed));
    out.set("metrics", metrics_json(metrics));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
