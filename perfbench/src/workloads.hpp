// The benchmark's workload runners.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "quality.hpp"
#include "requests.hpp"
#include "stats.hpp"

namespace perfbench {

/// noc-moela and noc-ea: closed-loop runs in-process through api::Executor
/// (one job, no cache), then a warm replay from the result cache.
Result run_inprocess(const Args& args, const Pins& pins);

/// fleet-sweep: the batch sharded over two loopback moela_serve daemons by
/// api::ShardedExecutor, cold and then warm.
Result run_fleet(const Args& args, const Pins& pins);

/// Serial in-process execution of `requests` through api::Executor (one
/// job, no cache), one request at a time: the reference every other path
/// is compared with.
struct Reference {
  std::vector<api::RunReport> reports;
  std::vector<std::string> content;
  /// Wall seconds of each Executor::run_all call.
  std::vector<double> executor_seconds;
};
Reference run_reference(const std::vector<api::RunRequest>& requests);

/// Digest of a whole workload's outputs, in request order.
std::string workload_digest(const std::vector<std::string>& content);

/// Compares the workload's output digest with the one pinned for this
/// seed; on a mismatch every run counts as failed. Unpinned seeds only
/// report the digest.
void check_digest(const Args& args, const Pins& pins,
                  const std::vector<std::string>& content, Result& result,
                  Tally& tally);

/// Per-run objective ranges, PHV and EDP of the reference runs, one JSON
/// line each (the input for pinning perfbench/pins.json).
void print_calibration(const Args& args, const Pins& pins,
                       const std::vector<api::RunRequest>& requests,
                       const Reference& reference);

/// Mean microseconds to encode (and to decode) one request + report pair
/// through api::serde, on the workload's own requests and reports; each
/// pair is timed as the median of a few repeats.
struct SerdeCost {
  double encode_us = 0.0;
  double decode_us = 0.0;
};
SerdeCost serde_cost(const std::vector<api::RunRequest>& requests,
                     const std::vector<api::RunReport>& reports);

/// The "samples:" line: how many values each reported statistic rests on.
std::string sample_note(const Summary& latency, const Quality& quality,
                        bool censored, std::size_t distinct);

}  // namespace perfbench
