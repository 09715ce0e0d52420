// The benchmark's workloads as request lists. Every request — application,
// instance seed, run seed, algorithm, batch order — is generated from the
// workload seed; the program only ever sees the generated requests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/request.hpp"

namespace perfbench {

/// The workloads BENCHMARK.json names.
const std::vector<std::string>& workload_names();

/// The distinct requests one cycle of `workload` runs for `seed`.
/// Throws std::invalid_argument for an unknown workload.
std::vector<moela::api::RunRequest> make_requests(const std::string& workload,
                                                  std::uint64_t seed);

}  // namespace perfbench
