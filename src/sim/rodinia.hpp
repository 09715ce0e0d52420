// Synthetic Rodinia-like workload profiles — the substitution for the
// paper's gem5-gpu + GPGPU-Sim traffic profiling and McPAT/GPUWattch power
// profiling (see docs/reproduction.md, "Substitutions").
//
// Each of the seven applications used in Sec. V (BP, BFS, GAU, HOT, PF, SC,
// SRAD) is modeled as a deterministic traffic archetype over the platform's
// logical cores plus per-PE average power. The archetype parameters encode
// the published qualitative behaviour of each kernel (e.g. BFS is irregular
// and latency-bound with poor locality; Streamcluster/SRAD are streaming and
// bandwidth-bound; Gaussian has phase-skewed hotspots). The DSE algorithms
// only ever see the resulting (f_ij, power) pair, so these profiles exercise
// exactly the code paths the paper's profiles do.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "noc/platform.hpp"
#include "noc/workload.hpp"

namespace moela::sim {

enum class RodiniaApp {
  kBackprop,       // BP   - ML training, balanced CPU+GPU, moderate sharing
  kBfs,            // BFS  - graph traversal, irregular, latency-bound
  kGaussian,       // GAU  - dense LA, skewed hot rows (hotspot traffic)
  kHotspot3D,      // HOT  - stencil, neighbor sharing, high GPU activity
  kPathfinder,     // PF   - dynamic programming, wavefront sharing
  kStreamcluster,  // SC   - streaming clustering, bandwidth-bound
  kSrad,           // SRAD - image stencil, streaming + reductions
};

/// The seven applications in the order the paper's tables list them.
const std::vector<RodiniaApp>& all_rodinia_apps();

/// Short uppercase tag used in tables ("BP", "BFS", ...).
std::string app_name(RodiniaApp app);

/// Archetype knobs for traffic/power synthesis; exposed so tests and
/// ablations can build custom workloads.
struct AppArchetype {
  double cpu_llc = 1.0;       // CPU <-> LLC request/response intensity
  double gpu_llc = 1.0;       // GPU <-> LLC streaming intensity
  double gpu_gpu = 0.1;       // GPU <-> GPU sharing intensity
  double cpu_cpu = 0.05;      // CPU coherence chatter
  double llc_skew = 0.5;      // Zipf exponent of LLC popularity (hotspots)
  double gpu_locality = 0.5;  // 0 = uniform partner choice, 1 = clustered
  double cpu_activity = 1.0;  // power activity factors
  double gpu_activity = 1.0;
  double llc_activity = 1.0;
  double cpu_fraction = 0.5;  // fraction of runtime that is CPU-bound
                              // (consumed by the EDP model)
};

/// The calibrated archetype of each application.
AppArchetype archetype(RodiniaApp app);

/// Power constants (watts) per PE class at activity factor 1.0. Values are
/// McPAT/GPUWattch-scale for a 2.5 GHz x86 core, a 0.7 GHz Maxwell-class SM,
/// and a 256 KB LLC slice.
struct PowerModel {
  double cpu_watts = 2.8;
  double gpu_watts = 1.6;
  double llc_watts = 0.45;
};

/// Synthesizes the deterministic workload (traffic matrix + per-core power)
/// for `app` on `spec`. `seed` perturbs the per-pair weights so different
/// seeds model different input sets of the same kernel; the archetype's
/// structure dominates.
noc::Workload make_workload(const noc::PlatformSpec& spec, RodiniaApp app,
                            std::uint64_t seed = 1,
                            const PowerModel& power = {});

/// Workload with custom archetype (for ablations / property tests).
noc::Workload make_workload(const noc::PlatformSpec& spec,
                            const AppArchetype& arch, const std::string& name,
                            std::uint64_t seed, const PowerModel& power = {});

}  // namespace moela::sim
