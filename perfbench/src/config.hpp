// Workload definitions of the end-to-end benchmark, read from
// perfbench/workloads.json: the base scenario, the swept parameter and its
// values, trials per point, how the sweep is executed (in-process or
// sharded across worker processes), and the per-point aggregate digests
// pinned for kDefaultSeed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rcb/runtime/scenario.hpp"

namespace perfbench {

/// The master seed whose per-point digests workloads.json pins.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct WorkloadConfig {
  std::string name;
  rcb::Scenario base;             ///< every field except the swept one and seed
  std::string sweep;              ///< budget | channels | eps
  std::vector<double> values;     ///< one sweep point per value
  std::size_t trials = 0;         ///< trials per point
  bool sharded = false;           ///< run_sweep_sharded instead of in-process
  std::size_t workers = 0;        ///< sharded: worker processes
  std::size_t worker_threads = 0; ///< sharded: pool size per worker
  /// aggregate_digest per point at kDefaultSeed (empty = not pinned).
  std::vector<std::uint64_t> pinned_digests;
};

struct BenchConfig {
  std::vector<WorkloadConfig> workloads;

  const WorkloadConfig* find(const std::string& name) const;
};

/// Parses the workloads file; returns "" or an error description.
std::string load_config(const std::string& path, BenchConfig& out);

/// The sweep points of `w` for master seed `seed`.  Point i uses seed
/// seed + i * 1000003, the same derivation as rcb_sweep.
std::vector<rcb::Scenario> make_points(const WorkloadConfig& w,
                                       std::uint64_t seed);

/// Trial threads of `w`: all CPUs in the affinity mask in-process, or
/// workers * worker_threads when sharded.  In-process comparison runs of a
/// sharded workload use the same total.
std::size_t trial_threads(const WorkloadConfig& w);

}  // namespace perfbench
