// The two kinds of benchmark run: the untraced run that measures the
// end-to-end metrics, and the traced run that measures the per-layer split.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::size_t attempted = 0;  ///< trials submitted by the timed sweeps
  std::size_t failed = 0;     ///< of which failed, or in a wrong-digest sweep
  std::vector<Metric> metrics;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir;
  /// Skip the pinned-digest gate and print each sweep's digests (used to
  /// pin them in workloads.json).
  bool print_digests = false;
};

/// Untraced: repeats the workload's sweep for opt.seconds and reports the
/// median sweep_s, cpu_s, ns_per_event and setup_s, plus peak_rss_mb and
/// completed_frac.  Checks the kDefaultSeed digests pinned in the config,
/// that every repetition agrees, and (sharded) that the merged digests
/// equal an in-process run of the same points.
RunReport untraced_run(const WorkloadConfig& w, const RunOptions& opt);

/// Traced: the per-layer metrics from rounds of an untraced and a layered
/// sweep (see trace.hpp) and one span-recording sweep, with the pinned
/// digest, replay, decorator and layer-sum checks.
RunReport traced_run(const WorkloadConfig& w, const RunOptions& opt);

}  // namespace perfbench
