// Runs one sweep of a workload through the same public entry points
// rcb_sweep uses — run_supervised_sweep_points in-process, or
// run_sweep_sharded across worker processes — and times it from outside.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config.hpp"
#include "sim_runner.hpp"
#include "trace.hpp"

namespace perfbench {

/// Environment variables through which a sharded run tells its worker
/// processes (this binary, re-entered by the coordinator) what to record
/// and where to dump it.
inline constexpr const char* kSpanDirEnv = "RCB_PERFBENCH_SPAN_DIR";
inline constexpr const char* kTraceModeEnv = "RCB_PERFBENCH_TRACE_MODE";

/// One execution of a workload's sweep.
struct SweepRun {
  bool ok = false;
  std::string error;
  /// Start of the workload: before the thread pool is built in-process;
  /// the entry-point call when sharded (the workers build their own pools).
  std::int64_t setup_begin_ns = 0;
  std::int64_t start_ns = 0;   ///< entry point called
  std::int64_t return_ns = 0;  ///< entry point returned
  std::int64_t end_ns = 0;     ///< per-point aggregates and fit back
  double cpu_s = 0.0;          ///< user+sys of this process and reaped workers
  std::size_t threads = 0;     ///< trial threads (all workers together)
  std::vector<rcb::tools::SimAggregate> points;
  std::vector<std::uint64_t> digests;  ///< aggregate_digest per point
  std::uint64_t events = 0;    ///< node events summed over the outcomes
  std::size_t attempted = 0;   ///< trials submitted
  std::size_t failed = 0;      ///< failed, timed out, or never completed
  std::size_t shards = 0;
  std::size_t worker_restarts = 0;
  RecorderData recorded;       ///< merged over threads and worker processes
  std::int64_t peak_rss_kb = 0;  ///< this process's VmHWM during the sweep
  std::vector<std::int64_t> worker_peak_rss_kb;  ///< one per worker process
  std::string journal_root;    ///< where the checkpoint journals live
  /// fsync calls on the set-up path: this process's before the first trial
  /// and, when sharded, those of the worker that began it.
  std::vector<Interval> setup_fsyncs;

  double sweep_s() const { return (end_ns - start_ns) * 1e-9; }
  /// Wall seconds from setup_begin_ns until the first trial began, net of
  /// the time blocked in setup_fsyncs: the device's flush latency on shared
  /// storage drifts several-fold over minutes, the set-up work does not.
  double setup_s() const;
  /// Wall seconds blocked in setup_fsyncs inside that window.
  double setup_fsync_s() const;
  /// Peak resident memory of the sweep: this process plus the `workers`
  /// largest worker processes (the most that run at once).
  double peak_rss_mb(std::size_t workers) const;
};

/// Runs `points` in-process on a pool of `threads` (or sharded, per `w`,
/// when `sharded`), journaling under `work_dir` (wiped first), recording at
/// level `mode`.
SweepRun run_sweep(const WorkloadConfig& w,
                   const std::vector<rcb::Scenario>& points,
                   const std::string& work_dir, bool sharded,
                   std::size_t threads, TraceMode mode);

/// The fit rcb_sweep reports: max cost against realised T when sweeping
/// the budget, against the swept value otherwise.
void fit_points(const WorkloadConfig& w,
                const std::vector<rcb::tools::SimAggregate>& aggs);

/// Nodes whose costs make up a trial's mean cost: n for the broadcast
/// protocols, 2 for a duel.
std::uint32_t cost_nodes(const rcb::Scenario& s);

/// Peak resident set (VmHWM) of this process in KiB, and its reset.
std::int64_t peak_rss_kb();
void reset_peak_rss();

/// Every checkpoint directory (one holding a journal) under `root`.
std::vector<std::string> journal_dirs(const std::string& root);

/// Worker-process entry (the target of --shard_worker): runs the shard
/// with a Recorder at the level the environment asks for and dumps it.
int shard_worker_main(const std::string& root, std::size_t shard_id);

}  // namespace perfbench
