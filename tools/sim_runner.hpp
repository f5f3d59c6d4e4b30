// Shared Monte-Carlo runner for the command-line tools (rcb_sim,
// rcb_sweep), built on the scenario layer (rcb/runtime/scenario.hpp): one
// Scenario covers every protocol x adversary combination in the library —
// including fault injection and timeouts — and each trial runs under a
// ReproScope, so a contract failure inside any tool invocation emits a
// replayable RCB_REPRO record.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "rcb/runtime/coordinator.hpp"
#include "rcb/runtime/montecarlo.hpp"
#include "rcb/runtime/scenario.hpp"
#include "rcb/runtime/shard.hpp"
#include "rcb/runtime/supervisor.hpp"
#include "rcb/stats/summary.hpp"

namespace rcb::tools {

/// Tool-facing alias; the scenario IS the sim configuration.
using SimConfig = Scenario;

struct SimAggregate {
  bool valid = false;
  std::string error;
  double success_rate = 0.0;
  double abort_rate = 0.0;       ///< trials cut off by timeout_slots
  double mean_dead_count = 0.0;  ///< battery-exhausted nodes per trial
  double mean_crashed_count = 0.0;  ///< fault-crashed nodes per trial
  Summary max_cost;
  Summary mean_cost;
  Summary adversary_cost;
  Summary latency;
  std::vector<double> max_cost_samples;

  // Populated only by the supervised overload below.
  double timed_out_rate = 0.0;  ///< watchdog / slot-budget quarantines
  double failed_rate = 0.0;     ///< trials that exhausted the retry budget
  bool interrupted = false;     ///< stopped early on SIGINT/SIGTERM; partial
  std::size_t resumed_trials = 0;    ///< loaded from the checkpoint journal
  std::size_t executed_trials = 0;   ///< run by this invocation
  std::size_t completed_trials = 0;  ///< resumed + executed
  /// FNV-1a over (trial, outcome digest) pairs in trial order; the
  /// kill/resume chaos harness compares this against an uninterrupted run.
  std::uint64_t aggregate_digest = 0;
  /// The scenario actually run — on --resume the checkpoint manifest is
  /// authoritative, so this may differ from the flag-built config.
  Scenario scenario;
};

/// Runs the configured Monte-Carlo experiment.  On an invalid
/// protocol/adversary combination, returns valid = false with an error.
inline SimAggregate run_sim(const SimConfig& cfg,
                            ThreadPool& pool = ThreadPool::global()) {
  SimAggregate agg;
  agg.error = validate_scenario(cfg);
  if (!agg.error.empty()) return agg;

  const auto outcomes = run_trials<TrialOutcome>(
      cfg.trials, cfg.seed,
      [&](std::size_t t, Rng&) { return run_scenario_trial(cfg, t); }, pool);

  std::vector<double> mean_v, adv_v, lat_v;
  std::size_t successes = 0, aborts = 0;
  double dead = 0.0, crashed = 0.0;
  for (const auto& o : outcomes) {
    agg.max_cost_samples.push_back(o.max_cost);
    mean_v.push_back(o.mean_cost);
    adv_v.push_back(o.adversary_cost);
    lat_v.push_back(o.latency);
    successes += o.success;
    aborts += o.aborted;
    dead += static_cast<double>(o.dead_count);
    crashed += static_cast<double>(o.crashed_count);
  }
  const auto trials = static_cast<double>(cfg.trials);
  agg.max_cost = summarize(agg.max_cost_samples);
  agg.mean_cost = summarize(mean_v);
  agg.adversary_cost = summarize(adv_v);
  agg.latency = summarize(lat_v);
  agg.success_rate = static_cast<double>(successes) / trials;
  agg.abort_rate = static_cast<double>(aborts) / trials;
  agg.mean_dead_count = dead / trials;
  agg.mean_crashed_count = crashed / trials;
  agg.valid = true;
  return agg;
}

/// Reduces a finished SweepResult into the tool-facing aggregate.
/// Quarantined ("timed_out") and failed trials contribute their synthetic
/// outcomes, so the aggregate digest stays comparable across resumed runs.
inline SimAggregate aggregate_from_sweep(const SweepResult& sweep) {
  SimAggregate agg;
  if (!sweep.ok) {
    agg.error = sweep.error;
    return agg;
  }

  std::vector<double> mean_v, adv_v, lat_v;
  for (std::vector<double>* v :
       {&agg.max_cost_samples, &mean_v, &adv_v, &lat_v}) {
    v->reserve(sweep.records.size());
  }
  std::size_t successes = 0, aborts = 0, timed_out = 0, failed = 0;
  double dead = 0.0, crashed = 0.0;
  for (const CheckpointRecord& rec : sweep.records) {
    const TrialOutcome& o = rec.outcome;
    agg.max_cost_samples.push_back(o.max_cost);
    mean_v.push_back(o.mean_cost);
    adv_v.push_back(o.adversary_cost);
    lat_v.push_back(o.latency);
    successes += o.success;
    aborts += o.aborted;
    dead += static_cast<double>(o.dead_count);
    crashed += static_cast<double>(o.crashed_count);
    timed_out += rec.status == "timed_out";
    failed += rec.status == "failed";
  }
  const auto completed = static_cast<double>(sweep.records.size());
  agg.max_cost = summarize(agg.max_cost_samples);
  agg.mean_cost = summarize(mean_v);
  agg.adversary_cost = summarize(adv_v);
  agg.latency = summarize(lat_v);
  if (completed > 0) {
    agg.success_rate = static_cast<double>(successes) / completed;
    agg.abort_rate = static_cast<double>(aborts) / completed;
    agg.mean_dead_count = dead / completed;
    agg.mean_crashed_count = crashed / completed;
    agg.timed_out_rate = static_cast<double>(timed_out) / completed;
    agg.failed_rate = static_cast<double>(failed) / completed;
  }
  agg.interrupted = sweep.interrupted;
  agg.resumed_trials = sweep.resumed;
  agg.executed_trials = sweep.executed;
  agg.completed_trials = sweep.records.size();
  agg.aggregate_digest = sweep.aggregate_digest;
  agg.scenario = sweep.scenario;
  agg.valid = true;
  return agg;
}

/// Supervised variant: runs the experiment through the crash-safe sweep
/// supervisor (runtime/supervisor.hpp) — checkpoint/resume, per-trial
/// watchdogs, graceful shutdown.  On interruption the aggregate covers the
/// completed prefix (rates are over completed trials) and interrupted is
/// set so the tool can print a resume hint and exit 130.
inline SimAggregate run_sim(const SimConfig& cfg, const SupervisorOptions& sup,
                            ThreadPool& pool = ThreadPool::global()) {
  return aggregate_from_sweep(run_supervised_sweep(cfg, sup, pool));
}

/// Cross-point pipelined sweep over `cfgs`: every point's trials run on
/// the pool at once, so long-tail trials of one point overlap
/// with trials of the next (runtime/supervisor.hpp,
/// run_supervised_sweep_points).  When `checkpoint_parent` is non-empty,
/// point i journals under "<checkpoint_parent>/point_<i>" — the same
/// layout the sequential per-point loop used, so old checkpoints resume
/// under the new scheduler.  `sup.checkpoint_dir` is ignored.
inline std::vector<SimAggregate> run_sweep_points(
    const std::vector<SimConfig>& cfgs, const SupervisorOptions& sup,
    const std::string& checkpoint_parent,
    ThreadPool& pool = ThreadPool::global()) {
  std::vector<SweepPoint> points(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    points[i].scenario = cfgs[i];
    if (!checkpoint_parent.empty()) {
      points[i].checkpoint_dir =
          checkpoint_parent + "/point_" + std::to_string(i);
    }
  }
  const std::vector<SweepResult> sweeps =
      run_supervised_sweep_points(points, sup, pool);
  std::vector<SimAggregate> aggs;
  aggs.reserve(sweeps.size());
  for (const SweepResult& sweep : sweeps) {
    aggs.push_back(aggregate_from_sweep(sweep));
  }
  return aggs;
}

/// Transport and control-plane knobs for run_sweep_sharded; the defaults
/// reproduce the original local fork/exec behaviour.
struct ShardedTransportOptions {
  TransportKind transport = TransportKind::kLocalProcess;
  /// Socket only: listener address (port 0 = ephemeral, printed on bind).
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;
  /// Socket only: fork our own --attach fleet; false parks until external
  /// workers attach.
  bool spawn_workers = true;
  double lease_timeout_sec = 10.0;
  double heartbeat_interval_sec = 0.1;
  /// Seeded control-plane chaos (tests/CI; 0 seed = off).
  NetFaultConfig net_faults;
  /// Forwarded to CoordinatorOptions::on_listen.
  std::function<void(std::uint16_t port)> on_listen;
};

/// Result of a multi-process sharded sweep (rcb_sweep --workers=N).
struct ShardedSweepOutcome {
  bool ok = false;
  std::string error;
  bool interrupted = false;          ///< graceful shutdown; resume with root
  std::size_t shards_completed = 0;
  std::size_t worker_restarts = 0;   ///< shards reassigned after a crash
  std::vector<SimAggregate> points;  ///< one per cfg, same as in-process
};

/// Multi-process sharded sweep: partitions every (point, trial) range into
/// shards (runtime/shard.hpp), fork/execs up to `workers` worker processes
/// over them via the coordinator (runtime/coordinator.hpp), and merges the
/// shard journals into per-point aggregates.  The merged aggregate_digest
/// per point is bit-identical to run_sweep_points with the same cfgs —
/// regardless of worker count, worker crashes, or coordinator restarts.
/// `root` holds sweep.json and the shard_<i>/ checkpoint dirs;
/// `worker_threads` is the per-worker pool size (<= 0: one worker's fair
/// share of the affinity mask).  sup.resume re-adopts an existing root.
inline ShardedSweepOutcome run_sweep_sharded(
    const std::vector<SimConfig>& cfgs, const SupervisorOptions& sup,
    const std::string& root, std::size_t workers, int worker_threads,
    const ShardedTransportOptions& transport = {}) {
  ShardSpec spec;
  if (worker_threads <= 0) {
    const std::size_t share =
        ThreadPool::default_concurrency() / std::max<std::size_t>(workers, 1);
    worker_threads = static_cast<int>(std::max<std::size_t>(share, 1));
  }
  spec.worker_threads = worker_threads;
  spec.trial_timeout_sec = sup.trial_timeout_sec;
  spec.trial_slot_budget = sup.trial_slot_budget;
  spec.max_retries = sup.max_retries;
  spec.heartbeat_interval_sec = transport.heartbeat_interval_sec;
  spec.points = cfgs;
  std::vector<std::uint64_t> trials_per_point;
  trials_per_point.reserve(cfgs.size());
  for (const SimConfig& cfg : cfgs) trials_per_point.push_back(cfg.trials);
  // More shards than workers: losing a worker then only forfeits a fraction
  // of its trials, and stragglers rebalance across the survivors.
  spec.shards = make_shard_plan(trials_per_point,
                                std::max<std::size_t>(workers, 1) * 4);

  CoordinatorOptions copt;
  copt.root = root;
  copt.workers = workers;
  copt.resume = sup.resume;
  copt.transport = transport.transport;
  copt.listen_host = transport.listen_host;
  copt.listen_port = transport.listen_port;
  copt.spawn_workers = transport.spawn_workers;
  copt.lease_timeout_sec = transport.lease_timeout_sec;
  copt.net_faults = transport.net_faults;
  copt.on_listen = transport.on_listen;
  const CoordinatorResult res = run_shard_coordinator(spec, copt);

  ShardedSweepOutcome out;
  out.interrupted = res.interrupted;
  out.shards_completed = res.shards_completed;
  out.worker_restarts = res.worker_restarts;
  out.error = res.error;
  if (!res.ok) return out;
  out.points.reserve(res.points.size());
  for (const SweepResult& sweep : res.points) {
    out.points.push_back(aggregate_from_sweep(sweep));
  }
  out.ok = true;
  return out;
}

}  // namespace rcb::tools
