// Shared Monte-Carlo runner for the command-line tools (rcb_sim,
// rcb_sweep), built on the scenario layer (rcb/runtime/scenario.hpp): one
// Scenario covers every protocol x adversary combination in the library —
// including fault injection and timeouts — and each trial runs under a
// ReproScope, so a contract failure inside any tool invocation emits a
// replayable RCB_REPRO record.  The flags both tools take are registered
// and read here, and every run goes through the sweep supervisor
// (runtime/supervisor.hpp), with no checkpoint when none is asked for.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rcb/cli/flags.hpp"
#include "rcb/runtime/coordinator.hpp"
#include "rcb/runtime/scenario.hpp"
#include "rcb/runtime/shard.hpp"
#include "rcb/runtime/supervisor.hpp"
#include "rcb/stats/summary.hpp"

namespace rcb::tools {

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
  /// authoritative, so this may differ from the flag-built scenario.
  Scenario scenario;
};

/// Registers the flags rcb_sim and rcb_sweep share: the scenario's
/// protocol, adversary and knobs (rcb_sim adds its timeout, battery and
/// fault knobs), supervision, --threads and --format.  The tools differ
/// only in the default trial count and the output formats they accept
/// (the first is the default).
inline void add_shared_flags(FlagSet& flags, std::int64_t trials,
                             std::vector<std::string> formats) {
  flags.add_string("protocol", "one_to_one",
                   "one_to_one | ksy | combined | broadcast | naive | sqrt | "
                   "mc_broadcast");
  flags.add_string("adversary", "none",
                   "1-to-1: none|send_phase|nack_phase|full_duel|both_views|"
                   "sym_random|spoof; broadcast: none|suffix|fraction|random|"
                   "burst; mc_broadcast: none|mc_uniform|mc_focus|mc_sweep");
  flags.add_int("budget", 16384, "adversary energy budget (slot-units)", 0);
  flags.add_double("q", 0.6, "blocking fraction for suffix-style adversaries");
  flags.add_double("rate", 0.3, "per-slot rate for random jammers");
  flags.add_int("n", 32, "number of nodes (broadcast protocols)", 1,
                UINT32_MAX);
  flags.add_double("eps", 0.01, "Fig. 1 failure parameter");
  flags.add_int("trials", trials, "Monte-Carlo trials (per sweep point)", 1);
  flags.add_int("seed", 1, "master seed (trials derive independent streams)",
                0);
  flags.add_int("max_epoch_extra", 0,
                "cap epochs at first_epoch + this (0 = protocol default; "
                "needed for --adversary=spoof, which never lets Fig.1 halt)",
                0, UINT32_MAX);
  flags.add_int("channels", 1,
                "channel count C of the multi-channel slot model "
                "(mc_broadcast protocol; C=1 is the single-channel model)",
                1, 64);
  flags.add_string("checkpoint_dir", "",
                   "journal completed trials into this directory (rcb_sweep: "
                   "one point_<i> subdirectory per sweep point) so a killed "
                   "run can be resumed (see --resume)");
  flags.add_string("resume", "",
                   "resume from the checkpoint(s) in this directory; the "
                   "checkpointed scenario is authoritative (scenario flags "
                   "are ignored) and journaled trials are not re-run.  With "
                   "no checkpoint present, starts fresh");
  flags.add_double("trial_timeout", 0.0,
                   "wall-clock watchdog per trial, seconds (0 = off); "
                   "quarantines stuck trials as timed_out and keeps sweeping");
  flags.add_int("trial_slot_budget", 0,
                "deterministic per-trial budget in simulated slots (0 = "
                "off); like --trial_timeout but reproducible bit-for-bit",
                0);
  flags.add_int("max_retries", 0,
                "re-run a trial that dies on a contract failure or exception "
                "up to this many times with a reseeded stream",
                0, UINT32_MAX);
  flags.add_int("threads", 0,
                "worker threads (0 = all CPUs in the process affinity mask); "
                "with rcb_sweep --workers, threads per worker process",
                0, 4096);
  flags.add_choice("format", std::move(formats), "output format");
}

/// The scenario the shared flags name.
inline Scenario scenario_from_flags(const FlagSet& flags) {
  Scenario s;
  s.protocol = flags.get_string("protocol");
  s.adversary = flags.get_string("adversary");
  s.budget = static_cast<Cost>(flags.get_int("budget"));
  s.q = flags.get_double("q");
  s.rate = flags.get_double("rate");
  s.n = static_cast<std::uint32_t>(flags.get_int("n"));
  s.eps = flags.get_double("eps");
  s.trials = static_cast<std::size_t>(flags.get_int("trials"));
  s.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  s.max_epoch_extra =
      static_cast<std::uint32_t>(flags.get_int("max_epoch_extra"));
  s.channels = static_cast<std::uint32_t>(flags.get_int("channels"));
  return s;
}

/// The supervision the shared flags ask for; --resume names the
/// checkpoint directory it resumes.
inline SupervisorOptions supervisor_from_flags(const FlagSet& flags) {
  SupervisorOptions sup;
  sup.checkpoint_dir = flags.get_string("checkpoint_dir");
  if (const std::string resume_dir = flags.get_string("resume");
      !resume_dir.empty()) {
    sup.checkpoint_dir = resume_dir;
    sup.resume = true;
  }
  sup.trial_timeout_sec = flags.get_double("trial_timeout");
  sup.trial_slot_budget =
      static_cast<SlotCount>(flags.get_int("trial_slot_budget"));
  sup.max_retries = static_cast<std::uint32_t>(flags.get_int("max_retries"));
  return sup;
}

/// True when `sup` asks for more than a plain run: a checkpoint, a
/// watchdog or retries.  A plain run reports a quarantined trial as a
/// failure instead of folding its synthetic outcome into the aggregate.
inline bool is_supervised(const SupervisorOptions& sup) {
  return !sup.checkpoint_dir.empty() || sup.trial_timeout_sec > 0.0 ||
         sup.trial_slot_budget != 0 || sup.max_retries != 0;
}

/// The pool --threads asks for: `own`, sized to it, or the global pool
/// at 0.
inline ThreadPool& pool_from_flags(const FlagSet& flags,
                                   std::optional<ThreadPool>& own) {
  if (const std::int64_t threads = flags.get_int("threads"); threads != 0) {
    own.emplace(static_cast<std::size_t>(threads));
    return *own;
  }
  return ThreadPool::global();
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

/// Cross-point pipelined sweep over `cfgs`: every point's trials run on
/// the pool at once, so long-tail trials of one point overlap
/// with trials of the next (runtime/supervisor.hpp,
/// run_supervised_sweep_points).  When `checkpoint_parent` is non-empty,
/// point i journals under "<checkpoint_parent>/point_<i>" — the same
/// layout the sequential per-point loop used, so old checkpoints resume
/// under the new scheduler.  `sup.checkpoint_dir` is ignored.
inline std::vector<SimAggregate> run_sweep_points(
    const std::vector<Scenario>& cfgs, const SupervisorOptions& sup,
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

/// Control-plane knobs for run_sweep_sharded; the defaults spawn the
/// workers and open no listener.
struct ShardedTransportOptions {
  /// TCP listener for --attach workers ("host:port", port 0 = ephemeral);
  /// empty: none.
  std::string listen;
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
/// shards (runtime/shard.hpp), runs them on `workers` spawned worker
/// processes (plus any that attach to `transport.listen`) via the
/// coordinator (runtime/coordinator.hpp), and merges the shard journals
/// into per-point aggregates.  The merged aggregate_digest
/// per point is bit-identical to run_sweep_points with the same cfgs —
/// regardless of worker count, worker crashes, or coordinator restarts.
/// `root` holds sweep.json and the shard_<i>/ checkpoint dirs;
/// `worker_threads` is the per-worker pool size (<= 0: one worker's fair
/// share of the affinity mask).  sup.resume re-adopts an existing root.
inline ShardedSweepOutcome run_sweep_sharded(
    const std::vector<Scenario>& cfgs, const SupervisorOptions& sup,
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
  for (const Scenario& cfg : cfgs) trials_per_point.push_back(cfg.trials);
  // More shards than workers: losing a worker then only forfeits a fraction
  // of its trials, and stragglers rebalance across the survivors.
  spec.shards = make_shard_plan(trials_per_point,
                                std::max<std::size_t>(workers, 1) * 4);

  CoordinatorOptions copt;
  copt.root = root;
  copt.workers = workers;
  copt.resume = sup.resume;
  copt.listen = transport.listen;
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
