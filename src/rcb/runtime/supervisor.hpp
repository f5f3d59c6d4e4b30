// Crash-safe sweep supervisor: checkpoint/resume, per-trial watchdogs, and
// graceful shutdown for long Monte-Carlo runs.
//
// run_supervised_sweep executes every trial of a Scenario on the thread
// pool, journaling completed trials to a checkpoint directory
// (runtime/checkpoint.hpp) in small batches.  Because every trial is a pure
// function of (scenario, trial index), a killed process resumes by loading
// the journal, skipping completed indices, and re-running only the rest —
// and the recomputed aggregates are bit-identical to an uninterrupted run.
//
// Self-defence on top of the journal:
//
//   * Watchdog — a monitor thread cancels trials exceeding a wall-clock
//     budget; engines notice at the next repetition boundary
//     (runtime/cancel.hpp).  A deterministic alternative, the per-trial
//     slot budget, cancels at a fixed simulated-slot count.  Either way
//     the trial is journaled as "timed_out" with a replayable RCB_REPRO
//     record, and the sweep continues.
//   * Bounded retry-with-reseed — a trial that dies on a contract failure
//     or an escaped exception (e.g. under injected faults) is retried up
//     to max_retries times with a deterministically derived seed; the
//     policy is itself deterministic, so resumed and uninterrupted runs
//     agree.
//   * Graceful shutdown — after request_sweep_shutdown() (wired to
//     SIGINT/SIGTERM by install_sweep_signal_handlers), pending trials are
//     skipped, in-flight trials drain, the journal is fsynced, and the
//     result reports interrupted=true so tools can print a
//     "resume with --resume=<dir>" hint.
//
// Multi-point sweeps (run_supervised_sweep_points) give every point up to
// one task per pool thread; the tasks claim the point's trial indices from
// a shared cursor, so a short trial costs no pool submission of its own.
// The same tasks journal their records, one append per batch — see
// docs/model.md §Concurrency architecture for the full design and the
// determinism argument.
//
// Neither entry point may be called from inside a task already running on
// the same pool (both block on pool idleness).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rcb/runtime/checkpoint.hpp"
#include "rcb/runtime/thread_pool.hpp"

namespace rcb {

struct SupervisorOptions {
  /// Directory for the checkpoint journal; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Load an existing checkpoint from checkpoint_dir before running; the
  /// checkpointed scenario is authoritative (command-line scenario flags
  /// are ignored on resume so the journal is never mixed across
  /// scenarios).  With no manifest present, starts fresh.
  bool resume = false;
  /// Wall-clock watchdog per trial, in seconds (0 = off).  Nondeterministic
  /// by nature; a trial that times out is journaled, so resumed runs never
  /// re-decide it.
  double trial_timeout_sec = 0.0;
  /// Deterministic per-trial budget in simulated slots (0 = off), charged
  /// at repetition boundaries; covers all retry attempts of the trial.
  SlotCount trial_slot_budget = 0;
  /// How many times to re-run (with a reseeded stream) a trial that dies
  /// on a contract failure or exception before journaling it as "failed".
  std::uint32_t max_retries = 0;
};

struct SweepResult {
  bool ok = false;
  std::string error;
  /// The scenario actually run (the manifest's scenario on resume).
  Scenario scenario;
  /// True when the sweep stopped early on request_sweep_shutdown();
  /// `records` then holds only the completed prefix of trials.
  bool interrupted = false;
  std::size_t resumed = 0;        ///< trials loaded from the journal
  /// Trials run by this invocation.  After a journal failure, only those
  /// whose records reached the journal.
  std::size_t executed = 0;
  std::size_t timed_out = 0;      ///< watchdog / slot-budget quarantines
  std::size_t failed_trials = 0;  ///< exhausted the retry budget
  /// All completed trials, sorted by trial index.
  std::vector<CheckpointRecord> records;
  /// FNV-1a over (trial, outcome digest) pairs in trial order; equal
  /// digests certify bit-identical per-trial trajectories — the quantity
  /// the kill/resume chaos test compares against an uninterrupted run.
  std::uint64_t aggregate_digest = 0;
};

/// Executes one (scenario, trial, attempt): attempt 0 must equal
/// run_scenario_trial(s, trial); attempts >= 1 reseed deterministically.
/// Injectable for tests (watchdog/retry paths need controllable trials).
using TrialRunner =
    std::function<TrialOutcome(const Scenario&, std::uint64_t, std::uint32_t)>;

/// The seed used for retry attempt `attempt` of a sweep seeded with
/// `seed` (attempt 0 returns `seed` unchanged).  splitmix64-style mix, so
/// retried trials get streams unrelated to every trial's primary stream.
std::uint64_t reseed_for_attempt(std::uint64_t seed, std::uint32_t attempt);

SweepResult run_supervised_sweep(const Scenario& s,
                                 const SupervisorOptions& opt,
                                 ThreadPool& pool, const TrialRunner& runner);

SweepResult run_supervised_sweep(const Scenario& s,
                                 const SupervisorOptions& opt,
                                 ThreadPool& pool = ThreadPool::global());

/// One point of a multi-scenario sweep: a scenario plus its own checkpoint
/// directory (empty disables checkpointing for that point).  Points must
/// not share directories.
///
/// `trial_begin`/`trial_end` restrict the point to the half-open trial
/// range [trial_begin, trial_end) — the unit of work a shard worker owns
/// (runtime/shard.hpp).  Records keep their absolute trial indices, so a
/// ranged journal merges with its sibling shards into the same aggregate
/// as an unranged run.  Both zero (the default) means the full range
/// [0, scenario.trials).  An empty range (begin == end > 0) is legal and
/// runs nothing beyond creating the checkpoint.  On resume, a journal
/// record outside the assigned range is corruption (the journal belongs
/// to a different shard assignment) and fails setup.
struct SweepPoint {
  Scenario scenario;
  std::string checkpoint_dir;
  std::uint64_t trial_begin = 0;
  std::uint64_t trial_end = 0;
};

/// Cross-point pipelined sweep: submits, for every point at once,
/// min(pool threads, trials in range) tasks that claim the
/// point's trial indices from a shared cursor, so long-tail trials of
/// point i overlap with trials of points i+1..k instead of idling the pool
/// at each point boundary.  Per point this is semantically identical to calling
/// run_supervised_sweep with SweepPoint::checkpoint_dir — same resume
/// semantics, same retry/watchdog policy, and bit-identical
/// aggregate_digest for any thread count or schedule (per-trial RNG
/// streams derive from (seed, trial); per-point aggregates reduce in trial
/// order).  `opt.checkpoint_dir` is ignored; the per-point directories are
/// authoritative.
///
/// Durability: the claiming tasks journal their own records.  A task holds
/// at most 64 records, and commits them once the batch is full, after a
/// trial once 1 ms has passed since the batch's first trial began, and when
/// it ends: it encodes the frames outside any lock, then appends them with
/// one write+flush under the point's lock, and only then counts them.  So
/// a kill loses at most 64 records or 1 ms of trials per task, a trial that
/// runs 1 ms or more is on disk before its task starts another, and a
/// point's result is reported ok only after its journal has been fsynced,
/// so a reported record is always recoverable.
///
/// Setup (load/validate/create) runs sequentially for every point before
/// any trial is submitted; a setup failure aborts the whole sweep with no
/// trials run (the failing point's result carries the error).  A journal
/// *write* failure mid-run aborts only that point's remaining trials: the
/// failed batch and every later one are dropped, and the point's result
/// carries "checkpoint journal failed: <error>".
std::vector<SweepResult> run_supervised_sweep_points(
    const std::vector<SweepPoint>& points, const SupervisorOptions& opt,
    ThreadPool& pool, const TrialRunner& runner);

std::vector<SweepResult> run_supervised_sweep_points(
    const std::vector<SweepPoint>& points, const SupervisorOptions& opt,
    ThreadPool& pool = ThreadPool::global());

/// FNV-1a over (trial, digest) pairs; `records` must be sorted by trial.
std::uint64_t aggregate_digest(const std::vector<CheckpointRecord>& records);

/// Sorts `res.records` by trial, counts the timed_out and failed ones, sets
/// aggregate_digest and marks `res` ok: the last step of every per-point
/// result, run in-process or merged from shard journals.
void finalize_sweep_result(SweepResult& res);

/// Asks every running supervised sweep to stop dispatching new trials.
/// Async-signal-safe.
void request_sweep_shutdown();
bool sweep_shutdown_requested();
/// Clears the shutdown flag (tests; tools do not need it).
void reset_sweep_shutdown();

/// Installs SIGINT/SIGTERM handlers that call request_sweep_shutdown();
/// a second signal exits immediately with status 130.
void install_sweep_signal_handlers();

}  // namespace rcb
