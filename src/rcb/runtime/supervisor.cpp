#include "rcb/runtime/supervisor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "rcb/common/contracts.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/runtime/cancel.hpp"

namespace rcb {
namespace {

// ---------------------------------------------------------------------------
// Graceful shutdown flag.
//
// The signal handler only touches lock-free atomics (async-signal-safe);
// everything else — draining, journal fsync, the resume hint — happens on
// the normal control path once the sweep notices the flag.

std::atomic<bool> g_shutdown{false};
std::atomic<int> g_signal_count{0};

extern "C" void sweep_signal_handler(int) {
  g_shutdown.store(true, std::memory_order_release);
  // A second signal means the user is done waiting for the drain.
  if (g_signal_count.fetch_add(1, std::memory_order_acq_rel) >= 1) {
    std::_Exit(130);
  }
}

// ---------------------------------------------------------------------------
// Contract-failure capture.
//
// Contract failures abort the process by default.  Inside a supervised
// trial we instead want to journal the trial as failed (or retry it) and
// keep sweeping, so while any sweep is running we install a process-global
// handler that throws out of the failing RCB_REQUIRE — but only on threads
// currently executing a supervised trial; failures anywhere else fall
// through to the previous handler (normally: stderr + abort).

struct SupervisedTrialFault {
  std::string record_json;  ///< the RCB_REPRO payload, pre-formatted
};

thread_local bool t_in_supervised_trial = false;

std::mutex g_handler_mutex;
int g_handler_refs = 0;
ContractFailureHandler g_previous_handler = nullptr;

void supervised_contract_handler(std::string_view record) {
  if (t_in_supervised_trial) {
    throw SupervisedTrialFault{std::string(record)};
  }
  if (g_previous_handler != nullptr) g_previous_handler(record);
}

class ContractCaptureGuard {
 public:
  ContractCaptureGuard() {
    std::lock_guard<std::mutex> lock(g_handler_mutex);
    if (g_handler_refs++ == 0) {
      g_previous_handler =
          set_contract_failure_handler(&supervised_contract_handler);
    }
  }
  ~ContractCaptureGuard() {
    std::lock_guard<std::mutex> lock(g_handler_mutex);
    if (--g_handler_refs == 0) {
      set_contract_failure_handler(g_previous_handler);
      g_previous_handler = nullptr;
    }
  }
  ContractCaptureGuard(const ContractCaptureGuard&) = delete;
  ContractCaptureGuard& operator=(const ContractCaptureGuard&) = delete;
};

// ---------------------------------------------------------------------------
// Watchdog: one monitor thread per sweep, scanning registered trials every
// ~20ms and requesting cancellation on the ones past their deadline.  The
// engines notice at the next repetition boundary, so enforcement latency is
// one repetition, not one slot — cheap and good enough for budgets measured
// in (fractions of) seconds.

class Watchdog {
 public:
  explicit Watchdog(double timeout_sec)
      : timeout_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(timeout_sec))),
        thread_([this] { loop(); }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// (Re)arms the deadline for `token`; called at the start of each attempt.
  void watch(CancelToken* token) {
    std::lock_guard<std::mutex> lock(mutex_);
    deadlines_[token] = Clock::now() + timeout_;
  }

  void unwatch(CancelToken* token) {
    std::lock_guard<std::mutex> lock(mutex_);
    deadlines_.erase(token);
  }

 private:
  using Clock = std::chrono::steady_clock;

  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(20),
                   [this] { return stop_; });
      if (stop_) break;
      const Clock::time_point now = Clock::now();
      for (const auto& [token, deadline] : deadlines_) {
        if (now >= deadline) token->request("watchdog");
      }
    }
  }

  const Clock::duration timeout_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::map<CancelToken*, Clock::time_point> deadlines_;
  std::thread thread_;
};

/// Outcome journaled for a trial the supervisor had to give up on.  Derived
/// from (status, trial) only, so uninterrupted and resumed runs produce the
/// same record and the aggregate digest stays comparable.
TrialOutcome synthetic_outcome(const char* status, std::uint64_t trial) {
  TrialOutcome o;
  o.aborted = true;
  o.digest = fnv1a64(std::string(status) + ":" + std::to_string(trial));
  return o;
}

void emit_repro(const char* kind, const std::string& expr, const Scenario& s,
                std::uint64_t trial, const std::string& scenario_json) {
  ReproContext ctx;
  ctx.master_seed = s.seed;
  ctx.trial = trial;
  ctx.scenario_json = scenario_json;
  std::fprintf(
      stderr, "RCB_REPRO %s\n",
      format_repro_record(kind, expr, "runtime/supervisor.cpp", 0, &ctx)
          .c_str());
}

TrialOutcome default_trial_runner(const Scenario& s, std::uint64_t trial,
                                  std::uint32_t attempt) {
  if (attempt == 0) return run_scenario_trial(s, trial);
  Scenario reseeded = s;
  reseeded.seed = reseed_for_attempt(s.seed, attempt);
  return run_scenario_trial(reseeded, trial);
}

}  // namespace

std::uint64_t reseed_for_attempt(std::uint64_t seed, std::uint32_t attempt) {
  if (attempt == 0) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * attempt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t aggregate_digest(const std::vector<CheckpointRecord>& records) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix_u64 = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const CheckpointRecord& rec : records) {
    mix_u64(rec.trial);
    mix_u64(rec.outcome.digest);
  }
  return h;
}

void request_sweep_shutdown() {
  g_shutdown.store(true, std::memory_order_release);
}

bool sweep_shutdown_requested() {
  return g_shutdown.load(std::memory_order_acquire);
}

void reset_sweep_shutdown() {
  g_shutdown.store(false, std::memory_order_release);
  g_signal_count.store(0, std::memory_order_release);
}

void install_sweep_signal_handlers() {
  std::signal(SIGINT, &sweep_signal_handler);
  std::signal(SIGTERM, &sweep_signal_handler);
}

namespace {

/// All mutable state of one sweep point while its trials are in flight.
/// Owned via unique_ptr so addresses stay stable for the pool tasks.
struct PointState {
  Scenario scenario;          ///< authoritative (manifest scenario on resume)
  std::uint64_t begin = 0;    ///< assigned trial range [begin, end)
  std::uint64_t end = 0;
  std::string scenario_json;
  std::vector<CheckpointRecord> resumed;   ///< loaded from the journal
  std::vector<bool> have;                  ///< trial-index completion bitmap
  /// Next trial index to claim; the point's tasks share it.
  std::atomic<std::uint64_t> cursor{0};
  std::unique_ptr<AsyncJournalWriter> journal;  ///< null when not checkpointing
  std::mutex fresh_mutex;
  std::vector<CheckpointRecord> fresh;     ///< trials run by this invocation
  /// Set on a journal failure: the point's remaining trials are skipped
  /// (running them would complete work that can never be made durable).
  std::atomic<bool> abort{false};
};

/// Phase-1 setup for one point: resume or create its checkpoint and hand
/// the open writer to an AsyncJournalWriter.  Returns "" or an error.
std::string setup_point(const SweepPoint& point, const SupervisorOptions& opt,
                        SweepResult& result, PointState& st) {
  result.scenario = point.scenario;
  const bool checkpointing = !point.checkpoint_dir.empty();
  CheckpointWriter writer;

  if (checkpointing && opt.resume) {
    std::error_code ec;
    const std::filesystem::path manifest =
        std::filesystem::path(point.checkpoint_dir) / kCheckpointManifestFile;
    // --resume with no manifest yet starts fresh, so scripted restart loops
    // can pass the flag unconditionally.
    if (std::filesystem::exists(manifest, ec)) {
      CheckpointLoadResult loaded = load_checkpoint(point.checkpoint_dir);
      if (!loaded.ok) return loaded.error;
      result.scenario = loaded.scenario;
      st.resumed = std::move(loaded.records);
      const std::string err =
          writer.open_for_append(point.checkpoint_dir, loaded.scenario_digest,
                                 loaded.journal_valid_bytes);
      if (!err.empty()) return err;
    }
  }

  if (const std::string invalid = validate_scenario(result.scenario);
      !invalid.empty()) {
    return invalid;
  }
  if (checkpointing && !writer.active()) {
    const std::string err = writer.create(point.checkpoint_dir,
                                          result.scenario);
    if (!err.empty()) return err;
  }

  result.resumed = st.resumed.size();
  st.scenario = result.scenario;
  st.begin = point.trial_begin;
  st.end = point.trial_end;
  if (st.begin == 0 && st.end == 0) st.end = st.scenario.trials;
  if (st.begin > st.end || st.end > st.scenario.trials) {
    return "invalid trial range [" + std::to_string(st.begin) + ", " +
           std::to_string(st.end) + ") for scenario with " +
           std::to_string(st.scenario.trials) + " trials";
  }
  st.scenario_json = scenario_to_json(st.scenario);
  st.have.assign(st.end - st.begin, false);
  for (const CheckpointRecord& rec : st.resumed) {
    if (rec.trial < st.begin || rec.trial >= st.end) {
      return "checkpoint record for trial " + std::to_string(rec.trial) +
             " is outside the assigned range [" + std::to_string(st.begin) +
             ", " + std::to_string(st.end) +
             "): journal belongs to a different shard assignment";
    }
    st.have[rec.trial - st.begin] = true;
  }
  st.cursor.store(st.begin, std::memory_order_relaxed);
  if (writer.active()) {
    st.journal = std::make_unique<AsyncJournalWriter>(std::move(writer));
  }
  return "";
}

/// Runs trial `t` of the point with watchdog, slot budget and
/// retry-with-reseed, then hands the record to the point's group-commit
/// journal.  Returns false, and sets the point's abort flag, when the
/// journal is broken: the record can never be made durable, so it must
/// not count as completed.
bool run_point_trial(PointState& st, std::uint64_t t,
                     const SupervisorOptions& opt, const TrialRunner& runner,
                     Watchdog* watchdog, CheckpointRecord& rec) {
  const Scenario& s = st.scenario;
  CancelToken token(opt.trial_slot_budget);
  CancelScope cancel_scope(&token);
  rec.trial = t;

  t_in_supervised_trial = true;
  std::uint32_t attempt = 0;
  for (;;) {
    if (watchdog != nullptr) watchdog->watch(&token);
    try {
      rec.outcome = runner(s, t, attempt);
      rec.status = "ok";
    } catch (const TrialCancelled& cancelled) {
      rec.status = "timed_out";
      rec.outcome = synthetic_outcome("timed_out", t);
      emit_repro("timeout",
                 "trial exceeded its " + cancelled.reason() + " budget", s, t,
                 st.scenario_json);
    } catch (const SupervisedTrialFault& fault) {
      std::fprintf(stderr, "RCB_REPRO %s\n", fault.record_json.c_str());
      if (attempt < opt.max_retries) {
        ++attempt;
        continue;
      }
      rec.status = "failed";
      rec.outcome = synthetic_outcome("failed", t);
    } catch (const std::exception& ex) {
      emit_repro("exception", ex.what(), s, t, st.scenario_json);
      if (attempt < opt.max_retries) {
        ++attempt;
        continue;
      }
      rec.status = "failed";
      rec.outcome = synthetic_outcome("failed", t);
    } catch (...) {
      emit_repro("exception", "unknown exception", s, t, st.scenario_json);
      if (attempt < opt.max_retries) {
        ++attempt;
        continue;
      }
      rec.status = "failed";
      rec.outcome = synthetic_outcome("failed", t);
    }
    break;
  }
  t_in_supervised_trial = false;
  if (watchdog != nullptr) watchdog->unwatch(&token);
  rec.attempts = attempt + 1;

  if (st.journal != nullptr) {
    // Group commit: the writer thread batches this with its neighbours and
    // flushes once.
    if (!st.journal->enqueue(rec)) {
      st.abort.store(true, std::memory_order_relaxed);
      return false;
    }
  }
  return true;
}

/// Records a claiming task holds before merging them into `fresh`: enough
/// to make the mutex rare, few enough that no task holds a second copy of
/// the point's records.
constexpr std::size_t kMergeBatch = 64;

/// One of a point's claiming tasks: takes trial indices from the point's
/// cursor until its range is exhausted, runs those not yet journaled, and
/// merges their records into `fresh` in batches.
void run_point_tasks(PointState& st, const SupervisorOptions& opt,
                     const TrialRunner& runner, Watchdog* watchdog) {
  std::vector<CheckpointRecord> batch;
  const auto merge = [&st, &batch] {
    std::lock_guard<std::mutex> lock(st.fresh_mutex);
    st.fresh.insert(st.fresh.end(), std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
    batch.clear();
  };
  for (;;) {
    // Trials not yet started when shutdown (or a journal write error) hits
    // are skipped, not run: the journal must only ever contain records
    // that were durably appended.
    if (st.abort.load(std::memory_order_relaxed) ||
        g_shutdown.load(std::memory_order_acquire)) {
      break;
    }
    const std::uint64_t t = st.cursor.fetch_add(1, std::memory_order_relaxed);
    if (t >= st.end) break;
    if (st.have[t - st.begin]) continue;
    CheckpointRecord rec;
    if (!run_point_trial(st, t, opt, runner, watchdog, rec)) break;
    batch.push_back(std::move(rec));
    if (batch.size() == kMergeBatch) merge();
  }
  if (!batch.empty()) merge();
}

/// Phase-3 finalisation for one point: drain+fsync the journal, then
/// reduce records in trial order (sorting makes the aggregate digest
/// independent of completion order, hence of thread count).
void finalize_point(PointState& st, SweepResult& result) {
  if (st.journal != nullptr) {
    const std::string err = st.journal->finish();
    if (!err.empty()) {
      result.error = "checkpoint journal failed: " + err;
      return;
    }
  }
  result.executed = st.fresh.size();
  result.records = std::move(st.resumed);
  result.records.insert(result.records.end(),
                        std::make_move_iterator(st.fresh.begin()),
                        std::make_move_iterator(st.fresh.end()));
  std::sort(result.records.begin(), result.records.end(),
            [](const CheckpointRecord& a, const CheckpointRecord& b) {
              return a.trial < b.trial;
            });
  for (const CheckpointRecord& rec : result.records) {
    if (rec.status == "timed_out") ++result.timed_out;
    if (rec.status == "failed") ++result.failed_trials;
  }
  result.interrupted = result.records.size() < (st.end - st.begin);
  result.aggregate_digest = aggregate_digest(result.records);
  result.ok = true;
}

}  // namespace

std::vector<SweepResult> run_supervised_sweep_points(
    const std::vector<SweepPoint>& points, const SupervisorOptions& opt,
    ThreadPool& pool, const TrialRunner& runner) {
  std::vector<SweepResult> results(points.size());
  std::vector<std::unique_ptr<PointState>> states;
  states.reserve(points.size());

  // Phase 1 — sequential setup.  Every point is loaded/validated/created
  // before any trial runs, so a bad point fails the sweep cleanly instead
  // of after hours of compute.
  for (std::size_t i = 0; i < points.size(); ++i) {
    states.push_back(std::make_unique<PointState>());
    const std::string err =
        setup_point(points[i], opt, results[i], *states[i]);
    if (!err.empty()) {
      results[i].error = err;
      return results;  // nothing has run; other points report !ok
    }
  }

  // Phase 2 — per point, min(threads, trials in range) tasks that claim
  // trial indices from the point's cursor.  Every point has a task for
  // each worker, so the work-stealing pool keeps all workers busy across
  // point boundaries: a long-tail trial of point i does not serialise the
  // start of point i+1.
  std::optional<Watchdog> watchdog;
  if (opt.trial_timeout_sec > 0.0) watchdog.emplace(opt.trial_timeout_sec);
  Watchdog* wd = watchdog ? &*watchdog : nullptr;
  ContractCaptureGuard contract_capture;

  for (std::size_t i = 0; i < points.size(); ++i) {
    PointState* st = states[i].get();
    const std::uint64_t tasks =
        std::min<std::uint64_t>(pool.num_threads(), st->end - st->begin);
    for (std::uint64_t k = 0; k < tasks; ++k) {
      pool.submit([st, &opt, &runner, wd] {
        run_point_tasks(*st, opt, runner, wd);
      });
    }
  }
  pool.wait_idle();

  // Phase 3 — sequential finalisation in point order.
  for (std::size_t i = 0; i < points.size(); ++i) {
    finalize_point(*states[i], results[i]);
  }
  return results;
}

std::vector<SweepResult> run_supervised_sweep_points(
    const std::vector<SweepPoint>& points, const SupervisorOptions& opt,
    ThreadPool& pool) {
  return run_supervised_sweep_points(points, opt, pool,
                                     &default_trial_runner);
}

SweepResult run_supervised_sweep(const Scenario& s_in,
                                 const SupervisorOptions& opt,
                                 ThreadPool& pool, const TrialRunner& runner) {
  std::vector<SweepPoint> points(1);
  points[0].scenario = s_in;
  points[0].checkpoint_dir = opt.checkpoint_dir;
  std::vector<SweepResult> results =
      run_supervised_sweep_points(points, opt, pool, runner);
  return std::move(results[0]);
}

SweepResult run_supervised_sweep(const Scenario& s,
                                 const SupervisorOptions& opt,
                                 ThreadPool& pool) {
  return run_supervised_sweep(s, opt, pool, &default_trial_runner);
}

}  // namespace rcb
