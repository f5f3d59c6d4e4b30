// Tests for the crash-safe sweep supervisor: resume determinism, watchdog
// quarantine, deterministic slot budgets, retry-with-reseed, contract
// capture, and graceful shutdown.
#include "rcb/runtime/supervisor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rcb/common/contracts.hpp"
#include "rcb/runtime/cancel.hpp"

namespace rcb {
namespace {

namespace fs = std::filesystem;

Scenario fast_scenario(std::size_t trials = 12) {
  Scenario s;
  s.protocol = "one_to_one";
  s.adversary = "full_duel";
  s.budget = 512;
  s.trials = trials;
  s.seed = 99;
  return s;
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_sweep_shutdown();
    dir_ = (fs::temp_directory_path() /
            ("rcb_sup_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    reset_sweep_shutdown();
    fs::remove_all(dir_);
  }

  std::string dir_;
  ThreadPool pool_{4};
};

TEST_F(SupervisorTest, UncheckpointedSweepMatchesPlainExecution) {
  const Scenario s = fast_scenario();
  const SweepResult sweep = run_supervised_sweep(s, {}, pool_);
  ASSERT_TRUE(sweep.ok) << sweep.error;
  EXPECT_FALSE(sweep.interrupted);
  ASSERT_EQ(sweep.records.size(), s.trials);
  for (std::uint64_t t = 0; t < s.trials; ++t) {
    EXPECT_EQ(sweep.records[t].trial, t);
    EXPECT_EQ(sweep.records[t].status, "ok");
    EXPECT_EQ(sweep.records[t].outcome.digest,
              run_scenario_trial(s, t).digest);
  }
}

/// (seed, trial) pairs a TrialRunner ran to completion, from any thread.
class RanLog {
 public:
  void add(const Scenario& sc, std::uint64_t t) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++runs_[{sc.seed, t}];
  }
  int count(const Scenario& sc, std::uint64_t t) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = runs_.find({sc.seed, t});
    return it == runs_.end() ? 0 : it->second;
  }
  std::set<std::uint64_t> trials(const Scenario& sc) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::set<std::uint64_t> out;
    for (const auto& [key, n] : runs_) {
      if (key.first == sc.seed) out.insert(key.second);
    }
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> runs_;
};

/// The trial indices of the journal in `dir`.
std::set<std::uint64_t> journaled_trials(const std::string& dir) {
  const CheckpointLoadResult loaded = load_checkpoint(dir);
  EXPECT_TRUE(loaded.ok) << loaded.error;
  std::set<std::uint64_t> out;
  for (const CheckpointRecord& rec : loaded.records) out.insert(rec.trial);
  return out;
}

TEST_F(SupervisorTest, InterruptedSweepResumesToIdenticalAggregate) {
  const Scenario s = fast_scenario(16);
  const SweepResult reference = run_supervised_sweep(s, {}, pool_);
  ASSERT_TRUE(reference.ok) << reference.error;

  // First run: request shutdown once a few trials have completed.  The
  // sweep drains, journals the completed prefix, and reports interrupted.
  SupervisorOptions opt;
  opt.checkpoint_dir = dir_;
  std::atomic<int> completed{0};
  RanLog ran;
  const TrialRunner interrupting = [&](const Scenario& sc, std::uint64_t t,
                                       std::uint32_t) {
    const TrialOutcome o = run_scenario_trial(sc, t);
    ran.add(sc, t);
    if (completed.fetch_add(1) + 1 >= 4) request_sweep_shutdown();
    return o;
  };
  const SweepResult partial = run_supervised_sweep(s, opt, pool_, interrupting);
  ASSERT_TRUE(partial.ok) << partial.error;
  EXPECT_TRUE(partial.interrupted);
  ASSERT_GE(partial.records.size(), 4u);
  ASSERT_LT(partial.records.size(), s.trials);
  // The journal holds exactly the trials that ran: in-flight trials
  // drained into it, unstarted ones were skipped, none ran twice.
  EXPECT_EQ(journaled_trials(dir_), ran.trials(s));
  EXPECT_EQ(partial.records.size(), ran.trials(s).size());
  for (const CheckpointRecord& rec : partial.records) {
    EXPECT_EQ(ran.count(s, rec.trial), 1) << "trial " << rec.trial;
  }

  // Second run: resume.  Completed trials load from the journal (executed
  // counts only the remainder) and the aggregate digest is bit-identical
  // to the uninterrupted reference.
  reset_sweep_shutdown();
  opt.resume = true;
  const SweepResult resumed = run_supervised_sweep(s, opt, pool_);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.resumed, partial.records.size());
  EXPECT_EQ(resumed.executed, s.trials - partial.records.size());
  ASSERT_EQ(resumed.records.size(), s.trials);
  EXPECT_EQ(resumed.aggregate_digest, reference.aggregate_digest);
}

TEST_F(SupervisorTest, ResumeIgnoresConflictingScenarioFlags) {
  const Scenario s = fast_scenario(6);
  SupervisorOptions opt;
  opt.checkpoint_dir = dir_;
  const SweepResult first = run_supervised_sweep(s, opt, pool_);
  ASSERT_TRUE(first.ok) << first.error;

  Scenario conflicting = s;
  conflicting.seed = 12345;
  conflicting.trials = 100;
  opt.resume = true;
  const SweepResult resumed = run_supervised_sweep(conflicting, opt, pool_);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  // The manifest scenario is authoritative: nothing re-ran, nothing grew.
  EXPECT_EQ(resumed.scenario.seed, s.seed);
  EXPECT_EQ(resumed.scenario.trials, s.trials);
  EXPECT_EQ(resumed.resumed, s.trials);
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(resumed.aggregate_digest, first.aggregate_digest);
}

TEST_F(SupervisorTest, ResumeWithoutManifestStartsFresh) {
  SupervisorOptions opt;
  opt.checkpoint_dir = dir_;
  opt.resume = true;  // nothing there yet — must not fail
  const SweepResult sweep = run_supervised_sweep(fast_scenario(4), opt, pool_);
  ASSERT_TRUE(sweep.ok) << sweep.error;
  EXPECT_EQ(sweep.resumed, 0u);
  EXPECT_EQ(sweep.executed, 4u);
}

TEST_F(SupervisorTest, WatchdogQuarantinesStuckTrialWithoutStallingSweep) {
  const Scenario s = fast_scenario(6);
  SupervisorOptions opt;
  opt.trial_timeout_sec = 0.1;
  // Trial 2 spins forever, polling cancellation as the engines do; the
  // watchdog must cancel it while the other trials complete normally.
  const TrialRunner stuck_at_2 = [](const Scenario& sc, std::uint64_t t,
                                    std::uint32_t) {
    if (t == 2) {
      for (;;) poll_cancellation(64);
    }
    return run_scenario_trial(sc, t);
  };
  const SweepResult sweep = run_supervised_sweep(s, opt, pool_, stuck_at_2);
  ASSERT_TRUE(sweep.ok) << sweep.error;
  ASSERT_EQ(sweep.records.size(), s.trials);
  EXPECT_EQ(sweep.timed_out, 1u);
  EXPECT_EQ(sweep.records[2].status, "timed_out");
  EXPECT_TRUE(sweep.records[2].outcome.aborted);
  for (std::uint64_t t = 0; t < s.trials; ++t) {
    if (t != 2) {
      EXPECT_EQ(sweep.records[t].status, "ok") << t;
    }
  }
}

TEST_F(SupervisorTest, SlotBudgetQuarantineIsDeterministic) {
  const Scenario s = fast_scenario(6);
  SupervisorOptions opt;
  opt.checkpoint_dir = dir_;
  // Generous enough that real trials (a few thousand slots at this budget)
  // finish; only the spinning trial exhausts it.
  opt.trial_slot_budget = 100000;
  const TrialRunner stuck_at_1 = [](const Scenario& sc, std::uint64_t t,
                                    std::uint32_t) {
    if (t == 1) {
      for (;;) poll_cancellation(64);
    }
    return run_scenario_trial(sc, t);
  };
  const SweepResult a = run_supervised_sweep(s, opt, pool_, stuck_at_1);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.records[1].status, "timed_out");

  fs::remove_all(dir_);
  const SweepResult b = run_supervised_sweep(s, opt, pool_, stuck_at_1);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.aggregate_digest, b.aggregate_digest);
}

TEST_F(SupervisorTest, RetryWithReseedRecoversFlakyTrial) {
  const Scenario s = fast_scenario(5);
  SupervisorOptions opt;
  opt.max_retries = 2;
  std::atomic<int> attempts_seen{0};
  const TrialRunner flaky = [&](const Scenario& sc, std::uint64_t t,
                                std::uint32_t attempt) {
    if (t == 3) {
      attempts_seen.fetch_add(1);
      if (attempt < 2) throw std::runtime_error("injected fault");
      // The runner always receives the original scenario; reseeding is the
      // runner's job (the default runner uses reseed_for_attempt).
      EXPECT_EQ(sc.seed, fast_scenario().seed);
    }
    return run_scenario_trial(sc, t);
  };
  const SweepResult sweep = run_supervised_sweep(s, opt, pool_, flaky);
  ASSERT_TRUE(sweep.ok) << sweep.error;
  EXPECT_EQ(attempts_seen.load(), 3);
  EXPECT_EQ(sweep.records[3].status, "ok");
  EXPECT_EQ(sweep.records[3].attempts, 3u);
  EXPECT_EQ(sweep.failed_trials, 0u);
}

TEST_F(SupervisorTest, ExhaustedRetriesQuarantineAsFailed) {
  const Scenario s = fast_scenario(4);
  SupervisorOptions opt;
  opt.max_retries = 1;
  const TrialRunner dies = [](const Scenario& sc, std::uint64_t t,
                              std::uint32_t) -> TrialOutcome {
    if (t == 0) throw std::runtime_error("always dies");
    return run_scenario_trial(sc, t);
  };
  const SweepResult sweep = run_supervised_sweep(s, opt, pool_, dies);
  ASSERT_TRUE(sweep.ok) << sweep.error;
  EXPECT_EQ(sweep.failed_trials, 1u);
  EXPECT_EQ(sweep.records[0].status, "failed");
  EXPECT_EQ(sweep.records[0].attempts, 2u);
  EXPECT_EQ(sweep.records[1].status, "ok");
}

struct ContractCaught : std::runtime_error {
  explicit ContractCaught(std::string record)
      : std::runtime_error("contract"), record_json(std::move(record)) {}
  std::string record_json;
};

[[noreturn]] void throwing_handler(std::string_view record_json) {
  throw ContractCaught(std::string(record_json));
}

TEST_F(SupervisorTest, ContractFailureInsideTrialIsCapturedNotFatal) {
  // A forced contract failure inside a supervised trial must not abort the
  // process (nor reach the ambient handler); the trial is journaled as
  // failed and the sweep completes.  Afterwards the supervisor's capture
  // handler is uninstalled, restoring the previous chain.
  const ContractFailureHandler previous =
      set_contract_failure_handler(&throwing_handler);
  const Scenario s = fast_scenario(4);
  const TrialRunner trips = [](const Scenario& sc, std::uint64_t t,
                               std::uint32_t) {
    if (t == 1) RCB_REQUIRE(1 + 1 == 3);
    return run_scenario_trial(sc, t);
  };
  const SweepResult sweep = run_supervised_sweep(s, {}, pool_, trips);
  ASSERT_TRUE(sweep.ok) << sweep.error;
  EXPECT_EQ(sweep.records[1].status, "failed");
  EXPECT_EQ(sweep.failed_trials, 1u);
  // Outside any supervised trial the restored handler chain fires again.
  EXPECT_THROW(RCB_REQUIRE(2 + 2 == 5), ContractCaught);
  set_contract_failure_handler(previous);
}

TEST_F(SupervisorTest, ReseedForAttemptIsStableAndDistinct) {
  EXPECT_EQ(reseed_for_attempt(42, 0), 42u);
  EXPECT_NE(reseed_for_attempt(42, 1), 42u);
  EXPECT_NE(reseed_for_attempt(42, 1), reseed_for_attempt(42, 2));
  EXPECT_EQ(reseed_for_attempt(42, 1), reseed_for_attempt(42, 1));
}

TEST_F(SupervisorTest, AggregateDigestSensitiveToOutcomeAndOrder) {
  std::vector<CheckpointRecord> recs(2);
  recs[0].trial = 0;
  recs[0].outcome.digest = 111;
  recs[1].trial = 1;
  recs[1].outcome.digest = 222;
  const std::uint64_t base = aggregate_digest(recs);
  recs[1].outcome.digest = 223;
  EXPECT_NE(aggregate_digest(recs), base);
  recs[1].outcome.digest = 222;
  std::swap(recs[0], recs[1]);
  EXPECT_NE(aggregate_digest(recs), base);
}

TEST_F(SupervisorTest, InvalidScenarioReportsError) {
  Scenario s = fast_scenario();
  s.protocol = "no_such_protocol";
  const SweepResult sweep = run_supervised_sweep(s, {}, pool_);
  EXPECT_FALSE(sweep.ok);
  EXPECT_FALSE(sweep.error.empty());
}

std::vector<SweepPoint> three_points(const std::string& parent = "") {
  std::vector<SweepPoint> points(3);
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].scenario = fast_scenario(6 + 2 * i);
    points[i].scenario.budget = 256u << i;
    points[i].scenario.seed = 99 + i * 1000003;
    if (!parent.empty()) {
      points[i].checkpoint_dir = parent + "/point_" + std::to_string(i);
    }
  }
  return points;
}

TEST_F(SupervisorTest, MultiPointMatchesPerPointSequential) {
  // The pipelined scheduler must be point-for-point bit-identical to
  // running each point through the single-point path.
  const std::vector<SweepPoint> points = three_points();
  const std::vector<SweepResult> pipelined =
      run_supervised_sweep_points(points, {}, pool_);
  ASSERT_EQ(pipelined.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(pipelined[i].ok) << pipelined[i].error;
    const SweepResult sequential =
        run_supervised_sweep(points[i].scenario, {}, pool_);
    ASSERT_TRUE(sequential.ok) << sequential.error;
    EXPECT_EQ(pipelined[i].aggregate_digest, sequential.aggregate_digest)
        << "point " << i;
    EXPECT_EQ(pipelined[i].records.size(), points[i].scenario.trials);
  }
}

TEST_F(SupervisorTest, MultiPointDigestsIdenticalAcrossPoolSizes) {
  const std::vector<SweepPoint> points = three_points();
  ThreadPool pool1(1);
  const std::vector<SweepResult> a =
      run_supervised_sweep_points(points, {}, pool1);
  const std::vector<SweepResult> b =
      run_supervised_sweep_points(points, {}, pool_);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(a[i].ok && b[i].ok);
    EXPECT_EQ(a[i].aggregate_digest, b[i].aggregate_digest) << "point " << i;
  }
}

TEST_F(SupervisorTest, MultiPointInterruptResumesToSequentialReference) {
  // Kill/resume across point boundaries: interrupt a pipelined sweep after
  // a few trials, resume it, and require every point's digest to equal the
  // sequential single-point reference.
  const std::vector<SweepPoint> points = three_points(dir_);
  std::vector<std::uint64_t> reference;
  for (const SweepPoint& p : points) {
    const SweepResult r = run_supervised_sweep(p.scenario, {}, pool_);
    ASSERT_TRUE(r.ok) << r.error;
    reference.push_back(r.aggregate_digest);
  }

  SupervisorOptions opt;
  std::atomic<int> completed{0};
  RanLog ran;
  const TrialRunner interrupting = [&](const Scenario& sc, std::uint64_t t,
                                       std::uint32_t) {
    const TrialOutcome o = run_scenario_trial(sc, t);
    ran.add(sc, t);
    if (completed.fetch_add(1) + 1 >= 5) request_sweep_shutdown();
    return o;
  };
  const std::vector<SweepResult> partial =
      run_supervised_sweep_points(points, opt, pool_, interrupting);
  std::size_t done = 0, total = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(partial[i].ok) << partial[i].error;
    done += partial[i].records.size();
    total += points[i].scenario.trials;
    // Each point journaled exactly the trials that ran for it.
    EXPECT_EQ(journaled_trials(points[i].checkpoint_dir),
              ran.trials(points[i].scenario))
        << "point " << i;
  }
  ASSERT_GE(done, 5u);
  ASSERT_LT(done, total);  // genuinely interrupted mid-sweep

  reset_sweep_shutdown();
  opt.resume = true;
  const std::vector<SweepResult> resumed =
      run_supervised_sweep_points(points, opt, pool_);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(resumed[i].ok) << resumed[i].error;
    EXPECT_FALSE(resumed[i].interrupted);
    EXPECT_EQ(resumed[i].resumed, partial[i].records.size()) << "point " << i;
    EXPECT_EQ(resumed[i].aggregate_digest, reference[i]) << "point " << i;
  }
}

TEST_F(SupervisorTest, ClaimingTasksRunEveryMissingTrialExactlyOnce) {
  // Three points: a full range, a ranged shard, and a point resumed from a
  // journal that already holds every third trial.  Whatever the pool
  // size, every missing trial runs exactly once and no journaled or
  // out-of-range trial runs at all.
  std::vector<SweepPoint> points = three_points();
  points[0].scenario.trials = 23;
  points[1].scenario.trials = 30;
  points[1].trial_begin = 7;
  points[1].trial_end = 26;
  points[2].scenario.trials = 25;
  points[2].checkpoint_dir = dir_ + "/resumed";
  const Scenario& resumed = points[2].scenario;

  for (const std::size_t threads : {1u, 4u}) {
    fs::remove_all(dir_);
    std::set<std::uint64_t> journaled;
    {
      CheckpointWriter writer;
      ASSERT_EQ(writer.create(points[2].checkpoint_dir, resumed), "");
      for (std::uint64_t t = 0; t < resumed.trials; t += 3) {
        CheckpointRecord rec;
        rec.trial = t;
        rec.outcome = run_scenario_trial(resumed, t);
        ASSERT_EQ(writer.append(rec), "");
        journaled.insert(t);
      }
      ASSERT_EQ(writer.sync(), "");
    }

    RanLog ran;
    const TrialRunner counting = [&](const Scenario& sc, std::uint64_t t,
                                     std::uint32_t) {
      ran.add(sc, t);
      return run_scenario_trial(sc, t);
    };
    SupervisorOptions opt;
    opt.resume = true;
    ThreadPool pool(threads);
    const std::vector<SweepResult> results =
        run_supervised_sweep_points(points, opt, pool, counting);

    for (std::size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      ASSERT_TRUE(results[i].ok) << results[i].error;
      EXPECT_FALSE(results[i].interrupted);
      const std::uint64_t begin = p.trial_begin;
      const std::uint64_t end = p.trial_end == 0 ? p.scenario.trials
                                                 : p.trial_end;
      const bool has_journal = i == 2;
      std::size_t missing = 0;
      for (std::uint64_t t = 0; t < p.scenario.trials; ++t) {
        const bool in_range = t >= begin && t < end;
        const bool want_run =
            in_range && !(has_journal && journaled.count(t) > 0);
        missing += want_run ? 1 : 0;
        EXPECT_EQ(ran.count(p.scenario, t), want_run ? 1 : 0)
            << threads << " threads, point " << i << ", trial " << t;
      }
      EXPECT_EQ(results[i].executed, missing) << "point " << i;
      EXPECT_EQ(results[i].resumed, has_journal ? journaled.size() : 0u);
      ASSERT_EQ(results[i].records.size(), end - begin) << "point " << i;
      for (std::uint64_t t = begin; t < end; ++t) {
        EXPECT_EQ(results[i].records[t - begin].trial, t);
        EXPECT_EQ(results[i].records[t - begin].outcome.digest,
                  run_scenario_trial(p.scenario, t).digest);
      }
    }
  }
}

TEST_F(SupervisorTest, ContractFailureRecordsNameTheirTrialsScenario) {
  // Trials of three interleaved points trip a contract inside the same
  // ReproScope run_scenario_trial installs.  Every RCB_REPRO record the
  // supervisor prints must carry the failing trial's own scenario, although
  // each worker thread renders the three scenarios in turn.
  const std::vector<SweepPoint> points = three_points();
  const TrialRunner trips = [](const Scenario& sc, std::uint64_t t,
                               std::uint32_t) {
    if (t % 2 == 1) {
      ReproScope repro(sc.seed, t, scenario_to_json(sc));
      RCB_REQUIRE(t % 2 == 0);
    }
    return run_scenario_trial(sc, t);
  };
  ::testing::internal::CaptureStderr();
  const std::vector<SweepResult> results =
      run_supervised_sweep_points(points, {}, pool_, trips);
  const std::string err = ::testing::internal::GetCapturedStderr();

  std::map<std::uint64_t, const Scenario*> by_seed;
  std::size_t failing = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].error;
    EXPECT_EQ(results[i].failed_trials, points[i].scenario.trials / 2);
    failing += results[i].failed_trials;
    by_seed[points[i].scenario.seed] = &points[i].scenario;
  }
  std::istringstream lines(err);
  std::string line;
  std::size_t records = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("RCB_REPRO ", 0) != 0) continue;
    ++records;
    const ReproParseResult parsed = repro_record_from_json(line);
    ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << line;
    ASSERT_TRUE(parsed.record.has_scenario && parsed.record.has_scenario_digest);
    ASSERT_EQ(by_seed.count(parsed.record.master_seed), 1u) << line;
    const Scenario& want = *by_seed[parsed.record.master_seed];
    EXPECT_EQ(scenario_to_json(parsed.record.scenario), scenario_to_json(want));
    EXPECT_EQ(parsed.record.scenario_digest, scenario_digest(want));
    EXPECT_EQ(parsed.record.trial % 2, 1u);
  }
  EXPECT_EQ(records, failing);
}

TEST_F(SupervisorTest, MultiPointSetupFailureAbortsBeforeAnyTrialRuns) {
  std::vector<SweepPoint> points = three_points();
  points[1].scenario.protocol = "no_such_protocol";
  std::atomic<int> ran{0};
  const TrialRunner counting = [&](const Scenario& sc, std::uint64_t t,
                                   std::uint32_t) {
    ran.fetch_add(1);
    return run_scenario_trial(sc, t);
  };
  const std::vector<SweepResult> results =
      run_supervised_sweep_points(points, {}, pool_, counting);
  EXPECT_EQ(ran.load(), 0);  // fail-fast: validation precedes submission
  EXPECT_FALSE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_FALSE(results[1].error.empty());
}

TEST_F(SupervisorTest, MultiPointCheckpointedDigestsStableAcrossPoolSizes) {
  // The full pipeline — group-commit journals included — must reduce to
  // the same digests no matter the thread count.
  const std::vector<SweepPoint> points = three_points(dir_);
  ThreadPool pool1(1);
  const std::vector<SweepResult> a =
      run_supervised_sweep_points(points, {}, pool1);
  fs::remove_all(dir_);
  const std::vector<SweepResult> b =
      run_supervised_sweep_points(points, {}, pool_);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(a[i].ok) << a[i].error;
    ASSERT_TRUE(b[i].ok) << b[i].error;
    EXPECT_EQ(a[i].aggregate_digest, b[i].aggregate_digest) << "point " << i;
  }
}

}  // namespace
}  // namespace rcb
