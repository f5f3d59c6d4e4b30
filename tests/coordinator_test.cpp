// Tests for the multi-process sharded sweep (runtime/shard.hpp +
// runtime/coordinator.hpp): shard-plan determinism, spec round-trip,
// merge determinism against the single-process reference, orphan
// reassignment after worker SIGKILL, revocation of wedged workers on frame
// silence, coordinator-crash resume (including roots in the pre-try_<k>
// layout), corrupt-shard refusal, and the merge edge cases (empty shard,
// single shard, duplicated trials across journals).
//
// This binary has a custom main: the coordinator re-enters the test
// executable itself as a spawned worker via the --rcb_shard_worker argv
// prefix, so the workers under test run the real worker loop.
#include "rcb/runtime/coordinator.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rcb/runtime/shard.hpp"
#include "rcb/runtime/supervisor.hpp"
#include "test_dir.hpp"

namespace {
std::string g_self_exe;  // argv[0]; workers re-exec this test binary
}

namespace rcb {
namespace {

namespace fs = std::filesystem;

Scenario fast_scenario(std::uint64_t seed, std::uint64_t trials) {
  Scenario s;
  s.protocol = "one_to_one";
  s.adversary = "full_duel";
  s.budget = 512;
  s.eps = 0.02;
  s.trials = trials;
  s.seed = seed;
  return s;
}

/// Single-process reference: same scenarios, one thread, no checkpointing.
std::vector<std::uint64_t> reference_digests(
    const std::vector<Scenario>& scenarios) {
  ThreadPool pool(1);
  std::vector<SweepPoint> points(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    points[i].scenario = scenarios[i];
  }
  SupervisorOptions opt;
  const std::vector<SweepResult> results =
      run_supervised_sweep_points(points, opt, pool);
  std::vector<std::uint64_t> digests;
  for (const SweepResult& res : results) {
    EXPECT_TRUE(res.ok) << res.error;
    digests.push_back(res.aggregate_digest);
  }
  return digests;
}

ShardSpec make_spec(const std::vector<Scenario>& scenarios,
                    std::size_t target_shards) {
  ShardSpec spec;
  spec.worker_threads = 2;
  spec.points = scenarios;
  std::vector<std::uint64_t> trials;
  for (const Scenario& s : scenarios) trials.push_back(s.trials);
  spec.shards = make_shard_plan(trials, target_shards);
  return spec;
}

class CoordinatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_sweep_shutdown();
    root_ = make_test_dir("rcb_coord_test");
  }
  void TearDown() override {
    reset_sweep_shutdown();
    fs::remove_all(root_);
  }

  /// Spawned-worker options: the fleet is this test binary re-entered as
  /// --rcb_shard_worker.  slow_ms makes every trial take that long in the
  /// worker; `first_action` ("kill@<n>" / "stop@<n>", see test_runner)
  /// makes the first worker spawned SIGKILL or SIGSTOP itself as its n-th
  /// trial starts, so kill/wedge tests land mid-shard deterministically.
  CoordinatorOptions options(std::size_t workers, int slow_ms = 0,
                             const std::string& first_action = "") const {
    CoordinatorOptions opt;
    opt.root = root_;
    opt.workers = workers;
    opt.backoff_base_sec = 0.01;
    opt.worker_argv = [root = root_, slow_ms, first_action,
                       spawns = std::make_shared<std::atomic<int>>(0)](
                          std::size_t index) {
      std::vector<std::string> argv{g_self_exe, "--rcb_shard_worker", root,
                                    std::to_string(index),
                                    std::to_string(slow_ms)};
      if (spawns->fetch_add(1) == 0 && !first_action.empty()) {
        argv.push_back(first_action);
      }
      return argv;
    };
    return opt;
  }

  /// Spec tuned for the multi-process tests: fast status beats keep the
  /// protocol (and the lease clock) snappy.
  static ShardSpec fast_spec(const std::vector<Scenario>& scenarios,
                             std::size_t target_shards) {
    ShardSpec spec = make_spec(scenarios, target_shards);
    spec.heartbeat_interval_sec = 0.02;
    return spec;
  }

  std::string root_;
};

// ---------------------------------------------------------------------------
// Shard plan + spec codec.

TEST(ShardPlanTest, TilesEveryPointContiguously) {
  const std::vector<std::uint64_t> trials{10, 3, 7};
  const std::vector<ShardAssignment> plan = make_shard_plan(trials, 5);
  std::vector<std::uint64_t> next{0, 0, 0};
  for (const ShardAssignment& a : plan) {
    ASSERT_LT(a.point, trials.size());
    EXPECT_EQ(a.begin, next[a.point]);  // contiguous, in order
    EXPECT_LE(a.end, trials[a.point]);
    next[a.point] = a.end;
  }
  for (std::size_t p = 0; p < trials.size(); ++p) {
    EXPECT_EQ(next[p], trials[p]);  // full coverage
  }
  EXPECT_EQ(plan, make_shard_plan(trials, 5));  // deterministic
}

TEST(ShardPlanTest, OneShardPerPointWhenTargetIsSmall) {
  const std::vector<ShardAssignment> plan = make_shard_plan({5, 5}, 1);
  ASSERT_EQ(plan.size(), 2u);  // shards never span points
  EXPECT_EQ(plan[0].point, 0u);
  EXPECT_EQ(plan[1].point, 1u);
}

TEST(ShardSpecTest, RoundTripsThroughDisk) {
  const std::string root = make_test_dir("rcb_shard_spec");
  ShardSpec spec = make_spec({fast_scenario(7, 9), fast_scenario(9, 4)}, 4);
  spec.trial_timeout_sec = 1.5;
  spec.trial_slot_budget = 100000;
  spec.max_retries = 2;
  spec.heartbeat_interval_sec = 0.25;
  ASSERT_EQ(write_shard_spec(root, spec), "");
  const ShardSpecLoadResult loaded = load_shard_spec(root);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.spec.worker_threads, spec.worker_threads);
  EXPECT_EQ(loaded.spec.heartbeat_interval_sec, spec.heartbeat_interval_sec);
  EXPECT_EQ(loaded.spec.trial_timeout_sec, spec.trial_timeout_sec);
  EXPECT_EQ(loaded.spec.trial_slot_budget, spec.trial_slot_budget);
  EXPECT_EQ(loaded.spec.max_retries, spec.max_retries);
  ASSERT_EQ(loaded.spec.points.size(), spec.points.size());
  for (std::size_t i = 0; i < spec.points.size(); ++i) {
    EXPECT_EQ(scenario_digest(loaded.spec.points[i]),
              scenario_digest(spec.points[i]));
  }
  ASSERT_EQ(loaded.spec.shards.size(), spec.shards.size());
  for (std::size_t i = 0; i < spec.shards.size(); ++i) {
    EXPECT_EQ(loaded.spec.shards[i].point, spec.shards[i].point);
    EXPECT_EQ(loaded.spec.shards[i].begin, spec.shards[i].begin);
    EXPECT_EQ(loaded.spec.shards[i].end, spec.shards[i].end);
  }
  fs::remove_all(root);
}

TEST(ShardSpecTest, RefusesIntegersNoDoubleHoldsExactly) {
  // 1e30 overflows u64 (converting it was undefined behaviour) and
  // 2^53 + 2 is past the largest integer a JSON number holds exactly.
  const std::string root = make_test_dir("rcb_shard_spec");
  for (const char* bad : {"1e30", "9007199254740994", "-1", "2.5"}) {
    SCOPED_TRACE(bad);
    fs::remove_all(root);
    ASSERT_EQ(write_shard_spec(root, make_spec({fast_scenario(7, 9)}, 1)), "");
    const std::string path = shard_spec_path(root);
    std::string text;
    {
      std::ifstream in(path);
      text.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    }
    const std::size_t at = text.find("\"end\":9");
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at + 6, 1, bad);
    std::ofstream(path, std::ios::trunc) << text;
    const ShardSpecLoadResult loaded = load_shard_spec(root);
    EXPECT_FALSE(loaded.ok);
    EXPECT_EQ(loaded.error,
              "shard spec: \"end\" must be a non-negative integer no larger "
              "than 2^53");
  }
  fs::remove_all(root);
}

TEST(ShardSpecTest, RefusesASpecWithoutHeartbeat) {
  // write_shard_spec always writes the beat, so a spec without one is
  // refused rather than given a default.
  const std::string root = make_test_dir("rcb_shard_spec");
  ASSERT_EQ(write_shard_spec(root, make_spec({fast_scenario(7, 9)}, 1)), "");
  const std::string path = shard_spec_path(root);
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::size_t at = text.find("\"heartbeat_sec\":");
  ASSERT_NE(at, std::string::npos) << text;
  text.erase(at, text.find(',', at) + 1 - at);
  std::ofstream(path, std::ios::trunc) << text;
  const ShardSpecLoadResult loaded = load_shard_spec(root);
  EXPECT_FALSE(loaded.ok);
  EXPECT_EQ(loaded.error,
            "shard spec: \"heartbeat_sec\" must be a positive number");
  fs::remove_all(root);
}

TEST(ShardSpecTest, RejectsOverlapAndGap) {
  ShardSpec spec;
  spec.points = {fast_scenario(1, 10)};
  spec.shards = {{0, 0, 6}, {0, 5, 10}};  // overlap at trial 5
  EXPECT_NE(validate_shard_spec(spec), "");
  spec.shards = {{0, 0, 4}, {0, 6, 10}};  // gap at trial 4
  EXPECT_NE(validate_shard_spec(spec), "");
  spec.shards = {{0, 0, 6}, {0, 6, 10}};
  EXPECT_EQ(validate_shard_spec(spec), "");
}

// ---------------------------------------------------------------------------
// Ranged sweep points (the supervisor seam the workers run on).

TEST(RangedSweepTest, RangedPointsComposeToTheFullDigest) {
  const Scenario s = fast_scenario(21, 10);
  const std::uint64_t reference = reference_digests({s})[0];

  ThreadPool pool(2);
  std::vector<SweepPoint> halves(2);
  halves[0].scenario = s;
  halves[0].trial_begin = 0;
  halves[0].trial_end = 6;
  halves[1].scenario = s;
  halves[1].trial_begin = 6;
  halves[1].trial_end = 10;
  SupervisorOptions opt;
  std::vector<SweepResult> results =
      run_supervised_sweep_points(halves, opt, pool);
  ASSERT_TRUE(results[0].ok && results[1].ok);
  EXPECT_FALSE(results[0].interrupted);
  EXPECT_FALSE(results[1].interrupted);

  std::vector<CheckpointRecord> merged = results[0].records;
  merged.insert(merged.end(), results[1].records.begin(),
                results[1].records.end());
  EXPECT_EQ(aggregate_digest(merged), reference);
}

// ---------------------------------------------------------------------------
// Coordinator end-to-end.

TEST_F(CoordinatorTest, MatchesSingleProcessDigestAcrossWorkerCounts) {
  const std::vector<Scenario> scenarios{fast_scenario(31, 11),
                                        fast_scenario(32, 5)};
  const std::vector<std::uint64_t> reference = reference_digests(scenarios);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    fs::remove_all(root_);
    const CoordinatorResult res =
        run_shard_coordinator(make_spec(scenarios, workers * 2),
                              options(workers));
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.points.size(), scenarios.size());
    for (std::size_t p = 0; p < scenarios.size(); ++p) {
      EXPECT_EQ(res.points[p].aggregate_digest, reference[p])
          << "workers=" << workers << " point=" << p;
      EXPECT_EQ(res.points[p].records.size(), scenarios[p].trials);
    }
  }
}

TEST_F(CoordinatorTest, ReassignsShardsAfterWorkerSigkill) {
  const std::vector<Scenario> scenarios{fast_scenario(41, 16)};
  const std::uint64_t reference = reference_digests(scenarios)[0];

  std::atomic<int> kills{3};
  CoordinatorOptions opt = options(2);
  opt.on_worker_spawn = [&kills](std::size_t, pid_t pid) {
    const int remaining = kills.fetch_sub(1);
    if (remaining == 3) {
      // Kill the very first worker before it can finish its shard, so at
      // least one restart is guaranteed even on a fast machine.
      kill(pid, SIGKILL);
    } else if (remaining > 0) {
      // Let later victims journal a few trials first so a replacement
      // exercises the resume-partial-journal path, not just restart.  If
      // the worker already finished, the kill lands on a complete journal
      // and the coordinator adopts it — that path is legal too.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      kill(pid, SIGKILL);
    }
  };
  const CoordinatorResult res =
      run_shard_coordinator(make_spec(scenarios, 4), opt);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LE(kills.load(), 0);  // the chaos actually fired
  EXPECT_GE(res.worker_restarts, 1u);
  EXPECT_EQ(res.points[0].aggregate_digest, reference);
  EXPECT_EQ(res.points[0].records.size(), scenarios[0].trials);
}

TEST_F(CoordinatorTest, SigkilledSpawnedWorkerIsReassignedBeforeItsLease) {
  const std::vector<Scenario> scenarios{fast_scenario(42, 16)};
  const std::uint64_t reference = reference_digests(scenarios)[0];

  // The first worker SIGKILLs itself mid-shard.  With a 60s lease, only
  // EOF on its connection can free the shard in time.
  CoordinatorOptions opt = options(1, /*slow_ms=*/5, "kill@3");
  opt.lease_timeout_sec = 60.0;
  const auto start = std::chrono::steady_clock::now();
  const CoordinatorResult res =
      run_shard_coordinator(fast_spec(scenarios, 2), opt);
  const double took = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GE(res.worker_restarts, 1u);
  EXPECT_LT(took, 20.0);  // far inside the lease: revoked at EOF
  EXPECT_EQ(res.points[0].aggregate_digest, reference);
  EXPECT_EQ(res.points[0].records.size(), scenarios[0].trials);
}

TEST_F(CoordinatorTest, WedgedSpawnedWorkerIsRevokedOnFrameSilence) {
  const std::vector<Scenario> scenarios{fast_scenario(43, 12)};
  const std::uint64_t reference = reference_digests(scenarios)[0];

  // The first worker SIGSTOPs itself mid-shard: alive, connection open,
  // but silent.  Its lease runs out, and the coordinator SIGKILLs, reaps
  // and replaces it; the shard restarts from the partial journal.
  CoordinatorOptions opt = options(1, /*slow_ms=*/5, "stop@3");
  opt.lease_timeout_sec = 0.4;
  const CoordinatorResult res =
      run_shard_coordinator(fast_spec(scenarios, 2), opt);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GE(res.worker_restarts, 1u);  // the wedged worker was put down
  EXPECT_EQ(res.points[0].aggregate_digest, reference);
}

TEST_F(CoordinatorTest, SpawnedConnectionCloseFaultKeepsTheDigest) {
  const std::vector<Scenario> scenarios{fast_scenario(44, 10),
                                        fast_scenario(45, 6)};
  const std::vector<std::uint64_t> reference = reference_digests(scenarios);

  // First input: close faults only.  The coordinator's first fault draw is
  // for the first assign frame; pick a seed whose first draw closes that
  // connection, so the fault surely fires.
  NetFaultConfig close_only;
  close_only.close_rate = 0.1;
  for (close_only.seed = 1;; ++close_only.seed) {
    NetFaultPlan plan(close_only);
    if (plan.next(CtrlType::kAssign) == NetFaultAction::kClose) break;
  }
  // Second input: the full chaos preset (drop, delay, duplicate, reorder
  // and close) in both directions, with a lease short enough that a lost
  // frame can also cost a revocation.
  struct Input {
    const char* name;
    NetFaultConfig faults;
    double lease_timeout_sec;
    int min_spawns;  // 3: the closed worker was replaced
  };
  for (const Input& in :
       {Input{"close only", close_only, 10.0, 3},
        Input{"chaos", NetFaultConfig::chaos(31337, 0.1), 1.0, 2}}) {
    SCOPED_TRACE(in.name);
    fs::remove_all(root_);
    std::atomic<int> spawns{0};
    CoordinatorOptions opt = options(2);
    opt.net_faults = in.faults;
    opt.lease_timeout_sec = in.lease_timeout_sec;
    opt.on_worker_spawn = [&spawns](std::size_t, pid_t) { ++spawns; };
    const CoordinatorResult res =
        run_shard_coordinator(fast_spec(scenarios, 4), opt);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_GE(spawns.load(), in.min_spawns);
    for (std::size_t p = 0; p < scenarios.size(); ++p) {
      EXPECT_EQ(res.points[p].aggregate_digest, reference[p]) << "point " << p;
      EXPECT_EQ(res.points[p].records.size(), scenarios[p].trials);
    }
  }
}

TEST_F(CoordinatorTest, ResumesAfterCoordinatorCrash) {
  const std::vector<Scenario> scenarios{fast_scenario(47, 12),
                                        fast_scenario(48, 6)};
  const std::vector<std::uint64_t> reference = reference_digests(scenarios);
  const ShardSpec spec = make_spec(scenarios, 4);

  CoordinatorOptions crash = options(2);
  crash.simulate_crash_after_shards = 1;
  const CoordinatorResult first = run_shard_coordinator(spec, crash);
  ASSERT_FALSE(first.ok);
  ASSERT_GE(first.shards_completed, 1u);

  CoordinatorOptions resume = options(2);
  resume.resume = true;
  const CoordinatorResult second = run_shard_coordinator(spec, resume);
  ASSERT_TRUE(second.ok) << second.error;
  // The completed shards were adopted, not re-run: the resumed coordinator
  // finishes strictly fewer shards than the plan has.
  EXPECT_EQ(second.shards_completed, spec.shards.size());
  for (std::size_t p = 0; p < scenarios.size(); ++p) {
    EXPECT_EQ(second.points[p].aggregate_digest, reference[p]);
  }
}

TEST_F(CoordinatorTest, RefusesCorruptShardOnResume) {
  const std::vector<Scenario> scenarios{fast_scenario(51, 8)};
  const ShardSpec spec = make_spec(scenarios, 2);
  const CoordinatorResult first = run_shard_coordinator(spec, options(2));
  ASSERT_TRUE(first.ok) << first.error;

  // Flip one payload byte inside shard 0's journal: complete frame, bad
  // digest — corruption, not truncation, under the PR 3 taxonomy.
  const std::string journal =
      shard_attempt_dir(root_, 0, 1) + "/" + kCheckpointJournalFile;
  std::fstream f(journal, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(32);
  f.put('X');
  f.close();

  CoordinatorOptions resume = options(2);
  resume.resume = true;
  const CoordinatorResult res = run_shard_coordinator(spec, resume);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("shard 0"), std::string::npos) << res.error;
}

TEST_F(CoordinatorTest, BoundedRetriesFailTheSweepLoudly) {
  const std::vector<Scenario> scenarios{fast_scenario(53, 4)};
  CoordinatorOptions opt = options(1);
  opt.max_shard_retries = 1;
  opt.worker_argv = [](std::size_t) {
    return std::vector<std::string>{"/bin/false"};
  };
  const CoordinatorResult res =
      run_shard_coordinator(make_spec(scenarios, 1), opt);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("failed after"), std::string::npos) << res.error;
}

TEST_F(CoordinatorTest, GracefulShutdownReportsInterruptedAndResumes) {
  const std::vector<Scenario> scenarios{fast_scenario(57, 16)};
  const std::uint64_t reference = reference_digests(scenarios)[0];
  const ShardSpec spec = make_spec(scenarios, 4);

  std::atomic<bool> once{false};
  CoordinatorOptions opt = options(1);
  opt.on_worker_spawn = [&once](std::size_t, pid_t) {
    if (!once.exchange(true)) request_sweep_shutdown();
  };
  const CoordinatorResult first = run_shard_coordinator(spec, opt);
  ASSERT_FALSE(first.ok);
  EXPECT_TRUE(first.interrupted);

  reset_sweep_shutdown();
  CoordinatorOptions resume = options(2);
  resume.resume = true;
  const CoordinatorResult second = run_shard_coordinator(spec, resume);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.points[0].aggregate_digest, reference);
}

TEST_F(CoordinatorTest, ResumeAdoptsCompleteTriesAndContinuesPartialOnes) {
  // A root whose first attempts stopped with one shard complete in its
  // try_1 and one half done in its try_1 resumes to the reference digest.
  const std::vector<Scenario> scenarios{fast_scenario(59, 12)};
  const std::uint64_t reference = reference_digests(scenarios)[0];
  const ShardSpec spec = make_spec(scenarios, 2);
  ASSERT_EQ(spec.shards.size(), 2u);
  ASSERT_EQ(write_shard_spec(root_, spec), "");
  ThreadPool pool(2);
  ASSERT_TRUE(
      run_shard_attempt(spec, 0, shard_attempt_dir(root_, 0, 1), {}, pool).ok);
  ShardSpec half = spec;  // shard 1 journals only its first half
  half.shards[1].end = (half.shards[1].begin + half.shards[1].end) / 2;
  ASSERT_TRUE(
      run_shard_attempt(half, 1, shard_attempt_dir(root_, 1, 1), {}, pool).ok);

  CoordinatorOptions resume = options(2);
  resume.resume = true;
  const CoordinatorResult res = run_shard_coordinator(spec, resume);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.points[0].aggregate_digest, reference);
  EXPECT_EQ(res.points[0].records.size(), scenarios[0].trials);
  // Shard 0 was adopted where it lay; shard 1 went on in a fresh try_2.
  EXPECT_FALSE(fs::exists(shard_attempt_dir(root_, 0, 2)));
  EXPECT_TRUE(fs::exists(shard_attempt_dir(root_, 1, 2) + "/" +
                         kCheckpointJournalFile));
}

TEST_F(CoordinatorTest, ShardWorkerWithoutControlSocketExits2) {
  // A --shard_worker started by hand has no control connection: it
  // refuses with exit 2 whether fd 3 is closed or is not a socket.
  std::vector<std::string> args{g_self_exe, "--rcb_shard_worker", root_, "0",
                                "0"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  for (const bool devnull : {false, true}) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      close(kWorkerControlFd);
      if (devnull) {
        const int fd = open("/dev/null", O_RDONLY);
        if (fd != kWorkerControlFd && dup2(fd, kWorkerControlFd) < 0) {
          _exit(99);
        }
      }
      execv(argv[0], argv.data());
      _exit(98);
    }
    int status = -1;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
    EXPECT_EQ(WEXITSTATUS(status), 2) << "devnull=" << devnull;
  }
}

TEST_F(CoordinatorTest, RejectsLeaseTighterThanTwoHeartbeats) {
  const std::vector<Scenario> scenarios{fast_scenario(93, 4)};
  ShardSpec spec = make_spec(scenarios, 1);
  spec.heartbeat_interval_sec = 0.1;
  CoordinatorOptions opt = options(1);
  opt.lease_timeout_sec = 0.15;  // <= 2x the heartbeat: one late beat kills
  const CoordinatorResult res = run_shard_coordinator(spec, opt);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("must exceed 2x"), std::string::npos)
      << res.error;
}

TEST_F(CoordinatorTest, RejectsNetFaultRatesPastOne) {
  // Refused before anything is written or spawned: no sweep.json appears.
  const std::vector<Scenario> scenarios{fast_scenario(95, 4)};
  CoordinatorOptions opt = options(1);
  opt.net_faults = NetFaultConfig::chaos(7, 0.3);
  const CoordinatorResult res =
      run_shard_coordinator(make_spec(scenarios, 1), opt);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("net fault rates sum to"), std::string::npos)
      << res.error;
  EXPECT_FALSE(fs::exists(shard_spec_path(root_)));

  opt.net_faults = NetFaultConfig{};
  opt.workers = 0;
  EXPECT_EQ(run_shard_coordinator(make_spec(scenarios, 1), opt).error,
            "coordinator needs at least one worker");
}

// ---------------------------------------------------------------------------
// Merge edge cases.

TEST_F(CoordinatorTest, EmptyShardMergesAsZeroTrials) {
  const std::vector<Scenario> scenarios{fast_scenario(61, 6)};
  const std::uint64_t reference = reference_digests(scenarios)[0];
  ShardSpec spec = make_spec(scenarios, 1);
  spec.shards = {{0, 0, 3}, {0, 3, 3}, {0, 3, 6}};  // middle shard is empty
  ASSERT_EQ(validate_shard_spec(spec), "");
  const CoordinatorResult res = run_shard_coordinator(spec, options(2));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.shards_completed, 3u);
  EXPECT_EQ(res.points[0].aggregate_digest, reference);
}

TEST_F(CoordinatorTest, SingleShardDegeneratesToTheExistingPath) {
  const std::vector<Scenario> scenarios{fast_scenario(63, 7)};
  const std::uint64_t reference = reference_digests(scenarios)[0];
  ShardSpec spec = make_spec(scenarios, 1);
  ASSERT_EQ(spec.shards.size(), 1u);
  const CoordinatorResult res = run_shard_coordinator(spec, options(1));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.points[0].aggregate_digest, reference);
}

TEST_F(CoordinatorTest, DuplicateTrialsAcrossShardJournalsAreRefused) {
  const std::vector<Scenario> scenarios{fast_scenario(67, 8)};
  ShardSpec spec = make_spec(scenarios, 2);
  ASSERT_EQ(spec.shards.size(), 2u);
  const CoordinatorResult first = run_shard_coordinator(spec, options(2));
  ASSERT_TRUE(first.ok) << first.error;

  // Overwrite shard 1's journal with a copy of shard 0's: every record now
  // duplicates a trial that shard 0 already owns (and lies outside shard
  // 1's assigned range).  The merge must refuse, not double-count.
  std::error_code ec;
  fs::copy_file(shard_attempt_dir(root_, 0, 1) + "/" + kCheckpointJournalFile,
                shard_attempt_dir(root_, 1, 1) + "/" + kCheckpointJournalFile,
                fs::copy_options::overwrite_existing, ec);
  ASSERT_FALSE(ec);
  const ShardMergeResult merged = merge_shard_journals(root_, spec);
  ASSERT_FALSE(merged.ok);
  EXPECT_NE(merged.error.find("outside its assigned range"),
            std::string::npos)
      << merged.error;
  EXPECT_TRUE(merged.points.empty());  // refusal yields no partial results
}

TEST_F(CoordinatorTest, MergeRefusesMissingShard) {
  const std::vector<Scenario> scenarios{fast_scenario(71, 8)};
  const ShardSpec spec = make_spec(scenarios, 2);
  const CoordinatorResult first = run_shard_coordinator(spec, options(2));
  ASSERT_TRUE(first.ok) << first.error;
  fs::remove_all(shard_dir(root_, 1));
  const ShardMergeResult merged = merge_shard_journals(root_, spec);
  ASSERT_FALSE(merged.ok);
  EXPECT_NE(merged.error.find("incomplete"), std::string::npos)
      << merged.error;
}

}  // namespace
}  // namespace rcb

namespace {

/// The trial runner of a test worker: every trial sleeps `slow_ms` first,
/// and `action` "kill@<n>" / "stop@<n>" makes the worker SIGKILL / SIGSTOP
/// its whole process as its n-th trial starts — dead or wedged while it
/// holds a shard.
rcb::TrialRunner test_runner(int slow_ms, const std::string& action) {
  int sig = 0;
  long at = 0;
  if (const std::size_t sep = action.find('@'); sep != std::string::npos) {
    sig = action.compare(0, sep, "kill") == 0 ? SIGKILL : SIGSTOP;
    at = std::atol(action.c_str() + sep + 1);
  }
  auto started = std::make_shared<std::atomic<long>>(0);
  return [slow_ms, sig, at, started](const rcb::Scenario& s,
                                     std::uint64_t trial, std::uint32_t) {
    if (sig != 0 && started->fetch_add(1) + 1 == at) raise(sig);
    std::this_thread::sleep_for(std::chrono::milliseconds(slow_ms));
    return rcb::run_scenario_trial(s, trial);
  };
}

}  // namespace

int main(int argc, char** argv) {
  g_self_exe = argv[0];
  // Spawned-worker mode: the coordinator under test re-execs this binary
  // as "<exe> --rcb_shard_worker <root> <index> <slow_ms> [action]".
  if ((argc == 5 || argc == 6) &&
      std::string(argv[1]) == "--rcb_shard_worker") {
    return rcb::run_shard_worker(
        argv[2], static_cast<std::size_t>(std::atoi(argv[3])),
        test_runner(std::atoi(argv[4]), argc == 6 ? argv[5] : ""));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
