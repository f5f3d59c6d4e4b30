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
// prefix, and the attached-worker tests start it as --rcb_attach_worker
// against the coordinator's listener, so both connection origins under
// test run the real worker loop.
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
#include "rcb/runtime/transport_socket.hpp"

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
    root_ = (fs::temp_directory_path() /
             ("rcb_coord_test_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override {
    reap_attached(/*kill_first=*/true);
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

  /// Attached-worker options: a loopback listener, and `attached` workers
  /// (this test binary as --rcb_attach_worker) started the moment it is
  /// bound, from the coordinator's own thread so PR_SET_PDEATHSIG holds;
  /// slow_ms and first_action as for options().  Reap them with
  /// reap_attached() once the coordinator returns.
  CoordinatorOptions attached_options(std::size_t attached, int slow_ms = 0,
                                      const std::string& first_action = "") {
    CoordinatorOptions opt = options(0);
    opt.listen = "127.0.0.1:0";
    opt.lease_timeout_sec = 0.4;
    opt.on_listen = [this, attached, slow_ms,
                     first_action](std::uint16_t port) {
      port_->store(port);
      for (std::size_t i = 0; i < attached; ++i) {
        std::vector<std::string> argv{g_self_exe, "--rcb_attach_worker",
                                      "127.0.0.1:" + std::to_string(port),
                                      std::to_string(slow_ms)};
        if (i == 0 && !first_action.empty()) argv.push_back(first_action);
        pid_t pid = -1;
        int conn = -1;
        EXPECT_EQ(spawn_worker_process(argv, pid, conn), "");
        if (conn >= 0) close(conn);  // attached workers ignore fd 3
        if (pid > 0) attached_pids_.push_back(pid);
      }
    };
    return opt;
  }

  /// Waits for every attached worker; a sweep that failed may have left
  /// them parked, so `kill_first` puts them down instead of waiting out
  /// their give-up deadline.  Returns how many exited 0.
  int reap_attached(bool kill_first) {
    int clean = 0;
    for (const pid_t pid : attached_pids_) {
      if (kill_first) kill(pid, SIGKILL);
      int status = -1;
      if (waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
          WEXITSTATUS(status) == 0) {
        ++clean;
      }
    }
    attached_pids_.clear();
    return clean;
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
  std::shared_ptr<std::atomic<int>> port_ =
      std::make_shared<std::atomic<int>>(0);
  std::vector<pid_t> attached_pids_;
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
  const std::string root =
      (fs::temp_directory_path() / "rcb_shard_spec_roundtrip").string();
  fs::remove_all(root);
  ShardSpec spec = make_spec({fast_scenario(7, 9), fast_scenario(9, 4)}, 4);
  spec.trial_timeout_sec = 1.5;
  spec.trial_slot_budget = 100000;
  spec.max_retries = 2;
  ASSERT_EQ(write_shard_spec(root, spec), "");
  const ShardSpecLoadResult loaded = load_shard_spec(root);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.spec.worker_threads, spec.worker_threads);
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
  const std::string root =
      (fs::temp_directory_path() / "rcb_shard_spec_inexact").string();
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

  // The coordinator's first fault draw is for the first assign frame; pick
  // a seed whose first draw closes that connection, so the fault surely
  // fires on a spawned worker.
  NetFaultConfig faults;
  faults.close_rate = 0.1;
  for (faults.seed = 1;; ++faults.seed) {
    NetFaultPlan plan(faults);
    if (plan.next(CtrlType::kAssign) == NetFaultAction::kClose) break;
  }
  std::atomic<int> spawns{0};
  CoordinatorOptions opt = options(2);
  opt.net_faults = faults;
  opt.on_worker_spawn = [&spawns](std::size_t, pid_t) { ++spawns; };
  const CoordinatorResult res =
      run_shard_coordinator(fast_spec(scenarios, 4), opt);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GT(spawns.load(), 2);  // the closed worker was replaced
  for (std::size_t p = 0; p < scenarios.size(); ++p) {
    EXPECT_EQ(res.points[p].aggregate_digest, reference[p]) << "point " << p;
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

TEST_F(CoordinatorTest, ResumesRootsInThePreTryLayout) {
  // Before every attempt got its own try_<k>, spawned workers journaled in
  // shard_<i>/ itself, next to a lease file.  A root left that way — one
  // shard complete, one partial — resumes to the reference digest.
  const std::vector<Scenario> scenarios{fast_scenario(59, 12)};
  const std::uint64_t reference = reference_digests(scenarios)[0];
  const ShardSpec spec = make_spec(scenarios, 2);
  ASSERT_EQ(spec.shards.size(), 2u);
  ASSERT_EQ(write_shard_spec(root_, spec), "");
  ThreadPool pool(2);
  ASSERT_TRUE(run_shard_attempt(spec, 0, shard_dir(root_, 0), {}, pool).ok);
  ShardSpec half = spec;  // shard 1 journals only its first half
  half.shards[1].end = (half.shards[1].begin + half.shards[1].end) / 2;
  ASSERT_TRUE(run_shard_attempt(half, 1, shard_dir(root_, 1), {}, pool).ok);
  std::ofstream(shard_dir(root_, 1) + "/lease") << "1\n";

  CoordinatorOptions resume = options(2);
  resume.resume = true;
  const CoordinatorResult res = run_shard_coordinator(spec, resume);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.points[0].aggregate_digest, reference);
  EXPECT_EQ(res.points[0].records.size(), scenarios[0].trials);
  // Shard 0 was adopted where it lay; shard 1 went on in a fresh try_1.
  EXPECT_FALSE(fs::exists(shard_attempt_dir(root_, 0, 1)));
  EXPECT_TRUE(fs::exists(shard_attempt_dir(root_, 1, 1) + "/" +
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

// ---------------------------------------------------------------------------
// Attached workers (--attach over TCP; the same control frames and worker
// loop as the spawned fleet, the data plane stays the shared journals).

TEST_F(CoordinatorTest, SocketMatchesSingleProcessDigestAcrossWorkerCounts) {
  const std::vector<Scenario> scenarios{fast_scenario(81, 11),
                                        fast_scenario(82, 5)};
  const std::vector<std::uint64_t> reference = reference_digests(scenarios);

  for (const std::size_t attached : {1u, 2u}) {
    fs::remove_all(root_);
    const CoordinatorResult res = run_shard_coordinator(
        fast_spec(scenarios, attached * 2), attached_options(attached));
    // The shutdown directive sent at sweep end makes every worker exit 0.
    EXPECT_EQ(reap_attached(/*kill_first=*/!res.ok),
              static_cast<int>(attached));
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.points.size(), scenarios.size());
    for (std::size_t p = 0; p < scenarios.size(); ++p) {
      EXPECT_EQ(res.points[p].aggregate_digest, reference[p])
          << "attached=" << attached << " point=" << p;
      EXPECT_EQ(res.points[p].records.size(), scenarios[p].trials);
    }
  }
}

TEST_F(CoordinatorTest, SocketDigestStableUnderControlPlaneChaos) {
  const std::vector<Scenario> scenarios{fast_scenario(83, 10),
                                        fast_scenario(84, 6)};
  const std::vector<std::uint64_t> reference = reference_digests(scenarios);

  // One spawned and one attached worker: the faults hit frames of both
  // connection origins.
  CoordinatorOptions opt = attached_options(1);
  opt.workers = 1;
  opt.lease_timeout_sec = 1.0;
  opt.net_faults = NetFaultConfig::chaos(31337, 0.1);
  const CoordinatorResult res =
      run_shard_coordinator(fast_spec(scenarios, 4), opt);
  // A close fault may have cut the attached worker off as the sweep ended:
  // it then misses the shutdown directive and keeps reconnecting.
  reap_attached(/*kill_first=*/true);
  ASSERT_TRUE(res.ok) << res.error;
  for (std::size_t p = 0; p < scenarios.size(); ++p) {
    EXPECT_EQ(res.points[p].aggregate_digest, reference[p]) << "point " << p;
    EXPECT_EQ(res.points[p].records.size(), scenarios[p].trials);
  }
}

TEST_F(CoordinatorTest, SocketReassignsShardAfterWorkerSigkill) {
  const std::vector<Scenario> scenarios{fast_scenario(85, 16)};
  const std::uint64_t reference = reference_digests(scenarios)[0];

  // One attached worker SIGKILLs itself mid-shard.  Its claim survives the
  // TCP close until its lease runs out; the survivor then takes the shard
  // over.
  const CoordinatorResult res = run_shard_coordinator(
      fast_spec(scenarios, 2), attached_options(2, /*slow_ms=*/5, "kill@3"));
  reap_attached(/*kill_first=*/!res.ok);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GE(res.worker_restarts, 1u);
  EXPECT_EQ(res.points[0].aggregate_digest, reference);
  EXPECT_EQ(res.points[0].records.size(), scenarios[0].trials);
}

TEST_F(CoordinatorTest, SocketRevokesWedgedWorkerOnLeaseExpiry) {
  const std::vector<Scenario> scenarios{fast_scenario(87, 12)};
  const std::uint64_t reference = reference_digests(scenarios)[0];

  // One attached worker SIGSTOPs itself mid-shard: heartbeats stop, the
  // lease expires, and the coordinator severs it and reassigns the shard
  // to the other worker under a fresh attempt dir seeded with the partial
  // journal.  An attached worker is not the coordinator's to kill, so the
  // test puts it down afterwards.
  const CoordinatorResult res = run_shard_coordinator(
      fast_spec(scenarios, 2), attached_options(2, /*slow_ms=*/5, "stop@3"));
  reap_attached(/*kill_first=*/true);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GE(res.worker_restarts, 1u);
  EXPECT_EQ(res.points[0].aggregate_digest, reference);
}

TEST_F(CoordinatorTest, SocketResumesAfterCoordinatorCrash) {
  const std::vector<Scenario> scenarios{fast_scenario(89, 12),
                                        fast_scenario(90, 6)};
  const std::vector<std::uint64_t> reference = reference_digests(scenarios);
  const ShardSpec spec = fast_spec(scenarios, 4);

  CoordinatorOptions crash = attached_options(2);
  crash.simulate_crash_after_shards = 1;
  const CoordinatorResult first = run_shard_coordinator(spec, crash);
  // The crashed coordinator's workers would wait for it on its old port.
  reap_attached(/*kill_first=*/true);
  ASSERT_FALSE(first.ok);
  ASSERT_GE(first.shards_completed, 1u);

  CoordinatorOptions resume = attached_options(2);
  resume.resume = true;
  const CoordinatorResult second = run_shard_coordinator(spec, resume);
  reap_attached(/*kill_first=*/!second.ok);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.shards_completed, spec.shards.size());
  for (std::size_t p = 0; p < scenarios.size(); ++p) {
    EXPECT_EQ(second.points[p].aggregate_digest, reference[p]);
  }
}

TEST_F(CoordinatorTest, SocketParksUntilExternalWorkerAttaches) {
  const std::vector<Scenario> scenarios{fast_scenario(91, 8)};
  const std::uint64_t reference = reference_digests(scenarios)[0];

  // workers=0 + a listener: the coordinator owns no fleet and parks; an
  // external worker attaching late picks up the whole sweep.
  CoordinatorOptions opt = attached_options(0);
  std::atomic<pid_t> external{-1};
  std::atomic<bool> reaped{false};
  // PR_SET_PDEATHSIG fires when the spawning *thread* dies, not the
  // process, so the attacher must outlive the worker it spawned — it parks
  // until the main thread has reaped the worker.
  std::thread attacher([this, &external, &reaped] {
    while (port_->load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    pid_t pid = -1;
    int conn = -1;
    const std::string err = spawn_worker_process(
        {g_self_exe, "--rcb_attach_worker",
         "127.0.0.1:" + std::to_string(port_->load())},
        pid, conn);
    EXPECT_EQ(err, "");
    if (conn >= 0) close(conn);
    external.store(pid);
    while (!reaped.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  const CoordinatorResult res =
      run_shard_coordinator(fast_spec(scenarios, 2), opt);
  // The shutdown directive sent at sweep end makes the worker exit 0.
  const pid_t pid = external.load();
  int status = -1;
  pid_t waited = -1;
  if (pid > 0) {
    if (!res.ok) kill(pid, SIGKILL);  // don't hang the test on a dead sweep
    waited = waitpid(pid, &status, 0);
  }
  reaped.store(true);
  attacher.join();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.points[0].aggregate_digest, reference);
  ASSERT_GT(pid, 0);
  EXPECT_EQ(waited, pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "status " << status;
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
  // Attached-worker mode:
  // "<exe> --rcb_attach_worker <host:port> [slow_ms [action]]".
  if (argc >= 3 && argc <= 5 &&
      std::string(argv[1]) == "--rcb_attach_worker") {
    rcb::AttachWorkerOptions opt;
    if (!rcb::parse_host_port(argv[2], opt.host, opt.port).empty()) return 2;
    opt.give_up_sec = 30.0;  // orphaned by a dead test: exit, don't linger
    opt.runner = test_runner(argc >= 4 ? std::atoi(argv[3]) : 0,
                             argc == 5 ? argv[4] : "");
    return rcb::run_attached_worker(opt);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
