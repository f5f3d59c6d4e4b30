// Tests for the multi-process sharded sweep (runtime/shard.hpp +
// runtime/coordinator.hpp): shard-plan determinism, spec round-trip,
// merge determinism against the single-process reference, orphan
// reassignment after worker SIGKILL, lease expiry for wedged workers,
// coordinator-crash resume, corrupt-shard refusal, and the merge edge
// cases (empty shard, single shard, duplicated trials across journals).
//
// This binary has a custom main: the coordinator re-enters the test
// executable itself as the worker process via the --rcb_shard_worker
// argv prefix (fork/exec transport) or --rcb_attach_worker (socket
// transport), so both worker paths under test are the real ones.
#include "rcb/runtime/coordinator.hpp"

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
    reset_sweep_shutdown();
    fs::remove_all(root_);
  }

  CoordinatorOptions options(std::size_t workers) const {
    CoordinatorOptions opt;
    opt.root = root_;
    opt.workers = workers;
    opt.backoff_base_sec = 0.01;
    opt.worker_argv = [root = root_](std::size_t shard) {
      return std::vector<std::string>{g_self_exe, "--rcb_shard_worker", root,
                                      std::to_string(shard)};
    };
    return opt;
  }

  /// Socket-transport options: the fleet is this test binary re-entered as
  /// --rcb_attach_worker against the ephemeral port captured by on_listen
  /// (attach_argv is only consulted after the listener is bound).  slow_ms
  /// makes every trial take that long in the worker, so kill/wedge tests
  /// can land their signal mid-shard deterministically.
  CoordinatorOptions socket_options(std::size_t workers, int slow_ms = 0) {
    CoordinatorOptions opt;
    opt.root = root_;
    opt.workers = workers;
    opt.transport = TransportKind::kSocket;
    opt.backoff_base_sec = 0.01;
    opt.lease_timeout_sec = 0.4;
    opt.on_listen = [p = port_](std::uint16_t port) {
      p->store(port);
    };
    opt.attach_argv = [p = port_, slow_ms](std::size_t) {
      std::vector<std::string> argv{
          g_self_exe, "--rcb_attach_worker",
          "127.0.0.1:" + std::to_string(p->load())};
      if (slow_ms > 0) argv.push_back(std::to_string(slow_ms));
      return argv;
    };
    return opt;
  }

  /// Spec tuned for socket tests: fast status beats keep the protocol (and
  /// the lease clock) snappy.
  static ShardSpec socket_spec(const std::vector<Scenario>& scenarios,
                               std::size_t target_shards) {
    ShardSpec spec = make_spec(scenarios, target_shards);
    spec.heartbeat_interval_sec = 0.02;
    return spec;
  }

  std::string root_;
  std::shared_ptr<std::atomic<int>> port_ =
      std::make_shared<std::atomic<int>>(0);
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

TEST_F(CoordinatorTest, StaleLeaseKillsWedgedWorker) {
  const std::vector<Scenario> scenarios{fast_scenario(43, 8)};
  const std::uint64_t reference = reference_digests(scenarios)[0];

  std::atomic<bool> wedged{false};
  CoordinatorOptions opt = options(1);
  opt.lease_timeout_sec = 0.4;
  opt.on_worker_spawn = [&wedged](std::size_t, pid_t pid) {
    if (!wedged.exchange(true)) {
      kill(pid, SIGSTOP);  // alive but frozen: heartbeat stops, lease ages
    }
  };
  const CoordinatorResult res =
      run_shard_coordinator(make_spec(scenarios, 2), opt);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(wedged.load());
  EXPECT_GE(res.worker_restarts, 1u);  // the wedged worker was put down
  EXPECT_EQ(res.points[0].aggregate_digest, reference);
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
      shard_dir(root_, 0) + "/" + kCheckpointJournalFile;
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

// ---------------------------------------------------------------------------
// Socket transport end-to-end (workers attach over TCP; the control plane
// is the framed RCBC protocol, the data plane stays the shared journals).

TEST_F(CoordinatorTest, SocketMatchesSingleProcessDigestAcrossWorkerCounts) {
  const std::vector<Scenario> scenarios{fast_scenario(81, 11),
                                        fast_scenario(82, 5)};
  const std::vector<std::uint64_t> reference = reference_digests(scenarios);

  for (const std::size_t workers : {1u, 2u}) {
    fs::remove_all(root_);
    const CoordinatorResult res = run_shard_coordinator(
        socket_spec(scenarios, workers * 2), socket_options(workers));
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.points.size(), scenarios.size());
    for (std::size_t p = 0; p < scenarios.size(); ++p) {
      EXPECT_EQ(res.points[p].aggregate_digest, reference[p])
          << "workers=" << workers << " point=" << p;
      EXPECT_EQ(res.points[p].records.size(), scenarios[p].trials);
    }
  }
}

TEST_F(CoordinatorTest, SocketDigestStableUnderControlPlaneChaos) {
  const std::vector<Scenario> scenarios{fast_scenario(83, 10),
                                        fast_scenario(84, 6)};
  const std::vector<std::uint64_t> reference = reference_digests(scenarios);

  CoordinatorOptions opt = socket_options(2);
  opt.lease_timeout_sec = 1.0;
  opt.net_faults = NetFaultConfig::chaos(31337, 0.1);
  const CoordinatorResult res =
      run_shard_coordinator(socket_spec(scenarios, 4), opt);
  ASSERT_TRUE(res.ok) << res.error;
  for (std::size_t p = 0; p < scenarios.size(); ++p) {
    EXPECT_EQ(res.points[p].aggregate_digest, reference[p]) << "point " << p;
    EXPECT_EQ(res.points[p].records.size(), scenarios[p].trials);
  }
}

TEST_F(CoordinatorTest, SocketReassignsShardAfterWorkerSigkill) {
  const std::vector<Scenario> scenarios{fast_scenario(85, 16)};
  const std::uint64_t reference = reference_digests(scenarios)[0];

  // 10ms per trial x 8-trial shards: the kill 100ms after the first spawn
  // lands mid-shard, forcing lease expiry + reassignment (a killed socket
  // worker's claim survives the TCP close until the lease runs out).
  std::atomic<bool> killed{false};
  std::thread killer;
  CoordinatorOptions opt = socket_options(2, /*slow_ms=*/10);
  opt.on_worker_spawn = [&](std::size_t, pid_t pid) {
    if (killed.exchange(true)) return;
    killer = std::thread([pid] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      kill(pid, SIGKILL);
    });
  };
  const CoordinatorResult res =
      run_shard_coordinator(socket_spec(scenarios, 2), opt);
  if (killer.joinable()) killer.join();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(killed.load());
  EXPECT_GE(res.worker_restarts, 1u);
  EXPECT_EQ(res.points[0].aggregate_digest, reference);
  EXPECT_EQ(res.points[0].records.size(), scenarios[0].trials);
}

TEST_F(CoordinatorTest, SocketRevokesWedgedWorkerOnLeaseExpiry) {
  const std::vector<Scenario> scenarios{fast_scenario(87, 12)};
  const std::uint64_t reference = reference_digests(scenarios)[0];

  // SIGSTOP freezes the worker mid-shard: heartbeats stop, the lease
  // expires, and the coordinator revokes (SIGKILLing the frozen pid) and
  // reassigns under a fresh attempt dir seeded with the partial journal.
  std::atomic<bool> wedged{false};
  std::thread wedger;
  CoordinatorOptions opt = socket_options(1, /*slow_ms=*/10);
  opt.on_worker_spawn = [&](std::size_t, pid_t pid) {
    if (wedged.exchange(true)) return;
    wedger = std::thread([pid] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      kill(pid, SIGSTOP);
    });
  };
  const CoordinatorResult res =
      run_shard_coordinator(socket_spec(scenarios, 2), opt);
  if (wedger.joinable()) wedger.join();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(wedged.load());
  EXPECT_GE(res.worker_restarts, 1u);
  EXPECT_EQ(res.points[0].aggregate_digest, reference);
}

TEST_F(CoordinatorTest, SocketResumesAfterCoordinatorCrash) {
  const std::vector<Scenario> scenarios{fast_scenario(89, 12),
                                        fast_scenario(90, 6)};
  const std::vector<std::uint64_t> reference = reference_digests(scenarios);
  const ShardSpec spec = socket_spec(scenarios, 4);

  CoordinatorOptions crash = socket_options(2);
  crash.simulate_crash_after_shards = 1;
  const CoordinatorResult first = run_shard_coordinator(spec, crash);
  ASSERT_FALSE(first.ok);
  ASSERT_GE(first.shards_completed, 1u);

  CoordinatorOptions resume = socket_options(2);
  resume.resume = true;
  const CoordinatorResult second = run_shard_coordinator(spec, resume);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.shards_completed, spec.shards.size());
  for (std::size_t p = 0; p < scenarios.size(); ++p) {
    EXPECT_EQ(second.points[p].aggregate_digest, reference[p]);
  }
}

TEST_F(CoordinatorTest, SocketParksUntilExternalWorkerAttaches) {
  const std::vector<Scenario> scenarios{fast_scenario(91, 8)};
  const std::uint64_t reference = reference_digests(scenarios)[0];

  // spawn_workers=false + workers=0: the coordinator owns no fleet and
  // parks; an external worker attaching late picks up the whole sweep.
  CoordinatorOptions opt = socket_options(0);
  opt.spawn_workers = false;
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
    int pipe_read = -1;
    const std::string err = spawn_worker_process(
        {g_self_exe, "--rcb_attach_worker",
         "127.0.0.1:" + std::to_string(port_->load())},
        pid, pipe_read);
    EXPECT_EQ(err, "");
    if (pipe_read >= 0) close(pipe_read);
    external.store(pid);
    while (!reaped.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  const CoordinatorResult res =
      run_shard_coordinator(socket_spec(scenarios, 2), opt);
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
  fs::copy_file(shard_dir(root_, 0) + "/" + kCheckpointJournalFile,
                shard_dir(root_, 1) + "/" + kCheckpointJournalFile,
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

int main(int argc, char** argv) {
  g_self_exe = argv[0];
  // Worker mode: the coordinator under test re-execs this binary as
  // "<exe> --rcb_shard_worker <root> <shard_id>".
  if (argc == 4 && std::string(argv[1]) == "--rcb_shard_worker") {
    return rcb::run_shard_worker(argv[2],
                                 static_cast<std::size_t>(std::atoi(argv[3])));
  }
  // Socket worker mode: "<exe> --rcb_attach_worker <host:port> [slow_ms]".
  // slow_ms stretches each trial so chaos tests can land signals mid-shard.
  if ((argc == 3 || argc == 4) &&
      std::string(argv[1]) == "--rcb_attach_worker") {
    rcb::AttachWorkerOptions opt;
    if (!rcb::parse_host_port(argv[2], opt.host, opt.port).empty()) return 2;
    opt.give_up_sec = 30.0;  // orphaned by a dead test: exit, don't linger
    if (argc == 4) {
      const int slow_ms = std::atoi(argv[3]);
      opt.runner = [slow_ms](const rcb::Scenario& s, std::uint64_t trial,
                             std::uint32_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(slow_ms));
        return rcb::run_scenario_trial(s, trial);
      };
    }
    return rcb::run_attached_worker(opt);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
