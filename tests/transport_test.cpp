// Tests for the worker-transport layer (runtime/transport.hpp +
// runtime/transport_socket.hpp) and the retry_io hardening underneath it:
// control-frame codec round-trips and corruption refusal, deterministic
// fault-plan draws, lease-policy validation, host:port parsing, the
// control socket a spawned worker inherits on fd 3, EINTR-storm
// regression for journal appends and fd transfers, and the duplicate-
// completion dedupe / divergence refusal that scan_shard (and therefore
// merge_shard_journals) applies to partitioned shard attempts, and the
// freshness rule under which the merge adopts a coordinator's scan.
#include "rcb/runtime/transport.hpp"

#include <errno.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "rcb/common/mathutil.hpp"
#include "rcb/runtime/cancel.hpp"
#include "rcb/runtime/checkpoint.hpp"
#include "rcb/runtime/coordinator.hpp"
#include "rcb/runtime/retry_io.hpp"
#include "rcb/runtime/shard.hpp"
#include "rcb/runtime/transport_socket.hpp"

namespace rcb {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Control-frame codec.

CtrlMessage full_message(CtrlType type) {
  CtrlMessage m;
  m.type = type;
  m.uid = 0xDEADBEEFCAFEF00Dull;  // > 2^53: a JSON double would shear this
  m.pid = 12345;
  m.shard = 7;
  m.attempt = 3;
  m.value = 0xFFFFFFFFFFFFFFFFull;
  m.digest = 0x0123456789ABCDEFull;
  m.heartbeat_ms = 100;
  m.root = "/tmp/sweep root with spaces";
  m.error = "worker said: \"no\"";
  return m;
}

TEST(CtrlFrameTest, RoundTripsEveryTypeAndField) {
  for (const CtrlType type :
       {CtrlType::kHello, CtrlType::kHeartbeat, CtrlType::kProgress,
        CtrlType::kComplete, CtrlType::kFailed, CtrlType::kAssign,
        CtrlType::kAck, CtrlType::kAbandon, CtrlType::kShutdown}) {
    const CtrlMessage sent = full_message(type);
    const std::string frame = encode_ctrl_frame(sent);
    ASSERT_EQ(frame.substr(0, 5), "RCBC ");
    ASSERT_EQ(frame.back(), '\n');

    CtrlFrameDecoder dec;
    dec.feed(frame.data(), frame.size());
    CtrlMessage got;
    std::string err;
    ASSERT_EQ(dec.next(got, err), 1) << err;
    EXPECT_EQ(got.type, sent.type);
    EXPECT_EQ(got.uid, sent.uid);
    EXPECT_EQ(got.pid, sent.pid);
    EXPECT_EQ(got.shard, sent.shard);
    EXPECT_EQ(got.attempt, sent.attempt);
    EXPECT_EQ(got.value, sent.value);
    EXPECT_EQ(got.digest, sent.digest);
    EXPECT_EQ(got.heartbeat_ms, sent.heartbeat_ms);
    EXPECT_EQ(got.root, sent.root);
    EXPECT_EQ(got.error, sent.error);
    EXPECT_EQ(dec.next(got, err), 0);  // exactly one frame
  }
}

TEST(CtrlFrameTest, RefusesCountsNoDoubleHoldsExactly) {
  // The frame checksum is valid, so only the field check can refuse these;
  // converting 1e30 to u64 was undefined behaviour.
  for (const char* bad : {"1e30", "9007199254740994", "-1", "2.5"}) {
    SCOPED_TRACE(bad);
    const std::string frame = encode_ctrl_frame(full_message(CtrlType::kHello));
    std::string payload = frame.substr(frame.find('{'));
    payload.pop_back();  // the frame's '\n'
    const std::size_t at = payload.find("\"pid\":12345");
    ASSERT_NE(at, std::string::npos) << payload;
    payload.replace(at + 6, 5, bad);
    const std::string forged = "RCBC " + std::to_string(payload.size()) + " " +
                               to_hex16(fnv1a64(payload)) + " " + payload +
                               "\n";
    CtrlFrameDecoder dec;
    dec.feed(forged.data(), forged.size());
    CtrlMessage got;
    std::string err;
    EXPECT_EQ(dec.next(got, err), -1);
    EXPECT_NE(err.find("malformed field"), std::string::npos) << err;
  }
}

TEST(CtrlFrameTest, IdleHeartbeatKeepsNoShardSentinel) {
  CtrlMessage m;
  m.type = CtrlType::kHeartbeat;
  m.uid = 42;
  ASSERT_EQ(m.shard, kNoShard);
  const std::string frame = encode_ctrl_frame(m);
  CtrlFrameDecoder dec;
  dec.feed(frame.data(), frame.size());
  CtrlMessage got;
  std::string err;
  ASSERT_EQ(dec.next(got, err), 1) << err;
  EXPECT_EQ(got.shard, kNoShard);
}

TEST(CtrlFrameTest, PartialFrameWaitsForMoreBytes) {
  const std::string frame = encode_ctrl_frame(full_message(CtrlType::kAssign));
  CtrlFrameDecoder dec;
  CtrlMessage got;
  std::string err;
  // Feed one byte at a time: every prefix must return 0 (wait), never -1.
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    dec.feed(&frame[i], 1);
    ASSERT_EQ(dec.next(got, err), 0) << "at byte " << i << ": " << err;
  }
  dec.feed(&frame[frame.size() - 1], 1);
  EXPECT_EQ(dec.next(got, err), 1) << err;
}

TEST(CtrlFrameTest, ChecksumMismatchPoisonsTheStream) {
  std::string frame = encode_ctrl_frame(full_message(CtrlType::kComplete));
  // Flip one payload byte: framing is intact, the checksum is not.
  frame[frame.size() - 2] ^= 0x20;
  CtrlFrameDecoder dec;
  dec.feed(frame.data(), frame.size());
  CtrlMessage got;
  std::string err;
  EXPECT_EQ(dec.next(got, err), -1);
  EXPECT_NE(err.find("checksum"), std::string::npos) << err;
}

TEST(CtrlFrameTest, BadMagicPoisonsTheStream) {
  const std::string junk = "HTTP/1.1 200 OK\r\n";
  CtrlFrameDecoder dec;
  dec.feed(junk.data(), junk.size());
  CtrlMessage got;
  std::string err;
  EXPECT_EQ(dec.next(got, err), -1);
  EXPECT_FALSE(err.empty());
}

TEST(CtrlFrameTest, DecodesBackToBackFramesFromOneFeed) {
  std::string stream;
  for (int i = 0; i < 3; ++i) {
    CtrlMessage m;
    m.type = CtrlType::kProgress;
    m.uid = static_cast<std::uint64_t>(i);
    m.shard = static_cast<std::uint64_t>(i);
    stream += encode_ctrl_frame(m);
  }
  CtrlFrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  CtrlMessage got;
  std::string err;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_EQ(dec.next(got, err), 1) << err;
    EXPECT_EQ(got.uid, i);
  }
  EXPECT_EQ(dec.next(got, err), 0);
  EXPECT_EQ(dec.buffered(), 0u);
}

// ---------------------------------------------------------------------------
// Deterministic fault plan.

TEST(NetFaultPlanTest, SameSeedSameHistorySameActions) {
  const NetFaultConfig cfg = NetFaultConfig::chaos(99, 0.3);
  NetFaultPlan a(cfg), b(cfg);
  for (int i = 0; i < 200; ++i) {
    const CtrlType type = static_cast<CtrlType>(i % 9);
    EXPECT_EQ(a.next(type), b.next(type)) << "draw " << i;
  }
}

TEST(NetFaultPlanTest, SeedZeroDeliversEverything) {
  NetFaultPlan plan{NetFaultConfig{}};
  EXPECT_FALSE(plan.active());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(plan.next(CtrlType::kHeartbeat), NetFaultAction::kDeliver);
  }
}

TEST(NetFaultPlanTest, ChaosPresetActuallyInjectsFaults) {
  NetFaultPlan plan{NetFaultConfig::chaos(7, 0.1)};
  ASSERT_TRUE(plan.active());
  int faults = 0;
  for (int i = 0; i < 500; ++i) {
    if (plan.next(CtrlType::kProgress) != NetFaultAction::kDeliver) ++faults;
  }
  // 4 channels at 0.1 + close at 0.02 cascade to a 42% fault rate; with 500
  // draws the count concentrates far from both ends.
  EXPECT_GT(faults, 100);
  EXPECT_LT(faults, 400);
}

// ---------------------------------------------------------------------------
// Lease policy + address parsing (the CLI validation seams).

TEST(LeaseConfigTest, AcceptsSanePairsRejectsTightOnes) {
  EXPECT_EQ(validate_lease_config(10.0, 0.1), "");
  EXPECT_EQ(validate_lease_config(0.0, 0.1), "");  // watchdog off
  EXPECT_EQ(validate_lease_config(0.21, 0.1), "");
  const std::string err = validate_lease_config(0.2, 0.1);  // exactly 2x
  EXPECT_NE(err.find("must exceed 2x"), std::string::npos) << err;
  EXPECT_NE(validate_lease_config(0.05, 0.1), "");
  EXPECT_NE(validate_lease_config(1.0, 0.0), "");  // heartbeat must be > 0
}

TEST(ParseHostPortTest, ParsesAndRejects) {
  std::string host;
  std::uint16_t port = 1;
  EXPECT_EQ(parse_host_port("127.0.0.1:8080", host, port), "");
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  EXPECT_EQ(parse_host_port("0.0.0.0:0", host, port), "");
  EXPECT_EQ(port, 0);
  EXPECT_NE(parse_host_port("127.0.0.1", host, port), "");     // no colon
  EXPECT_NE(parse_host_port("localhost:80", host, port), "");  // not numeric
  EXPECT_NE(parse_host_port("127.0.0.1:99999", host, port), "");
  EXPECT_NE(parse_host_port("127.0.0.1:x", host, port), "");
  EXPECT_NE(parse_host_port(":80", host, port), "");
}

// ---------------------------------------------------------------------------
// Worker spawning: the child speaks on an inherited socket, and its death
// reads as EOF on the parent's end.

TEST(SpawnWorkerProcessTest, ChildGetsAControlSocketOnFd3) {
  pid_t pid = -1;
  int conn = -1;
  ASSERT_EQ(spawn_worker_process({"/bin/sh", "-c",
                                  "[ -S /dev/fd/3 ] && printf ok >&3"},
                                 pid, conn),
            "");
  std::string got;
  for (;;) {
    char buf[16];
    const ssize_t k = read(conn, buf, sizeof buf);
    if (k > 0) {
      got.append(buf, static_cast<std::size_t>(k));
    } else if (k == 0) {
      break;  // the child exited: EOF
    } else {
      ASSERT_TRUE(errno == EAGAIN || errno == EINTR) << errno;
      usleep(1000);
    }
  }
  int status = -1;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  close(conn);
  EXPECT_EQ(got, "ok");
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
}

// ---------------------------------------------------------------------------
// retry_io: EINTR storms must not shear transfers (satellite regression for
// the journal/pipe hardening).

class EintrStormTest : public ::testing::Test {
 protected:
  void TearDown() override { set_io_fault(nullptr); }

  /// Fails every other matching call with EINTR.
  void arm_alternating(const std::string& op_match) {
    auto counter = std::make_shared<std::atomic<int>>(0);
    set_io_fault([op_match, counter](const char* op) {
      if (op_match != op) return 0;
      return counter->fetch_add(1) % 2 == 0 ? EINTR : 0;
    });
  }
};

TEST_F(EintrStormTest, RetryWriteAndReadSurviveStorm) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::string payload(8192, 'x');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  arm_alternating("write");
  ASSERT_EQ(retry_write(fds[1], payload.data(), payload.size()), 0);
  set_io_fault(nullptr);
  arm_alternating("read");
  std::string got(payload.size(), '\0');
  ASSERT_EQ(retry_read(fds[0], got.data(), got.size()),
            static_cast<ssize_t>(payload.size()));
  EXPECT_EQ(got, payload);
  close(fds[0]);
  close(fds[1]);
}

TEST_F(EintrStormTest, JournalAppendsSurviveStorm) {
  const std::string dir =
      (fs::temp_directory_path() / "rcb_eintr_journal_storm").string();
  fs::remove_all(dir);
  Scenario s;
  s.protocol = "one_to_one";
  s.adversary = "full_duel";
  s.budget = 256;
  s.trials = 4;
  s.seed = 5;

  arm_alternating("fwrite");
  CheckpointWriter w;
  ASSERT_EQ(w.create(dir, s), "");
  for (std::uint64_t t = 0; t < 4; ++t) {
    CheckpointRecord rec;
    rec.trial = t;
    rec.outcome = run_scenario_trial(s, t);
    ASSERT_EQ(w.append_batch({rec}), "");
  }
  set_io_fault(nullptr);

  // Every record written under the storm reads back intact, no torn tail.
  arm_alternating("fread");
  const CheckpointLoadResult loaded = load_checkpoint(dir);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_FALSE(loaded.truncated_tail);
  ASSERT_EQ(loaded.records.size(), 4u);
  for (std::uint64_t t = 0; t < 4; ++t) {
    EXPECT_EQ(loaded.records[t].trial, t);
  }
  set_io_fault(nullptr);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Duplicate completions after a partition: scan_shard (and so the merge)
// dedupes identical digests and refuses divergent ones.

class DuplicateCompletionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("rcb_dup_complete_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
    Scenario s;
    s.protocol = "one_to_one";
    s.adversary = "full_duel";
    s.budget = 256;
    s.trials = 6;
    s.seed = 11;
    spec_.worker_threads = 1;
    spec_.points = {s};
    spec_.shards = {{0, 0, 6}};
    ASSERT_EQ(write_shard_spec(root_, spec_), "");
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Runs the whole shard to completion inside `dir`.
  void complete_attempt(const std::string& dir, std::uint64_t reseed = 0) {
    TrialRunner runner;
    if (reseed != 0) {
      // A worker that journals *different* outcomes for the same assigned
      // work — the fabricated-journal case divergence detection is for.
      runner = [reseed](const Scenario& s, std::uint64_t trial,
                        std::uint32_t) {
        Scenario shifted = s;
        shifted.seed += reseed;
        return run_scenario_trial(shifted, trial);
      };
    }
    const SweepResult res = run_shard_attempt(spec_, 0, dir, runner, pool_);
    ASSERT_TRUE(res.ok) << res.error;
  }

  std::string root_;
  ShardSpec spec_;
  ThreadPool pool_{1};
};

TEST_F(DuplicateCompletionTest, IdenticalDigestsDedupeAndMerge) {
  // Both the revoked worker (base dir) and its replacement (try_1) finished
  // the shard: same assigned work, same digest.
  complete_attempt(shard_attempt_dir(root_, 0, 0));
  ASSERT_EQ(prepare_shard_attempt(root_, spec_, 0, 1), "");
  complete_attempt(shard_attempt_dir(root_, 0, 1));

  const ShardScan scan = scan_shard(root_, spec_, 0);
  ASSERT_EQ(scan.state, ShardScanState::kComplete) << scan.error;
  EXPECT_EQ(scan.records.size(), 6u);  // adopted once, not merged twice

  const ShardMergeResult merged = merge_shard_journals(root_, spec_);
  ASSERT_TRUE(merged.ok) << merged.error;
  ASSERT_EQ(merged.points.size(), 1u);
  EXPECT_EQ(merged.points[0].records.size(), 6u);
}

TEST_F(DuplicateCompletionTest, DivergentDigestsRefuseLoudly) {
  complete_attempt(shard_attempt_dir(root_, 0, 0));
  // The second completion journals different outcomes for the same trials:
  // one of the two journals is fabricated, and no tie-break is safe.
  const std::string try1 = shard_attempt_dir(root_, 0, 1);
  ASSERT_EQ(fs::create_directories(try1) ? "" : "", "");
  complete_attempt(try1, /*reseed=*/1);

  const ShardScan scan = scan_shard(root_, spec_, 0);
  ASSERT_EQ(scan.state, ShardScanState::kCorrupt);
  EXPECT_NE(scan.error.find("divergent"), std::string::npos) << scan.error;

  const ShardMergeResult merged = merge_shard_journals(root_, spec_);
  ASSERT_FALSE(merged.ok);
  EXPECT_NE(merged.error.find("divergent"), std::string::npos)
      << merged.error;
  EXPECT_TRUE(merged.points.empty());
}

TEST_F(DuplicateCompletionTest, PartialAttemptSeedsTheNextOne) {
  // A half-finished base attempt: the next attempt dir starts from its
  // journal (copied, not moved) instead of redoing the shard.
  ShardSpec half = spec_;
  half.shards = {{0, 0, 3}};  // pretend only 3 trials were assigned...
  const SweepResult res =
      run_shard_attempt(half, 0, shard_attempt_dir(root_, 0, 0), {}, pool_);
  ASSERT_TRUE(res.ok) << res.error;

  ASSERT_EQ(next_shard_attempt(root_, 0), 1u);
  ASSERT_EQ(prepare_shard_attempt(root_, spec_, 0, 1), "");
  const CheckpointLoadResult seeded =
      load_checkpoint(shard_attempt_dir(root_, 0, 1));
  ASSERT_TRUE(seeded.ok) << seeded.error;
  EXPECT_EQ(seeded.records.size(), 3u);  // predecessor progress adopted
  // The source journal is untouched (a partitioned writer may still own it).
  const CheckpointLoadResult source =
      load_checkpoint(shard_attempt_dir(root_, 0, 0));
  ASSERT_TRUE(source.ok) << source.error;
  EXPECT_EQ(source.records.size(), 3u);
  EXPECT_EQ(next_shard_attempt(root_, 0), 2u);
}

// ---------------------------------------------------------------------------
// Adopted scans: the merge reuses a coordinator's kComplete scan only while
// the shard's candidates are exactly as the scan read them; any later
// change goes back through scan_shard and its refusals.

class AdoptedScanTest : public DuplicateCompletionTest {
 protected:
  /// The scan a coordinator keeps when it marks shard 0 done.
  std::vector<ShardScan> adopt() {
    std::vector<ShardScan> adopted{scan_shard(root_, spec_, 0)};
    EXPECT_EQ(adopted[0].state, ShardScanState::kComplete)
        << adopted[0].error;
    return adopted;
  }
};

void expect_same_merge(const ShardMergeResult& warm,
                       const ShardMergeResult& cold) {
  ASSERT_TRUE(warm.ok) << warm.error;
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_EQ(warm.points.size(), cold.points.size());
  for (std::size_t p = 0; p < cold.points.size(); ++p) {
    const SweepResult& w = warm.points[p];
    const SweepResult& c = cold.points[p];
    EXPECT_EQ(w.aggregate_digest, c.aggregate_digest);
    EXPECT_EQ(w.timed_out, c.timed_out);
    EXPECT_EQ(w.failed_trials, c.failed_trials);
    EXPECT_EQ(w.resumed, c.resumed);
    ASSERT_EQ(w.records.size(), c.records.size());
    for (std::size_t k = 0; k < c.records.size(); ++k) {
      EXPECT_EQ(w.records[k].trial, c.records[k].trial);
      EXPECT_EQ(w.records[k].status, c.records[k].status);
      EXPECT_EQ(w.records[k].attempts, c.records[k].attempts);
      EXPECT_EQ(w.records[k].outcome.digest, c.records[k].outcome.digest);
    }
  }
}

TEST_F(AdoptedScanTest, WarmMergeEqualsColdMerge) {
  // One quarantined and one failed trial, so the status counts compare
  // something.
  const TrialRunner runner = [](const Scenario& s, std::uint64_t trial,
                                std::uint32_t) -> TrialOutcome {
    if (trial == 1) throw TrialCancelled("slot");
    if (trial == 4) throw std::runtime_error("injected");
    return run_scenario_trial(s, trial);
  };
  const std::string base = shard_attempt_dir(root_, 0, 0);
  ASSERT_TRUE(run_shard_attempt(spec_, 0, base, runner, pool_).ok);
  const ShardMergeResult cold = merge_shard_journals(root_, spec_);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.points[0].timed_out, 1u);
  EXPECT_EQ(cold.points[0].failed_trials, 1u);
  expect_same_merge(merge_shard_journals(root_, spec_, adopt()), cold);

  // The shard is redone by another attempt after the scan was kept: the
  // stale scan must not stand in for what is now on disk.
  const std::vector<ShardScan> stale = adopt();
  fs::remove_all(base);
  complete_attempt(shard_attempt_dir(root_, 0, 1), /*reseed=*/1);
  const ShardMergeResult redone = merge_shard_journals(root_, spec_);
  ASSERT_TRUE(redone.ok) << redone.error;
  EXPECT_NE(redone.points[0].aggregate_digest,
            cold.points[0].aggregate_digest);
  expect_same_merge(merge_shard_journals(root_, spec_, stale), redone);
}

TEST_F(AdoptedScanTest, DivergentTryCompletedAfterAdoptionIsRefused) {
  complete_attempt(shard_attempt_dir(root_, 0, 0));
  std::vector<ShardScan> adopted = adopt();
  complete_attempt(shard_attempt_dir(root_, 0, 1), /*reseed=*/1);

  const ShardMergeResult merged =
      merge_shard_journals(root_, spec_, std::move(adopted));
  ASSERT_FALSE(merged.ok);
  EXPECT_NE(merged.error.find("divergent"), std::string::npos)
      << merged.error;
  EXPECT_TRUE(merged.points.empty());
}

TEST_F(AdoptedScanTest, AppendToAdoptedJournalIsRefused) {
  const std::string base = shard_attempt_dir(root_, 0, 0);
  complete_attempt(base);
  std::vector<ShardScan> adopted = adopt();

  // A second record for trial 0 lands after the scan: the journal now
  // holds a duplicate trial, which the loader refuses as corruption.
  CheckpointWriter w;
  ASSERT_EQ(w.open_for_append(base, scenario_digest(spec_.points[0]),
                              fs::file_size(fs::path(base) /
                                            kCheckpointJournalFile)),
            "");
  CheckpointRecord rec;
  rec.trial = 0;
  rec.outcome = run_scenario_trial(spec_.points[0], 0);
  ASSERT_EQ(w.append_batch({rec}), "");
  w.close();

  const ShardMergeResult merged =
      merge_shard_journals(root_, spec_, std::move(adopted));
  ASSERT_FALSE(merged.ok);
  EXPECT_NE(merged.error.find("shard 0"), std::string::npos) << merged.error;
  EXPECT_TRUE(merged.points.empty());
}

TEST_F(AdoptedScanTest, DeletedJournalReportsTheShardIncomplete) {
  const std::string base = shard_attempt_dir(root_, 0, 0);
  complete_attempt(base);
  std::vector<ShardScan> adopted = adopt();
  ASSERT_TRUE(fs::remove(fs::path(base) / kCheckpointJournalFile));

  const ShardMergeResult merged =
      merge_shard_journals(root_, spec_, std::move(adopted));
  ASSERT_FALSE(merged.ok);
  EXPECT_NE(merged.error.find("incomplete"), std::string::npos)
      << merged.error;
}

}  // namespace
}  // namespace rcb
