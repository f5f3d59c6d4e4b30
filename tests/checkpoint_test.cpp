// Tests for the crash-safe checkpoint journal (runtime/checkpoint.hpp):
// round-trip fidelity of the record layout, the truncation-vs-corruption
// decision tree, resume-after-truncation, and the refusal of version-1
// checkpoints by load, resume and sharded resume.
#include "rcb/runtime/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "rcb/cli/json_parse.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/runtime/coordinator.hpp"
#include "rcb/runtime/frame.hpp"
#include "rcb/runtime/shard.hpp"
#include "rcb/runtime/supervisor.hpp"
#include "test_dir.hpp"

#ifndef RCB_CORPUS_DIR
#error "RCB_CORPUS_DIR must be defined by the build (tests/CMakeLists.txt)"
#endif

namespace rcb {
namespace {

namespace fs = std::filesystem;

Scenario test_scenario() {
  Scenario s;
  s.protocol = "one_to_one";
  s.adversary = "full_duel";
  s.budget = 4096;
  s.eps = 0.02;
  s.trials = 8;
  s.seed = 77;
  return s;
}

/// Outcome with every field non-default, including doubles that only
/// round-trip with %.17g precision.
TrialOutcome test_outcome(std::uint64_t trial) {
  TrialOutcome o;
  o.max_cost = 1234.0 + static_cast<double>(trial);
  o.mean_cost = 0.1 + static_cast<double>(trial) / 3.0;
  o.adversary_cost = 1.0e15 + static_cast<double>(trial);
  o.latency = 99999.0;
  o.success = trial % 2 == 0;
  o.aborted = trial == 3;
  o.dead_count = trial * 7;
  o.crashed_count = trial;
  o.digest = 0x123456789abcdef0ull ^ (trial * 0x9e3779b97f4a7c15ull);
  o.alice_cost = 1234.0 + static_cast<double>(trial);
  o.bob_cost = 1000.5 - static_cast<double>(trial);
  return o;
}

CheckpointRecord test_record(std::uint64_t trial) {
  CheckpointRecord rec;
  rec.trial = trial;
  rec.status = trial == 3 ? TrialStatus::kTimedOut : TrialStatus::kOk;
  rec.attempts = trial == 5 ? 2 : 1;
  rec.outcome = test_outcome(trial);
  return rec;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = make_test_dir("rcb_ckpt_test");
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string journal_path() const {
    return (fs::path(dir_) / kCheckpointJournalFile).string();
  }
  std::string manifest_path() const {
    return (fs::path(dir_) / kCheckpointManifestFile).string();
  }

  std::string read_file(const std::string& path) const {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  void write_file(const std::string& path, const std::string& text) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }

  /// Creates a checkpoint holding records for the given trials, appended
  /// one record per batch (one flushed append each).
  void make_checkpoint(const std::vector<std::uint64_t>& trials) {
    CheckpointWriter writer;
    ASSERT_EQ(writer.create(dir_, test_scenario()), "");
    for (const std::uint64_t t : trials) {
      ASSERT_EQ(writer.append_batch({test_record(t)}), "");
    }
    writer.close();
  }

  /// Writes `payloads` as correctly framed journal records, so a payload
  /// reaches the record decoder instead of failing the frame digest.
  void write_framed(const std::vector<std::string>& payloads) const {
    std::string journal;
    for (const std::string& p : payloads) {
      journal += "RCBJ " + std::to_string(p.size()) + " " +
                 to_hex16(fnv1a64(p)) + " " + p + "\n";
    }
    write_file(journal_path(), journal);
  }

  std::string dir_;
};

void expect_same_record(const CheckpointRecord& a, std::uint64_t a_dig,
                        const CheckpointRecord& b, std::uint64_t b_dig,
                        const std::string& what);

/// The single-space fields of a canonical version-2 payload.
std::vector<std::string> v2_fields(const std::string& payload) {
  std::vector<std::string> fields(1);
  for (const char c : payload) {
    if (c == ' ') {
      fields.emplace_back();
    } else {
      fields.back() += c;
    }
  }
  return fields;
}

std::string join_fields(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ' ';
    out += fields[i];
  }
  return out;
}

/// The status named `name` as journals spell it.
bool status_from_name(std::string_view name, TrialStatus& out) {
  for (const TrialStatus s :
       {TrialStatus::kOk, TrialStatus::kTimedOut, TrialStatus::kFailed}) {
    if (trial_status_name(s) == name) {
      out = s;
      return true;
    }
  }
  return false;
}

/// Rewrites the manifest in `dir` to name record layout `version`.  The
/// scenario digest covers only the scenario object, so the manifest stays
/// valid.
void set_manifest_version(const std::string& dir, char version) {
  const fs::path path = fs::path(dir) / kCheckpointManifestFile;
  std::string m;
  {
    std::ifstream in(path, std::ios::binary);
    m.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  }
  const std::string key = "{\"rcb_checkpoint\":";
  ASSERT_EQ(m.rfind(key, 0), 0u) << m;
  m[key.size()] = version;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << m;
}

/// Fails the test unless every frame of `journal` is complete and its
/// payload reads.  Returns the number of frames.
std::size_t expect_frames_in(std::string_view journal) {
  std::size_t frames = 0;
  while (!journal.empty()) {
    const FrameRead r = read_frame(journal, kJournalFrameMagic);
    EXPECT_EQ(r.status, FrameRead::Status::kFrame) << "frame " << frames;
    if (r.status != FrameRead::Status::kFrame) break;
    CheckpointRecord rec;
    std::uint64_t dig = 0;
    EXPECT_EQ(parse_journal_record_payload(r.payload, rec, dig), "")
        << r.payload;
    journal.remove_prefix(r.consumed);
    ++frames;
  }
  return frames;
}

TEST_F(CheckpointTest, RoundTripsRecordsExactly) {
  make_checkpoint({0, 3, 5, 1});
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_FALSE(loaded.truncated_tail);
  EXPECT_EQ(loaded.scenario_digest, scenario_digest(test_scenario()));
  EXPECT_EQ(scenario_to_json(loaded.scenario),
            scenario_to_json(test_scenario()));
  ASSERT_EQ(loaded.records.size(), 4u);
  // Journal order is completion order, not trial order.
  const std::vector<std::uint64_t> expect = {0, 3, 5, 1};
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const CheckpointRecord& rec = loaded.records[i];
    const CheckpointRecord ref = test_record(expect[i]);
    EXPECT_EQ(rec.trial, ref.trial);
    EXPECT_EQ(rec.status, ref.status);
    EXPECT_EQ(rec.attempts, ref.attempts);
    // Bit-exact doubles and u64s — the property resume determinism needs.
    EXPECT_EQ(rec.outcome.max_cost, ref.outcome.max_cost);
    EXPECT_EQ(rec.outcome.mean_cost, ref.outcome.mean_cost);
    EXPECT_EQ(rec.outcome.adversary_cost, ref.outcome.adversary_cost);
    EXPECT_EQ(rec.outcome.latency, ref.outcome.latency);
    EXPECT_EQ(rec.outcome.success, ref.outcome.success);
    EXPECT_EQ(rec.outcome.aborted, ref.outcome.aborted);
    EXPECT_EQ(rec.outcome.dead_count, ref.outcome.dead_count);
    EXPECT_EQ(rec.outcome.crashed_count, ref.outcome.crashed_count);
    EXPECT_EQ(rec.outcome.digest, ref.outcome.digest);
    EXPECT_EQ(rec.outcome.alice_cost, ref.outcome.alice_cost);
    EXPECT_EQ(rec.outcome.bob_cost, ref.outcome.bob_cost);
  }
}

TEST_F(CheckpointTest, MissingJournalLoadsEmpty) {
  make_checkpoint({});
  fs::remove(journal_path());
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_FALSE(loaded.truncated_tail);
}

TEST_F(CheckpointTest, UnreadableJournalIsRefusedNotLoadedEmpty) {
  // Loaded as empty, a journal that exists but cannot be read would be
  // truncated to zero by the resuming writer.
  make_checkpoint({0, 1});
  fs::remove(journal_path());
  fs::create_directory(journal_path());
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("cannot read checkpoint journal"),
            std::string::npos)
      << loaded.error;
}

TEST_F(CheckpointTest, MissingManifestFails) {
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  EXPECT_FALSE(loaded.ok);
}

TEST_F(CheckpointTest, TruncatedTailIsRecoverable) {
  make_checkpoint({0, 1, 2});
  const std::string full = read_file(journal_path());
  // Chop the last record mid-frame, as a SIGKILL mid-append would.
  write_file(journal_path(), full.substr(0, full.size() - 10));

  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_TRUE(loaded.truncated_tail);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_EQ(loaded.records[1].trial, 1u);

  // A resuming writer truncates to the last good byte and appends; the
  // journal then reloads clean with all three records.
  CheckpointWriter writer;
  ASSERT_EQ(writer.open_for_append(dir_, loaded), "");
  ASSERT_EQ(writer.append_batch({test_record(2)}), "");
  writer.close();
  const CheckpointLoadResult reloaded = load_checkpoint(dir_);
  ASSERT_TRUE(reloaded.ok) << reloaded.error;
  EXPECT_FALSE(reloaded.truncated_tail);
  ASSERT_EQ(reloaded.records.size(), 3u);
  EXPECT_EQ(reloaded.records[2].trial, 2u);
}

TEST_F(CheckpointTest, EveryTruncationPointIsEitherCleanOrRecoverable) {
  make_checkpoint({0, 1});
  const std::string full = read_file(journal_path());
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    write_file(journal_path(), full.substr(0, keep));
    const CheckpointLoadResult loaded = load_checkpoint(dir_);
    ASSERT_TRUE(loaded.ok)
        << "kill at byte " << keep << " unrecoverable: " << loaded.error;
    EXPECT_LE(loaded.records.size(), 2u);
    EXPECT_LE(loaded.journal_valid_bytes, keep);
  }
}

TEST_F(CheckpointTest, FlippedPayloadByteIsCorruption) {
  make_checkpoint({0, 1, 2});
  std::string bytes = read_file(journal_path());
  // Flip a byte inside the middle record's payload (frames are text; pick
  // a digit inside the first outcome number of record 1).
  const std::size_t second = bytes.find("RCBJ", 4);
  ASSERT_NE(second, std::string::npos);
  const std::size_t target = bytes.find("1235", second);  // max_cost of t=1
  ASSERT_NE(target, std::string::npos);
  bytes[target] = '9';
  write_file(journal_path(), bytes);

  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("record"), std::string::npos) << loaded.error;
  EXPECT_NE(loaded.error.find("digest"), std::string::npos) << loaded.error;
}

TEST_F(CheckpointTest, LengthFlippedUpwardIsCorruptionNotTruncation) {
  // Read as need-more, "RCBJ 238" -> "RCBJ 938" would make a truncated
  // tail of the first record, and a resume would cut the journal there and
  // re-run every record after it.  The frame's own newline lies before the
  // declared end, so it is refused instead.
  make_checkpoint({0, 1, 2});
  std::string bytes = read_file(journal_path());
  ASSERT_EQ(bytes.substr(0, 5), "RCBJ ");
  ASSERT_LT(bytes[5], '9');
  bytes[5] = '9';
  write_file(journal_path(), bytes);

  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  EXPECT_FALSE(loaded.ok);
  EXPECT_FALSE(loaded.truncated_tail);
  EXPECT_NE(loaded.error.find("journal record 0: newline inside frame"),
            std::string::npos)
      << loaded.error;
}

TEST_F(CheckpointTest, DuplicateTrialIsCorruption) {
  make_checkpoint({0, 1, 1});
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("duplicate"), std::string::npos) << loaded.error;
}

TEST_F(CheckpointTest, OutOfRangeTrialIsCorruption) {
  make_checkpoint({0, 99});  // scenario has 8 trials
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  EXPECT_FALSE(loaded.ok);
}

TEST_F(CheckpointTest, EditedManifestScenarioIsDetected) {
  make_checkpoint({0});
  std::string manifest = read_file(manifest_path());
  const std::size_t pos = manifest.find("\"seed\":77");
  ASSERT_NE(pos, std::string::npos);
  manifest.replace(pos, 9, "\"seed\":78");
  write_file(manifest_path(), manifest);

  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("manifest"), std::string::npos) << loaded.error;
}

TEST_F(CheckpointTest, JournalFromDifferentScenarioIsRejected) {
  // Records are stamped with the scenario digest of the manifest they were
  // written under; splicing them under another manifest must fail.
  make_checkpoint({0, 1});
  const std::string foreign_journal = read_file(journal_path());

  fs::remove_all(dir_);
  Scenario other = test_scenario();
  other.seed = 78;
  CheckpointWriter writer;
  ASSERT_EQ(writer.create(dir_, other), "");
  writer.close();
  write_file(journal_path(), foreign_journal);

  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("scenario digest"), std::string::npos)
      << loaded.error;
}

TEST_F(CheckpointTest, GarbagePrefixIsCorruptionNotTruncation) {
  make_checkpoint({0});
  write_file(journal_path(), "XXXX garbage\n" + read_file(journal_path()));
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  EXPECT_FALSE(loaded.ok);
}

TEST_F(CheckpointTest, AppendBatchBytesMatchPerRecordAppends) {
  // Group commit must not change the on-disk format: one N-record batch
  // and N one-record batches have to produce identical journals.
  make_checkpoint({0, 3, 5, 1});
  const std::string per_record = read_file(journal_path());

  fs::remove_all(dir_);
  CheckpointWriter writer;
  ASSERT_EQ(writer.create(dir_, test_scenario()), "");
  std::vector<CheckpointRecord> batch;
  for (const std::uint64_t t : {0, 3, 5, 1}) batch.push_back(test_record(t));
  ASSERT_EQ(writer.append_batch(batch), "");
  writer.close();
  EXPECT_EQ(read_file(journal_path()), per_record);
}

TEST_F(CheckpointTest, StaleManifestTmpFromCrashWindowIsCleanedUp) {
  // A crash between the temp-file write and the rename leaves
  // "manifest.json.tmp" next to the manifest.  It must not survive
  // recovery: a later crash mid-rewrite could otherwise be confused with
  // it, and it lingers forever on disk.
  make_checkpoint({0, 1});
  const std::string tmp = manifest_path() + ".tmp";
  write_file(tmp, "{\"partial\":");  // torn temp write from the dead process

  CheckpointLoadResult loaded = load_checkpoint(dir_);
  ASSERT_TRUE(loaded.ok) << loaded.error;  // the real manifest is intact
  CheckpointWriter writer;
  ASSERT_EQ(writer.open_for_append(dir_, loaded), "");
  writer.close();
  EXPECT_FALSE(fs::exists(tmp)) << "stale manifest temp file survived resume";

  // The fresh-start path also recovers: create() rewrites through the same
  // temp name, so the stale file is replaced, not left behind.
  write_file(tmp, "{\"partial\":");
  ASSERT_EQ(writer.create(dir_, test_scenario()), "");
  writer.close();
  EXPECT_FALSE(fs::exists(tmp));
}

TEST_F(CheckpointTest, InjectedWriteFaultFailsAppendWithoutWriting) {
  CheckpointWriter writer;
  ASSERT_EQ(writer.create(dir_, test_scenario()), "");
  ASSERT_EQ(writer.append_batch({test_record(0)}), "");
  const std::string before = read_file(journal_path());

  set_checkpoint_write_fault([](std::size_t) { return ENOSPC; });
  const std::string err = writer.append_batch({test_record(1)});
  set_checkpoint_write_fault(nullptr);
  EXPECT_NE(err.find("journal append failed"), std::string::npos) << err;
  EXPECT_EQ(read_file(journal_path()), before);  // failed write wrote nothing

  // The journal still parses to the pre-fault prefix.
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.records.size(), 1u);
}

TEST_F(CheckpointTest, DiskFullTaintsAsyncWriterAndSurfacesFromFinish) {
  // The disk fills up mid-sweep and stays full: the manifest and the first
  // journal append succeed, every later write fails with ENOSPC.  The first
  // failed append taints the point's journal, so no task attempts another
  // (exactly one write is refused, nothing is silently dropped), and the
  // error surfaces from the point's finalisation as the sweep's error.
  Scenario s = test_scenario();
  s.trials = 1000;
  SupervisorOptions opt;
  opt.checkpoint_dir = dir_;
  std::atomic<int> writes_left{2};
  std::atomic<int> refused{0};
  set_checkpoint_write_fault([&](std::size_t) {
    if (writes_left.fetch_sub(1) > 0) return 0;
    ++refused;
    return ENOSPC;
  });
  ThreadPool pool(4);
  const SweepResult sweep = run_supervised_sweep(s, opt, pool);
  set_checkpoint_write_fault(nullptr);

  EXPECT_FALSE(sweep.ok);
  EXPECT_NE(sweep.error.find("journal append failed"), std::string::npos)
      << sweep.error;
  EXPECT_EQ(refused.load(), 1);

  // Whatever was appended before the disk filled up is still replayable,
  // and only those records count as executed.
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_FALSE(loaded.truncated_tail);
  EXPECT_GT(loaded.records.size(), 0u);
  EXPECT_LT(loaded.records.size(), s.trials);
  EXPECT_EQ(sweep.executed, loaded.records.size());
}

TEST_F(CheckpointTest, AsyncJournalWriterSurfacesWriteErrors) {
  // A writer that was never opened must refuse every write with an error
  // its caller reports, rather than accept records that can never be
  // durable.
  CheckpointWriter writer;
  EXPECT_FALSE(writer.active());
  std::string err = writer.append_batch({test_record(0)});
  EXPECT_NE(err.find("not open"), std::string::npos) << err;
  std::string frames;
  const CheckpointRecord rec = test_record(1);
  writer.encode_frames(frames, {&rec, 1});
  err = writer.append_frames(frames);
  EXPECT_NE(err.find("not open"), std::string::npos) << err;
  err = writer.sync();
  EXPECT_NE(err.find("not open"), std::string::npos) << err;
  EXPECT_FALSE(fs::exists(journal_path()));
}

// ---------------------------------------------------------------------------
// Version-1 checkpoints: refused, never read, never written to.

/// A checkpoint in the version-1 layout (one JSON object per record): 20
/// records over a 24-trial broadcast scenario with faults.  Every path
/// into a checkpoint refuses it.
const fs::path kFixtureDir = fs::path(RCB_CORPUS_DIR) / "journal_v1";
constexpr char kPredatesV2[] =
    "checkpoint predates journal v2; re-run the sweep";

/// Every regular file under `root`, by path, with its bytes.
std::map<std::string, std::string> snapshot_tree(const fs::path& root) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(root)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    files[e.path().string()].assign(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
  }
  return files;
}

/// Copies the fixture's two files into `dir` (created if needed).
void copy_fixture(const fs::path& dir) {
  fs::create_directories(dir);
  for (const char* f : {kCheckpointManifestFile, kCheckpointJournalFile}) {
    fs::copy_file(kFixtureDir / f, dir / f);
  }
}

TEST_F(CheckpointTest, FixtureJournalReEncodesByteIdentically) {
  // load_checkpoint refuses the version-1 manifest before it reads the
  // journal, with the one error that names the cause.
  copy_fixture(dir_);
  const auto before = snapshot_tree(dir_);
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  EXPECT_FALSE(loaded.ok);
  EXPECT_EQ(loaded.error, kPredatesV2);
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_EQ(snapshot_tree(dir_), before);
}

TEST_F(CheckpointTest, FixtureCheckpointResumes) {
  // A supervised in-process --resume of the fixture is refused the same
  // way, and neither truncates nor appends to its journal.
  copy_fixture(dir_);
  const auto before = snapshot_tree(dir_);
  SupervisorOptions opt;
  opt.checkpoint_dir = dir_;
  opt.resume = true;
  ThreadPool pool(2);
  const SweepResult sweep = run_supervised_sweep(Scenario{}, opt, pool);
  EXPECT_FALSE(sweep.ok);
  EXPECT_NE(sweep.error.find(kPredatesV2), std::string::npos) << sweep.error;
  EXPECT_EQ(sweep.executed, 0u);
  EXPECT_EQ(snapshot_tree(dir_), before);
}

TEST_F(CheckpointTest, NewCheckpointsAreV2) {
  make_checkpoint({0, 3, 5});
  EXPECT_EQ(read_file(manifest_path()).rfind("{\"rcb_checkpoint\":2,", 0), 0u);
  EXPECT_EQ(expect_frames_in(read_file(journal_path())), 3u);
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  ASSERT_TRUE(loaded.ok) << loaded.error;
}

TEST_F(CheckpointTest, UnknownManifestVersionIsRefused) {
  make_checkpoint({0});
  for (const char version : {'0', '3'}) {
    set_manifest_version(dir_, version);
    const CheckpointLoadResult loaded = load_checkpoint(dir_);
    EXPECT_FALSE(loaded.ok) << version;
    EXPECT_NE(loaded.error.find("rcb_checkpoint"), std::string::npos)
        << loaded.error;
  }
}

TEST_F(CheckpointTest, SupervisedRecordsCarryPerPartyCosts) {
  // A duel journals E(A) and E(B); they survive a reload, sum to twice the
  // mean cost, and leave the trial digest as it was.
  Scenario s = test_scenario();
  SupervisorOptions opt;
  opt.checkpoint_dir = dir_;
  ThreadPool pool(2);
  const SweepResult sweep = run_supervised_sweep(s, opt, pool);
  ASSERT_TRUE(sweep.ok) << sweep.error;
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_EQ(loaded.records.size(), s.trials);
  double spent = 0.0;
  for (const CheckpointRecord& rec : loaded.records) {
    const TrialOutcome& o = rec.outcome;
    const TrialOutcome ref = run_scenario_trial(s, rec.trial);
    EXPECT_EQ(o.alice_cost, ref.alice_cost);
    EXPECT_EQ(o.bob_cost, ref.bob_cost);
    EXPECT_EQ(o.alice_cost + o.bob_cost, 2.0 * o.mean_cost);
    EXPECT_EQ(std::max(o.alice_cost, o.bob_cost), o.max_cost);
    spent += o.alice_cost;
  }
  EXPECT_GT(spent, 0.0);

  Scenario b;
  b.protocol = "broadcast";
  b.n = 8;
  const TrialOutcome bo = run_scenario_trial(b, 0);
  EXPECT_EQ(bo.alice_cost, 0.0);
  EXPECT_EQ(bo.bob_cost, 0.0);
}

TEST_F(CheckpointTest, EverySingleByteFlipOfAV2JournalIsCaught) {
  // Each byte of a 3-record journal, with each of its bits flipped and
  // replaced by each byte the grammar gives a meaning to: the load is
  // refused, reads a truncated tail, or loads the records unchanged.  It
  // never loads a record that was not written.
  make_checkpoint({0, 3, 5});
  const std::string journal = read_file(journal_path());
  const CheckpointLoadResult clean = load_checkpoint(dir_);
  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_EQ(clean.records.size(), 3u);
  const std::string_view kSignificant = "0123456789abcdefx \n";
  std::size_t refused = 0, truncated = 0, unchanged = 0;
  for (std::size_t at = 0; at < journal.size(); ++at) {
    std::vector<char> values(kSignificant.begin(), kSignificant.end());
    for (int bit = 0; bit < 8; ++bit) {
      values.push_back(static_cast<char>(journal[at] ^ (1 << bit)));
    }
    for (const char v : values) {
      if (v == journal[at]) continue;
      std::string bytes = journal;
      bytes[at] = v;
      write_file(journal_path(), bytes);
      const CheckpointLoadResult loaded = load_checkpoint(dir_);
      if (!loaded.ok) {
        ASSERT_EQ(loaded.error.rfind("journal record ", 0), 0u)
            << loaded.error;
        ++refused;
        continue;
      }
      ASSERT_LE(loaded.records.size(), 3u);
      for (std::size_t k = 0; k < loaded.records.size(); ++k) {
        expect_same_record(loaded.records[k], loaded.scenario_digest,
                           clean.records[k], clean.scenario_digest,
                           "byte " + std::to_string(at) + " set to " +
                               std::to_string(static_cast<int>(v)));
      }
      if (HasFailure()) return;
      if (loaded.records.size() < 3) {
        ASSERT_TRUE(loaded.truncated_tail)
            << "byte " << at << " set to " << static_cast<int>(v);
        ++truncated;
      } else {
        ++unchanged;
      }
    }
  }
  EXPECT_GT(refused, 0u);
  RecordProperty("refused", static_cast<int>(refused));
  RecordProperty("truncated", static_cast<int>(truncated));
  RecordProperty("unchanged", static_cast<int>(unchanged));
}

TEST_F(CheckpointTest, ShardedResumeOverV1JournalsKeepsDigests) {
  // A sharded root whose only shard holds the version-1 fixture in its
  // try_1: scan_shard, a coordinator resume and the cold merge all refuse
  // it, naming the cause, and none of them touches the root.
  // The fixture's scenario: the manifest's last member, up to its final
  // closing brace.
  const std::string manifest =
      read_file((kFixtureDir / kCheckpointManifestFile).string());
  const std::size_t at = manifest.find("\"scenario\":") + 11;
  const ScenarioParseResult fixture = scenario_from_json(
      std::string_view(manifest).substr(at, manifest.rfind('}') - at));
  ASSERT_TRUE(fixture.ok) << fixture.error;
  ShardSpec spec;
  spec.worker_threads = 1;
  spec.points = {fixture.scenario};
  spec.shards = make_shard_plan({fixture.scenario.trials}, 1);
  ASSERT_EQ(spec.shards.size(), 1u);
  const std::string root = dir_ + "/root";
  ASSERT_EQ(write_shard_spec(root, spec), "");
  copy_fixture(shard_attempt_dir(root, 0, 1));
  const auto before = snapshot_tree(root);
  const std::string want = std::string("shard 0: ") + kPredatesV2;

  const ShardScan scan = scan_shard(root, spec, 0);
  EXPECT_EQ(scan.state, ShardScanState::kCorrupt);
  EXPECT_EQ(scan.error, want);

  CoordinatorOptions opt;
  opt.root = root;
  opt.resume = true;
  opt.worker_argv = [](std::size_t) {
    return std::vector<std::string>{"/bin/false"};  // never reached
  };
  const CoordinatorResult res = run_shard_coordinator(spec, opt);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error, want);

  const ShardMergeResult merged = merge_shard_journals(root, spec);
  EXPECT_FALSE(merged.ok);
  EXPECT_NE(merged.error.find(kPredatesV2), std::string::npos)
      << merged.error;
  EXPECT_EQ(snapshot_tree(root), before);
}

TEST_F(CheckpointTest, UnknownStatusIsCorruption) {
  make_checkpoint({});
  const std::uint64_t dig = scenario_digest(test_scenario());
  std::vector<std::string> fields =
      v2_fields(journal_record_payload(test_record(1), dig));
  fields[1] = "bogus";
  write_framed({journal_record_payload(test_record(0), dig),
                join_fields(fields)});
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("journal record 1: bad status field"),
            std::string::npos)
      << loaded.error;
}

/// Field-wise equality with doubles compared by bit pattern.
void expect_same_record(const CheckpointRecord& a, std::uint64_t a_dig,
                        const CheckpointRecord& b, std::uint64_t b_dig,
                        const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.trial, b.trial);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a_dig, b_dig);
  const TrialOutcome& x = a.outcome;
  const TrialOutcome& y = b.outcome;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x.max_cost),
            std::bit_cast<std::uint64_t>(y.max_cost));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x.mean_cost),
            std::bit_cast<std::uint64_t>(y.mean_cost));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x.adversary_cost),
            std::bit_cast<std::uint64_t>(y.adversary_cost));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x.latency),
            std::bit_cast<std::uint64_t>(y.latency));
  EXPECT_EQ(x.success, y.success);
  EXPECT_EQ(x.aborted, y.aborted);
  EXPECT_EQ(x.dead_count, y.dead_count);
  EXPECT_EQ(x.crashed_count, y.crashed_count);
  EXPECT_EQ(x.digest, y.digest);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x.alice_cost),
            std::bit_cast<std::uint64_t>(y.alice_cost));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x.bob_cost),
            std::bit_cast<std::uint64_t>(y.bob_cost));
}

/// A finite double from a random bit pattern (subnormals and signed zeros
/// included).
double random_finite(std::mt19937_64& rng) {
  for (;;) {
    const double d = std::bit_cast<double>(rng());
    if (std::isfinite(d)) return d;
  }
}

/// A random record.
CheckpointRecord random_record(std::mt19937_64& rng) {
  static const TrialStatus kStatuses[] = {
      TrialStatus::kOk, TrialStatus::kTimedOut, TrialStatus::kFailed};
  CheckpointRecord rec;
  rec.trial = rng() % (kMaxExactJsonInt + 1);
  rec.status = kStatuses[rng() % 3];
  rec.attempts = 1 + static_cast<std::uint32_t>(rng() % UINT32_MAX);
  TrialOutcome& o = rec.outcome;
  const bool small = rng() % 2 == 0;  // typical costs vs raw bit patterns
  o.max_cost = small ? static_cast<double>(rng() % 100000) : random_finite(rng);
  o.mean_cost = small ? static_cast<double>(rng() % 100000) / 8.0
                      : random_finite(rng);
  o.adversary_cost = small ? 0.1 * static_cast<double>(rng() % 1000)
                           : random_finite(rng);
  o.latency = random_finite(rng);
  o.success = rng() % 2 == 0;
  o.aborted = rng() % 2 == 0;
  o.dead_count = rng() % 3 == 0 ? kMaxExactJsonInt : rng() % 64;
  o.crashed_count = rng() % 64;
  o.digest = rng();
  o.alice_cost = small ? static_cast<double>(rng() % 100000)
                       : random_finite(rng);
  o.bob_cost = rng() % 2 == 0 ? static_cast<double>(rng() % 100000) / 2.0
                              : random_finite(rng);
  return rec;
}

// ---------------------------------------------------------------------------
// The record codec: fields by position, doubles as decimal counts or bit
// patterns; one writer, one strict reader.

/// Doubles at the edges of the two double forms.
const double kEdgeDoubles[] = {
    0.0,
    -0.0,
    1.0,
    0.5,
    -1.0,
    0.1,
    4096.5,
    1e17,
    0x1p53 - 1,  // the largest decimal one
    0x1p53,
    0x1p53 + 2,
    std::numeric_limits<double>::denorm_min(),
    std::numeric_limits<double>::max(),
    std::numeric_limits<double>::lowest(),
};

/// Field positions of the doubles: max_cost, mean_cost, adversary_cost,
/// latency, alice_cost, bob_cost.
constexpr std::size_t kV2DoubleFields[] = {4, 5, 6, 7, 13, 14};

TEST(JournalCodecTest, V2RecordsRoundTripBitExactly) {
  std::mt19937_64 rng(1202186);
  for (int i = 0; i < 20000; ++i) {
    CheckpointRecord rec = random_record(rng);
    if (i % 4 == 0) {
      TrialOutcome& o = rec.outcome;
      for (double* f : {&o.max_cost, &o.mean_cost, &o.adversary_cost,
                        &o.latency, &o.alice_cost, &o.bob_cost}) {
        *f = kEdgeDoubles[rng() % std::size(kEdgeDoubles)];
      }
    }
    const std::uint64_t dig = rng();
    const std::string payload =
        journal_record_payload(rec, dig);
    ASSERT_EQ(v2_fields(payload).size(), 15u) << payload;
    CheckpointRecord got;
    std::uint64_t got_dig = 0;
    ASSERT_EQ(parse_journal_record_payload(payload, got, got_dig), "")
        << payload;
    expect_same_record(got, got_dig, rec, dig, payload);
    EXPECT_EQ(journal_record_payload(got, got_dig),
              payload);
    if (HasFailure()) return;
  }
}

TEST(JournalCodecTest, V2DoublesHaveExactlyOneForm) {
  const auto with_max_cost = [](double d) {
    CheckpointRecord rec;
    rec.outcome.max_cost = d;
    return journal_record_payload(rec, 0x0123456789abcdefull);
  };
  const auto max_cost_field = [&](double d) {
    return v2_fields(with_max_cost(d))[4];
  };
  EXPECT_EQ(max_cost_field(0.0), "0");
  EXPECT_EQ(max_cost_field(-0.0), "x8000000000000000");
  EXPECT_EQ(max_cost_field(1234.0), "1234");
  EXPECT_EQ(max_cost_field(0x1p53 - 1), "9007199254740991");
  EXPECT_EQ(max_cost_field(0x1p53), "x4340000000000000");
  EXPECT_EQ(max_cost_field(0x1p53 + 2), "x4340000000000001");
  EXPECT_EQ(max_cost_field(std::numeric_limits<double>::denorm_min()),
            "x0000000000000001");
  EXPECT_EQ(max_cost_field(std::numeric_limits<double>::max()),
            "x7fefffffffffffff");
  EXPECT_EQ(max_cost_field(0.5), "x3fe0000000000000");
  EXPECT_EQ(max_cost_field(-1.0), "xbff0000000000000");

  // Every other spelling of a value is refused, and so is every
  // non-finite value.
  std::vector<std::string> fields = v2_fields(with_max_cost(1.0));
  for (const char* spelling :
       {"x0000000000000000", "x3ff0000000000000", "9007199254740992", "00",
        "01", "+1", "-0", "-1", "1.0", "1e0", " 1", "x3FE0000000000000",
        "X3fe0000000000000", "x3fe000000000000", "x3fe00000000000000",
        "x7ff0000000000000", "xfff0000000000000", "x7ff8000000000000", "",
        "x", "null"}) {
    fields[4] = spelling;
    CheckpointRecord got;
    std::uint64_t dig = 0;
    EXPECT_NE(parse_journal_record_payload(join_fields(fields), got, dig), "")
        << "max_cost spelled \"" << spelling << "\"";
  }
}

TEST(JournalCodecTest, V2DuelFramesFitIn128Bytes) {
  // Fig. 1 trials with no adversary at both eps points of the perfbench
  // duel_sharded workload, at trial indices of its size: each framed record
  // is at most 128 bytes.
  for (const double eps : {0.1, 0.01}) {
    Scenario s;
    s.protocol = "one_to_one";
    s.eps = eps;
    s.trials = 50000;
    std::size_t v2_bytes = 0;
    for (std::uint64_t t = 49000; t < 50000; ++t) {
      CheckpointRecord rec;
      rec.trial = t;
      rec.outcome = run_scenario_trial(s, t);
      std::string v2;
      append_journal_frames(v2, {&rec, 1}, scenario_digest(s));
      ASSERT_LE(v2.size(), 128u) << v2;
      v2_bytes += v2.size();
    }
    RecordProperty(eps == 0.1 ? "v2_bytes_per_1000_eps_0.1"
                              : "v2_bytes_per_1000_eps_0.01",
                   static_cast<int>(v2_bytes));
  }
}

/// The lenient reading of a version-2 payload: fields split at any run of
/// whitespace, numbers as strtoull/strtod read them (signs, leading zeros,
/// fractions, exponents, hex digits in either case, 'x' forms of any
/// double), statuses and flags as any spelling of their value.  Every
/// payload the writer produces reads the same here, and much that it does
/// not produce reads too.
std::string lenient_parse_v2(std::string_view payload, CheckpointRecord& rec,
                             std::uint64_t& scenario_digest) {
  std::vector<std::string> f;
  std::string cur;
  for (const char c : std::string(payload) + " ") {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      if (!cur.empty()) f.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (f.size() != 15) return "want 15 fields";
  const auto whole = [](const std::string& t, int base, std::uint64_t& out) {
    if (t.empty()) return false;
    errno = 0;
    char* end = nullptr;
    out = std::strtoull(t.c_str(), &end, base);
    return errno == 0 && end == t.c_str() + t.size();
  };
  const auto count = [&](const std::string& t, std::uint64_t& out) {
    return whole(t, 10, out) && out <= kMaxExactJsonInt;
  };
  const auto dbl = [&](const std::string& t, double& out) {
    if (t[0] == 'x' || t[0] == 'X') {
      std::uint64_t bits = 0;
      if (!whole(t.substr(1), 16, bits)) return false;
      out = std::bit_cast<double>(bits);
    } else {
      char* end = nullptr;
      out = std::strtod(t.c_str(), &end);
      if (end != t.c_str() + t.size()) return false;
    }
    return std::isfinite(out);
  };
  const auto flag = [&](const std::string& t, bool& out) {
    std::uint64_t v = 0;
    if (!count(t, v) || v > 1) return false;
    out = v == 1;
    return true;
  };
  TrialOutcome& o = rec.outcome;
  std::string status = f[1];
  for (char& c : status) c = static_cast<char>(std::tolower(c));
  if (!status_from_name(status, rec.status)) return "bad status";
  std::uint64_t attempts = 0;
  if (!count(f[0], rec.trial) || !count(f[2], attempts) || attempts == 0 ||
      attempts > UINT32_MAX || !whole(f[3], 16, scenario_digest) ||
      !dbl(f[4], o.max_cost) || !dbl(f[5], o.mean_cost) ||
      !dbl(f[6], o.adversary_cost) || !dbl(f[7], o.latency) ||
      !flag(f[8], o.success) || !flag(f[9], o.aborted) ||
      !count(f[10], o.dead_count) || !count(f[11], o.crashed_count) ||
      !whole(f[12], 16, o.digest) || !dbl(f[13], o.alice_cost) ||
      !dbl(f[14], o.bob_cost)) {
    return "bad field";
  }
  rec.attempts = static_cast<std::uint32_t>(attempts);
  return "";
}

/// One mutation of a canonical version-2 payload.  Many keep it readable
/// to lenient_parse_v2 on purpose (whitespace, leading zeros, signs,
/// fractions, the other form of a double, upper-case hex), so the oracle
/// exercises the boundary between what the lenient reading accepts and
/// what the strict reader refuses.
std::string mutate_v2(const std::string& p, std::mt19937_64& rng) {
  static const std::string kBytes = "0123456789abcdefABCDEFx .-+e\t\n";
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::string m = p;
  std::vector<std::string> f = v2_fields(p);
  std::string& field = f[pick(f.size())];
  switch (rng() % 8) {
    case 0:  // flip one byte to an arbitrary value
      m[pick(m.size())] = static_cast<char>(rng() & 0xff);
      return m;
    case 1:  // replace one byte with a significant one
      m[pick(m.size())] = kBytes[pick(kBytes.size())];
      return m;
    case 2: {  // insert whitespace
      static const char kSpace[] = {' ', '\t', '\n', '\r'};
      m.insert(pick(m.size() + 1), 1, kSpace[pick(4)]);
      return m;
    }
    case 3: {  // swap two adjacent fields
      const std::size_t i = pick(f.size() - 1);
      std::swap(f[i], f[i + 1]);
      break;
    }
    case 4:  // shorten a field from its end
      field.erase(field.size() - 1 - pick(field.size()));
      break;
    case 5: {  // respell a number: same value or not, still a number
      static const char* const kSuffixes[] = {".0", "e0", ".5", "0"};
      static const char* const kPrefixes[] = {"0", "+", "-", "00"};
      if (rng() % 2 == 0) {
        field += kSuffixes[pick(4)];
      } else {
        field.insert(0, kPrefixes[pick(4)]);
      }
      break;
    }
    case 6: {  // the other form of a double, or upper-case hex digits
      std::string& d = f[kV2DoubleFields[pick(std::size(kV2DoubleFields))]];
      if (d[0] != 'x') {
        d = "x" + to_hex16(std::bit_cast<std::uint64_t>(
                      static_cast<double>(std::stoull(d))));
      } else if (rng() % 2 == 0) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::bit_cast<double>(std::stoull(d.substr(1), nullptr,
                                                        16)));
        d = buf;
      } else {
        for (char& c : d) c = static_cast<char>(std::toupper(c));
      }
      break;
    }
    default:  // duplicate a field, or chop the tail
      if (rng() % 2 == 0) {
        f.insert(f.begin() + static_cast<std::ptrdiff_t>(pick(f.size())),
                 f[pick(f.size())]);
      } else {
        m.resize(pick(m.size()));
        return m;
      }
  }
  return join_fields(f);
}

/// The strict reader's side of the oracle: when it accepts `m`, the lenient
/// reading accepts it too with the same values, and the writer would have
/// written exactly `m`.  Returns whether the strict reader accepted.
bool check_v2_mutant(const std::string& m, bool& lenient_ok) {
  CheckpointRecord strict, lenient;
  std::uint64_t strict_dig = 0, lenient_dig = 0;
  const bool strict_ok =
      parse_journal_record_payload(m, strict, strict_dig).empty();
  lenient_ok = lenient_parse_v2(m, lenient, lenient_dig).empty();
  if (!strict_ok) return false;
  EXPECT_TRUE(lenient_ok) << "strict reader accepted what the lenient "
                             "reading refuses: "
                          << m;
  if (lenient_ok) expect_same_record(strict, strict_dig, lenient, lenient_dig, m);
  EXPECT_EQ(journal_record_payload(strict, strict_dig), m)
      << "strict reader accepted a form the writer does not produce";
  return true;
}

TEST(JournalCodecTest, V2StrictReaderAcceptsOnlyTheWritersImage) {
  std::mt19937_64 rng(2014);
  std::size_t strict_accepted = 0, lenient_accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    CheckpointRecord rec = random_record(rng);
    if (i % 4 == 0) {
      rec.outcome.mean_cost = kEdgeDoubles[rng() % std::size(kEdgeDoubles)];
    }
    const std::string canonical =
        journal_record_payload(rec, rng());
    const std::string m = mutate_v2(canonical, rng);
    bool lenient_ok = false;
    const bool strict_ok = check_v2_mutant(m, lenient_ok);
    strict_accepted += strict_ok;
    lenient_accepted += lenient_ok;
    if (m == canonical) {
      EXPECT_TRUE(strict_ok) << m;
    }
    if (HasFailure()) return;
  }
  // The mutations reach both sides of the boundary: some survive both
  // readers, and the lenient reading accepts text the strict reader
  // refuses.
  EXPECT_GT(strict_accepted, 0u);
  EXPECT_GT(lenient_accepted, strict_accepted);
  RecordProperty("strict_accepted", static_cast<int>(strict_accepted));
  RecordProperty("lenient_accepted", static_cast<int>(lenient_accepted));
}

TEST_F(CheckpointTest, V2ReframedMutantsLoadOnlyAsTheWritersImage) {
  // The same oracle end to end through load_checkpoint: every mutant is
  // re-framed with a correct FNV digest, so only the record decoder can
  // refuse it.
  make_checkpoint({});
  const std::uint64_t dig = scenario_digest(test_scenario());
  std::mt19937_64 rng(5353);
  for (int i = 0; i < 2000; ++i) {
    const CheckpointRecord rec = test_record(rng() % 8);
    const std::string m =
        mutate_v2(journal_record_payload(rec, dig), rng);
    if (m.find('\n') != std::string::npos) continue;  // not a frame payload
    write_framed({m});
    const CheckpointLoadResult loaded = load_checkpoint(dir_);
    bool lenient_ok = false;
    const bool strict_ok = check_v2_mutant(m, lenient_ok);
    if (!loaded.ok) {
      EXPECT_EQ(loaded.error.rfind("journal record 0: ", 0), 0u)
          << loaded.error;
      continue;
    }
    ASSERT_TRUE(strict_ok) << m;
    ASSERT_EQ(loaded.records.size(), 1u);
    EXPECT_EQ(journal_record_payload(loaded.records[0], dig), m);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace rcb
