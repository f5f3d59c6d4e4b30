// Tests for the crash-safe checkpoint journal (runtime/checkpoint.hpp):
// round-trip fidelity, the truncation-vs-corruption decision tree, and
// resume-after-truncation.
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
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "rcb/cli/json_parse.hpp"
#include "rcb/common/mathutil.hpp"
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
  return o;
}

CheckpointRecord test_record(std::uint64_t trial) {
  CheckpointRecord rec;
  rec.trial = trial;
  rec.status = trial == 3 ? "timed_out" : "ok";
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
  ASSERT_EQ(writer.open_for_append(dir_, loaded.scenario_digest,
                                   loaded.journal_valid_bytes),
            "");
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

TEST_F(CheckpointTest, WriterIsMovable) {
  CheckpointWriter a;
  ASSERT_EQ(a.create(dir_, test_scenario()), "");
  CheckpointWriter b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): tested
  ASSERT_TRUE(b.active());
  ASSERT_EQ(b.append_batch({test_record(0)}), "");
  b.close();
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_EQ(loaded.records.size(), 1u);
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
  ASSERT_EQ(writer.open_for_append(dir_, loaded.scenario_digest,
                                   loaded.journal_valid_bytes),
            "");
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
  append_journal_frames(frames, {&rec, 1}, writer.digest());
  err = writer.append_frames(frames);
  EXPECT_NE(err.find("not open"), std::string::npos) << err;
  err = writer.sync();
  EXPECT_NE(err.find("not open"), std::string::npos) << err;
  EXPECT_FALSE(fs::exists(journal_path()));
}

// ---------------------------------------------------------------------------
// The record codec: one canonical layout, one writer, one strict reader.

/// A checkpoint written by the journal writer that preceded the string-sink
/// JsonWriter (ostringstream + snprintf("%.17g")): 20 records in completion
/// order over a 24-trial broadcast scenario with faults, including
/// synthetic timed_out/failed outcomes, a retried trial and one record of
/// edge doubles (DBL_MAX, the smallest subnormal, 1e17) and a 2^53 count.
const fs::path kFixtureDir = fs::path(RCB_CORPUS_DIR) / "journal_v1";

TEST_F(CheckpointTest, FixtureJournalReEncodesByteIdentically) {
  const CheckpointLoadResult fixture = load_checkpoint(kFixtureDir.string());
  ASSERT_TRUE(fixture.ok) << fixture.error;
  EXPECT_FALSE(fixture.truncated_tail);
  ASSERT_EQ(fixture.records.size(), 20u);

  CheckpointWriter writer;
  ASSERT_EQ(writer.create(dir_, fixture.scenario), "");
  ASSERT_EQ(writer.append_batch(fixture.records), "");
  writer.close();
  EXPECT_EQ(read_file(manifest_path()),
            read_file((kFixtureDir / kCheckpointManifestFile).string()));
  EXPECT_EQ(read_file(journal_path()),
            read_file((kFixtureDir / kCheckpointJournalFile).string()));
}

TEST_F(CheckpointTest, FixtureCheckpointResumes) {
  fs::create_directories(dir_);
  for (const char* f : {kCheckpointManifestFile, kCheckpointJournalFile}) {
    fs::copy_file(kFixtureDir / f, fs::path(dir_) / f);
  }
  const std::string before = read_file(journal_path());
  SupervisorOptions opt;
  opt.checkpoint_dir = dir_;
  opt.resume = true;
  ThreadPool pool(2);
  const SweepResult sweep = run_supervised_sweep(Scenario{}, opt, pool);
  ASSERT_TRUE(sweep.ok) << sweep.error;
  EXPECT_EQ(sweep.resumed, 20u);
  EXPECT_EQ(sweep.executed, 4u);
  EXPECT_EQ(sweep.timed_out, 2u);
  EXPECT_EQ(sweep.failed_trials, 2u);
  ASSERT_EQ(sweep.records.size(), 24u);
  for (const std::uint64_t t : {18, 19, 20, 22}) {
    EXPECT_EQ(sweep.records[t].outcome.digest,
              run_scenario_trial(sweep.scenario, t).digest);
  }
  // The resumed run appends; the journaled prefix stays untouched.
  EXPECT_EQ(read_file(journal_path()).substr(0, before.size()), before);
}

TEST_F(CheckpointTest, UnknownStatusIsCorruption) {
  make_checkpoint({});
  CheckpointRecord rec = test_record(1);
  rec.status = "bogus";
  write_framed({journal_record_payload(test_record(0),
                                       scenario_digest(test_scenario())),
                journal_record_payload(rec, scenario_digest(test_scenario()))});
  const CheckpointLoadResult loaded = load_checkpoint(dir_);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("journal record 1: bad status field"),
            std::string::npos)
      << loaded.error;
}

/// The generic-JSON decode the strict reader replaced: any valid JSON
/// object with the right member types is accepted, whatever its key order,
/// spacing, number spelling or status.  Kept as the oracle's reference.
std::string dom_parse_payload(std::string_view payload, CheckpointRecord& rec,
                              std::uint64_t& rec_scenario_digest) {
  const JsonParseResult parsed = json_parse(payload);
  if (!parsed.ok) return "payload is not valid JSON: " + parsed.error;
  if (!parsed.value.is_object()) return "payload is not a JSON object";
  const JsonValue& v = parsed.value;
  auto exact = [](const JsonValue* f, std::uint64_t& out) {
    return f != nullptr && f->is_number() &&
           json_exact_u64(f->as_number(), out);
  };
  if (!exact(v.find("trial"), rec.trial)) return "bad trial field";
  const JsonValue* status = v.find("status");
  if (status == nullptr || !status->is_string()) return "bad status field";
  rec.status = status->as_string();
  std::uint64_t attempts = 0;
  if (!exact(v.find("attempts"), attempts) || attempts == 0 ||
      attempts > UINT32_MAX) {
    return "bad attempts field";
  }
  rec.attempts = static_cast<std::uint32_t>(attempts);
  const JsonValue* sd = v.find("scenario_digest");
  if (sd == nullptr || !sd->is_string() ||
      !parse_hex_u64(sd->as_string(), rec_scenario_digest)) {
    return "bad scenario_digest field";
  }
  const JsonValue* ov = v.find("outcome");
  if (ov == nullptr || !ov->is_object()) return "bad outcome field";
  TrialOutcome& o = rec.outcome;
  auto num = [&](const char* key, double& out) {
    const JsonValue* f = ov->find(key);
    if (f == nullptr || !f->is_number()) return false;
    out = f->as_number();
    return true;
  };
  auto flag = [&](const char* key, bool& out) {
    const JsonValue* f = ov->find(key);
    if (f == nullptr || !f->is_bool()) return false;
    out = f->as_bool();
    return true;
  };
  if (!num("max_cost", o.max_cost) || !num("mean_cost", o.mean_cost) ||
      !num("adversary_cost", o.adversary_cost) || !num("latency", o.latency)) {
    return "bad outcome numeric field";
  }
  if (!flag("success", o.success) || !flag("aborted", o.aborted)) {
    return "bad outcome flag field";
  }
  if (!exact(ov->find("dead_count"), o.dead_count) ||
      !exact(ov->find("crashed_count"), o.crashed_count)) {
    return "bad outcome count field";
  }
  const JsonValue* dig = ov->find("digest");
  if (dig == nullptr || !dig->is_string() ||
      !parse_hex_u64(dig->as_string(), o.digest)) {
    return "bad outcome digest field";
  }
  return "";
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
}

/// A finite double from a random bit pattern (subnormals and signed zeros
/// included).
double random_finite(std::mt19937_64& rng) {
  for (;;) {
    const double d = std::bit_cast<double>(rng());
    if (std::isfinite(d)) return d;
  }
}

CheckpointRecord random_record(std::mt19937_64& rng) {
  static const char* const kStatuses[] = {"ok", "timed_out", "failed"};
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
  return rec;
}

/// One mutation of a canonical payload.  Several keep the document valid
/// JSON on purpose (whitespace, key order, number spelling, escapes), so
/// the oracle exercises the boundary between what the reference accepts
/// and what the strict reader refuses.
std::string mutate(const std::string& p, std::mt19937_64& rng) {
  static const std::string kBytes = "0123456789.eE+-\" ,:{}[] \t\nabcdefu";
  std::string m = p;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  // Positions where a number token starts (after ':' and not a quote).
  std::vector<std::size_t> numbers;
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    if (p[i] == ':' && p[i + 1] != '"' && p[i + 1] != '{') {
      numbers.push_back(i + 1);
    }
  }
  const auto number_end = [&](std::size_t at) {
    while (at < m.size() && m[at] != ',' && m[at] != '}') ++at;
    return at;
  };
  switch (rng() % 9) {
    case 0:  // flip one byte to an arbitrary value
      m[pick(m.size())] = static_cast<char>(rng() & 0xff);
      break;
    case 1:  // replace one byte with a JSON-significant one
      m[pick(m.size())] = kBytes[pick(kBytes.size())];
      break;
    case 2: {  // insert whitespace
      static const char kSpace[] = {' ', '\t', '\n', '\r'};
      m.insert(pick(m.size() + 1), 1, kSpace[pick(4)]);
      break;
    }
    case 3: {  // swap two adjacent members (top level or inside outcome)
      std::vector<std::size_t> commas;
      for (std::size_t i = 0; i < m.size(); ++i) {
        if (m[i] == ',' && m[i + 1] == '"') commas.push_back(i);
      }
      const std::size_t c = commas[pick(commas.size())];
      std::size_t begin = m.rfind(',', c - 1);
      const std::size_t brace = m.rfind('{', c - 1);
      if (begin == std::string::npos || brace > begin) begin = brace;
      std::size_t end = c + 1;
      int depth = 0;
      while (end < m.size() &&
             !(depth == 0 && (m[end] == ',' || m[end] == '}'))) {
        if (m[end] == '{') ++depth;
        if (m[end] == '}') --depth;
        ++end;
      }
      const std::string first = m.substr(begin + 1, c - begin - 1);
      const std::string second = m.substr(c + 1, end - c - 1);
      m = m.substr(0, begin + 1) + second + "," + first + m.substr(end);
      break;
    }
    case 4: {  // truncate a number token
      const std::size_t at = numbers[pick(numbers.size())];
      const std::size_t end = number_end(at);
      const std::size_t cut = 1 + pick(end - at);
      m.erase(end - cut, cut);
      break;
    }
    case 5: {  // respell a number: same value or not, still JSON
      static const char* const kSpellings[] = {".0", "e0", "E+00", "0", ".5",
                                               "e-400", "e400", "e-320"};
      const std::size_t at = numbers[pick(numbers.size())];
      m.insert(number_end(at), kSpellings[pick(8)]);
      break;
    }
    case 6: {  // leading zero or sign on a number
      static const char* const kPrefixes[] = {"0", "-", "-0", "00"};
      m.insert(numbers[pick(numbers.size())], kPrefixes[pick(4)]);
      break;
    }
    case 7: {  // escape or upper-case one character inside a string value
      std::vector<std::size_t> quoted;
      for (std::size_t i = 0; i + 1 < m.size(); ++i) {
        if (m[i] == ':' && m[i + 1] == '"') quoted.push_back(i + 2);
      }
      const std::size_t at = quoted[pick(quoted.size())];
      if (rng() % 2 == 0) {
        char esc[7];
        std::snprintf(esc, sizeof esc, "\\u%04x",
                      static_cast<unsigned char>(m[at]));
        m.replace(at, 1, esc);
      } else {
        m[at] = static_cast<char>(std::toupper(static_cast<unsigned char>(m[at])));
      }
      break;
    }
    default:  // duplicate a member, or chop the tail
      if (rng() % 2 == 0) {
        m.insert(1, "\"trial\":0,");
      } else {
        m.resize(pick(m.size()));
      }
  }
  return m;
}

TEST(JournalCodecTest, CanonicalPayloadsDecodeBitExactly) {
  std::mt19937_64 rng(20140623);
  for (int i = 0; i < 20000; ++i) {
    const CheckpointRecord rec = random_record(rng);
    const std::uint64_t dig = rng();
    const std::string payload = journal_record_payload(rec, dig);
    CheckpointRecord got;
    std::uint64_t got_dig = 0;
    ASSERT_EQ(parse_journal_record_payload(payload, got, got_dig), "")
        << payload;
    expect_same_record(got, got_dig, rec, dig, payload);
    if (HasFailure()) return;
  }
}

TEST(JournalCodecTest, StrictDecoderAcceptsOnlyWhatTheReferenceAccepts) {
  std::mt19937_64 rng(1202);
  std::size_t strict_accepted = 0, reference_accepted = 0;
  constexpr int kMutants = 12000;
  for (int i = 0; i < kMutants; ++i) {
    const CheckpointRecord rec = random_record(rng);
    const std::string canonical = journal_record_payload(rec, rng());
    const std::string m = mutate(canonical, rng);
    CheckpointRecord strict, dom;
    std::uint64_t strict_dig = 0, dom_dig = 0;
    const bool strict_ok = parse_journal_record_payload(m, strict, strict_dig).empty();
    const bool dom_ok = dom_parse_payload(m, dom, dom_dig).empty();
    strict_accepted += strict_ok;
    reference_accepted += dom_ok;
    if (m == canonical) {
      EXPECT_TRUE(strict_ok) << m;
    }
    if (!strict_ok) continue;
    ASSERT_TRUE(dom_ok) << "strict decoder accepted what the reference "
                           "refuses: "
                        << m;
    expect_same_record(strict, strict_dig, dom, dom_dig, m);
    if (HasFailure()) return;
  }
  // The mutations must reach both sides of the boundary: some survive
  // both decoders, and the reference accepts non-canonical text the
  // strict decoder refuses.
  EXPECT_GT(strict_accepted, 0u);
  EXPECT_GT(reference_accepted, strict_accepted);
  RecordProperty("strict_accepted", static_cast<int>(strict_accepted));
  RecordProperty("reference_accepted", static_cast<int>(reference_accepted));
}

TEST_F(CheckpointTest, ReframedMutantsLoadOnlyWhenTheReferenceAccepts) {
  // The same oracle end to end through load_checkpoint: every mutant is
  // re-framed with a correct FNV digest, so only the record decoder can
  // refuse it.
  make_checkpoint({});
  const std::uint64_t dig = scenario_digest(test_scenario());
  std::mt19937_64 rng(4242);
  for (int i = 0; i < 2000; ++i) {
    const CheckpointRecord rec = test_record(rng() % 8);
    const std::string m = mutate(journal_record_payload(rec, dig), rng);
    write_framed({m});
    const CheckpointLoadResult loaded = load_checkpoint(dir_);
    CheckpointRecord dom;
    std::uint64_t dom_dig = 0;
    const bool dom_ok = dom_parse_payload(m, dom, dom_dig).empty();
    if (!loaded.ok) {
      EXPECT_EQ(loaded.error.rfind("journal record 0: ", 0), 0u)
          << loaded.error;
      continue;
    }
    ASSERT_TRUE(dom_ok) << m;
    ASSERT_EQ(loaded.records.size(), 1u);
    expect_same_record(loaded.records[0], dig, dom, dom_dig, m);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace rcb
