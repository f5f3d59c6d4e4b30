// Crash-safe checkpoint journal for Monte-Carlo sweeps.
//
// A checkpoint directory holds two files:
//
//   manifest.json   {"rcb_checkpoint":2,"scenario_digest":"<hex16>",
//                    "journal":"journal.rcbj","scenario":{...}}
//   journal.rcbj    one framed record per completed trial, appended in
//                   batches as trials finish (any order; records carry
//                   their index)
//
// The manifest is written atomically (temp file + fsync + rename), so a
// reader either sees the complete manifest or none.  Journal records are
// frames of runtime/frame.hpp, the codec the control plane shares (digest
// over the payload bytes, length at most kMaxFramePayload = 64 KiB):
//
//   RCBJ <payload-bytes> <fnv1a-hex16> <payload>\n
//
// A process killed mid-append leaves at most one partial frame at the
// tail, which the frame reader calls need-more; the loader reports a
// truncated tail and resumes from the last good record (the writer
// truncates the partial tail before appending).  A flipped byte inside a
// *complete* frame, a length past the cap, a newline before a frame's
// declared end, a duplicate trial index, or a record whose scenario_digest
// does not match the manifest are corruption, not truncation: the loader
// refuses them, because silently resuming against the wrong data would
// fabricate experiment results.
//
// The sweep supervisor's trial tasks append their own records, one
// write+flush per batch of at most 64 records or 1 ms of trials, so a kill
// loses at most that much per task; a point reports ok only after its
// journal is fsynced (supervisor.hpp, "Durability").
//
// The manifest's "rcb_checkpoint" is 2, the only record layout: the
// loader refuses any other value, so a checkpoint written with the older
// JSON-per-record layout (version 1) is refused with "checkpoint predates
// journal v2; re-run the sweep" before its journal is read.  The layout
// has one encoder (append_journal_frames; journal_record_payload gives one
// record's payload) and one strict reader (parse_journal_record_payload).
// A record is fifteen fields separated by single spaces, no key names:
//
//   <trial> ok|timed_out|failed <attempts> <scenario_digest> <max_cost>
//   <mean_cost> <adversary_cost> <latency> <success> <aborted>
//   <dead_count> <crashed_count> <digest> <alice_cost> <bob_cost>
//
// Counts (trial, attempts, dead_count, crashed_count) are canonical
// decimal no larger than 2^53; success and aborted are 0 or 1; u64
// digests are 16 lowercase hex digits.  A double that is an integer in
// [0, 2^53) and not -0.0 is its decimal count; every other finite double
// is 'x' followed by the 16 hex digits of its bit pattern.  A non-finite
// double is written as its bits too, and refused by the reader.
//
// The layout round-trips every record bit for bit, so an aggregate
// recomputed from the journal is bit-identical to the uninterrupted run —
// the property the supervisor's kill/resume tests pin.  The reader
// accepts nothing but the layout: a payload that the writer would not
// have produced (reordered fields, extra whitespace, a leading zero, an
// unknown status, an 'x' form for a double that has a decimal one) is
// corruption, refused like a flipped byte, never repaired.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rcb/runtime/scenario.hpp"

namespace rcb {

/// Writes `content` to `path` atomically: temp file in the same directory,
/// fsync, rename over the final name, fsync the directory.  A crash leaves
/// either the old file or the new one, never a torn write (a crash between
/// the temp write and the rename can leave a stale "<path>.tmp", which the
/// checkpoint recovery path removes).  Returns "" or an error description.
std::string write_file_atomic(const std::string& path,
                              std::string_view content);

/// Test-only fault injection for journal/manifest writes.  When set, the
/// hook is consulted before every CheckpointWriter write with the byte
/// count about to be written; returning a nonzero errno (e.g. ENOSPC)
/// fails that write exactly as the OS would — the bytes are not written
/// and the writer reports the errno's message.  Thread-safe; pass nullptr
/// to disarm.  Lets tests prove that a full disk taints the sweep instead
/// of silently dropping records.  No program calls it: it stays as the
/// disk-full hook of checkpoint_test and supervisor_test.
using WriteFaultHook = std::function<int(std::size_t bytes)>;
void set_checkpoint_write_fault(WriteFaultHook hook);

/// How the supervisor got a trial's outcome.
enum class TrialStatus : std::uint8_t {
  kOk,        ///< the trial runner returned it
  kTimedOut,  ///< watchdog or slot-budget quarantine (synthetic outcome)
  kFailed,    ///< exhausted the retry budget (synthetic outcome)
};

/// The status as journals spell it: "ok", "timed_out" or "failed".
std::string_view trial_status_name(TrialStatus status);

/// One journaled trial: the outcome plus how the supervisor got it.
struct CheckpointRecord {
  std::uint64_t trial = 0;
  TrialStatus status = TrialStatus::kOk;
  std::uint32_t attempts = 1;  ///< 1 = first attempt succeeded
  TrialOutcome outcome;
};

struct CheckpointLoadResult {
  bool ok = false;
  std::string error;
  Scenario scenario;                   ///< from the manifest
  std::uint64_t scenario_digest = 0;   ///< digest of the manifest scenario
  std::vector<CheckpointRecord> records;  ///< journal order
  /// True when the journal ended in a partial frame (killed mid-append).
  /// Recoverable: `records` holds everything up to the last good frame and
  /// journal_valid_bytes is where a resuming writer must truncate to.
  bool truncated_tail = false;
  std::uint64_t journal_valid_bytes = 0;
};

/// Appends `recs` to `out` as consecutive RCBJ frames around their
/// payloads (the layout above), stamped with `scenario_digest`.  The bytes
/// do not depend on how records are grouped into calls.
void append_journal_frames(std::string& out,
                           std::span<const CheckpointRecord> recs,
                           std::uint64_t scenario_digest);

/// The payload of one record, unframed (tests and benchmarks).
std::string journal_record_payload(const CheckpointRecord& rec,
                                   std::uint64_t scenario_digest);

/// Decodes a payload into `rec` and the stamped `scenario_digest`, in one
/// pass.  Returns "" or a description of the first deviation from the
/// layout (with its byte offset).
std::string parse_journal_record_payload(std::string_view payload,
                                         CheckpointRecord& rec,
                                         std::uint64_t& scenario_digest);

/// Reads and verifies a checkpoint directory.  ok=false means the
/// checkpoint is unusable (missing/corrupt manifest, a version-1
/// manifest, corrupt record, duplicate trial, scenario-digest mismatch); a
/// truncated tail alone is reported but still ok.
CheckpointLoadResult load_checkpoint(const std::string& dir);

/// Appends framed trial records to a checkpoint journal.  Not thread-safe;
/// the supervisor serialises appends.  Each append is one write flushed to
/// the OS (surviving process death); sync() additionally fsyncs (surviving
/// power loss) and is called by the supervisor when a point finishes.
class CheckpointWriter {
 public:
  CheckpointWriter() = default;
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Starts a fresh checkpoint: creates `dir` (and parents),
  /// writes the manifest atomically, and truncates the journal.  Returns
  /// "" or an error description.
  std::string create(const std::string& dir, const Scenario& s);

  /// Resumes the checkpoint in `dir` that load_checkpoint read as
  /// `loaded`: truncates the journal to loaded.journal_valid_bytes
  /// (dropping a partial tail) and opens it for append.  Records appended
  /// here are stamped with loaded.scenario_digest.
  std::string open_for_append(const std::string& dir,
                              const CheckpointLoadResult& loaded);

  /// Appends `recs` to `out` as this journal's frames (stamped with its
  /// scenario digest), ready for append_frames.
  void encode_frames(std::string& out,
                     std::span<const CheckpointRecord> recs) const;

  /// Appends `frames` (encode_frames output) with one fwrite+fflush.
  /// After an error a prefix of the bytes may be on disk: whole frames,
  /// then at most one partial frame that the loader reads as a truncated
  /// tail.
  std::string append_frames(std::string_view frames);

  /// Encodes `recs` and appends them with one append_frames.
  std::string append_batch(const std::vector<CheckpointRecord>& recs);

  /// fsyncs the journal file.
  std::string sync();

  void close();
  bool active() const { return file_ != nullptr; }

 private:
  std::uint64_t scenario_digest_ = 0;
  std::FILE* file_ = nullptr;
};

/// Journal file name inside a checkpoint directory (exposed for tests and
/// the chaos harness, which watches it grow before killing the process).
extern const char kCheckpointJournalFile[];
extern const char kCheckpointManifestFile[];

}  // namespace rcb
