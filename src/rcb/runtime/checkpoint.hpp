// Crash-safe checkpoint journal for Monte-Carlo sweeps.
//
// A checkpoint directory holds two files:
//
//   manifest.json   {"rcb_checkpoint":1,"scenario_digest":"<hex16>",
//                    "journal":"journal.rcbj","scenario":{...}}
//   journal.rcbj    one framed record per completed trial, appended as
//                   trials finish (any order; records carry their index)
//
// The manifest is written atomically (temp file + fsync + rename), so a
// reader either sees the complete manifest or none.  Journal records are
// frames of runtime/frame.hpp, the codec the control plane shares (digest
// over the payload bytes, length at most kMaxFramePayload = 64 KiB):
//
//   RCBJ <payload-bytes> <fnv1a-hex16> <payload-json>\n
//
// A process killed mid-append leaves at most one partial frame at the
// tail, which the frame reader calls need-more; the loader reports a
// truncated tail and resumes from the last good record (the writer
// truncates the partial tail before appending).  A flipped byte inside a
// *complete* frame, a length past the cap, a duplicate trial index, or a
// record whose scenario_digest does not match the manifest are corruption,
// not truncation: the loader refuses them, because silently resuming
// against the wrong data would fabricate experiment results.
//
// The payload has one canonical layout, written by one writer
// (journal_record_payload) and read by one strict reader
// (parse_journal_record_payload):
//
//   {"trial":N,"status":"ok|timed_out|failed","attempts":N,
//    "scenario_digest":"<hex16>","outcome":{"max_cost":D,"mean_cost":D,
//    "adversary_cost":D,"latency":D,"success":B,"aborted":B,
//    "dead_count":N,"crashed_count":N,"digest":"<hex16>"}}
//
// on one line, keys in exactly this order, no whitespace.  Counts N are
// plain integers no larger than 2^53; doubles D are printed as by printf
// "%.17g" (std::to_chars, general, precision 17), so they round-trip
// exactly; u64 digests travel as 16 lowercase hex digits.  An aggregate
// recomputed from the journal is therefore bit-identical to the
// uninterrupted run — the property the supervisor's kill/resume tests pin.
// The reader accepts nothing but this layout: a payload that is valid JSON
// but not canonical (reordered keys, whitespace, an unknown status, "1.0"
// for a count) is corruption, refused like a flipped byte, never repaired.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
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
/// of silently dropping records.
using WriteFaultHook = std::function<int(std::size_t bytes)>;
void set_checkpoint_write_fault(WriteFaultHook hook);

/// One journaled trial: the outcome plus how the supervisor got it.
struct CheckpointRecord {
  std::uint64_t trial = 0;
  /// "ok" | "timed_out" (watchdog/slot-budget quarantine) | "failed"
  /// (exhausted the retry budget).
  std::string status = "ok";
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

/// The canonical journal payload of `rec` (the layout above), stamped with
/// `scenario_digest`.  CheckpointWriter wraps it in an RCBJ frame.
std::string journal_record_payload(const CheckpointRecord& rec,
                                   std::uint64_t scenario_digest);

/// Decodes a payload in the canonical layout into `rec` and the stamped
/// `scenario_digest`, in one pass.  Returns "" or a description of the
/// first deviation from the layout (with its byte offset).
std::string parse_journal_record_payload(std::string_view payload,
                                         CheckpointRecord& rec,
                                         std::uint64_t& scenario_digest);

/// Reads and verifies a checkpoint directory.  ok=false means the
/// checkpoint is unusable (missing/corrupt manifest, corrupt record,
/// duplicate trial, scenario-digest mismatch); a truncated tail alone is
/// reported but still ok.
CheckpointLoadResult load_checkpoint(const std::string& dir);

/// Appends framed trial records to a checkpoint journal.  Not thread-safe;
/// the supervisor serialises appends.  Each batch is flushed to the OS
/// (surviving process death); sync() additionally fsyncs (surviving power
/// loss) and is called by the supervisor at shutdown/final flush.
class CheckpointWriter {
 public:
  CheckpointWriter() = default;
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;
  CheckpointWriter(CheckpointWriter&& other) noexcept;
  CheckpointWriter& operator=(CheckpointWriter&& other) noexcept;

  /// Starts a fresh checkpoint: creates `dir` (and parents), writes the
  /// manifest atomically, and truncates the journal.  Returns "" or an
  /// error description.
  std::string create(const std::string& dir, const Scenario& s);

  /// Resumes an existing checkpoint: truncates the journal to
  /// `valid_bytes` (dropping a partial tail reported by load_checkpoint)
  /// and opens it for append.  `digest` is the manifest scenario digest
  /// stamped into every appended record.
  std::string open_for_append(const std::string& dir, std::uint64_t digest,
                              std::uint64_t valid_bytes);

  /// Appends the records as consecutive frames with one fwrite+fflush.
  /// The bytes do not depend on how records are grouped into batches.
  std::string append_batch(const std::vector<CheckpointRecord>& recs);

  /// fsyncs the journal file.
  std::string sync();

  void close();
  bool active() const { return file_ != nullptr; }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::uint64_t scenario_digest_ = 0;
  std::FILE* file_ = nullptr;
};

/// Asynchronous group-commit front end for a CheckpointWriter.
///
/// Workers enqueue completed CheckpointRecords into a bounded MPSC queue;
/// a dedicated writer thread drains the queue in batches and commits each
/// batch with CheckpointWriter::append_batch (one flush per batch).  This
/// removes journal I/O from the trial workers' critical path — under the
/// old design every worker serialised on a mutex around a flushed append.
///
/// Durability contract (same as the synchronous writer, batched):
///   - a record counts as *acknowledged* (acked_count()) only after the
///     flush covering its batch returned, i.e. after its bytes reached the
///     OS and will survive process death;
///   - finish() drains every enqueued record, fsyncs (power-loss durable)
///     and closes — callers report results only after finish() succeeds,
///     so no reported record can be lost to a crash;
///   - a write error taints the writer: the writer thread stops, further
///     enqueue() calls return false, and finish() returns the first error.
///     The error reaches whoever finishes the sweep, not just the caller
///     whose record happened to hit the bad write.
///
/// Thread-safe for concurrent enqueue(); finish() must be called by one
/// thread after all producers are done.
class AsyncJournalWriter {
 public:
  /// Takes ownership of an open CheckpointWriter.  `capacity` bounds the
  /// queue; enqueue() blocks when full (back-pressure, not data loss).
  explicit AsyncJournalWriter(CheckpointWriter writer,
                              std::size_t capacity = 1024);
  ~AsyncJournalWriter();
  AsyncJournalWriter(const AsyncJournalWriter&) = delete;
  AsyncJournalWriter& operator=(const AsyncJournalWriter&) = delete;

  /// Queues one record for the next group commit.  Blocks while the queue
  /// is full.  Returns false iff the writer has failed (or finish() was
  /// already called); the record is then dropped and the error is
  /// available from finish().
  bool enqueue(CheckpointRecord rec);

  /// Records flushed to the OS so far (monotonic; for tests/diagnostics).
  std::uint64_t acked_count() const;

  /// Drains the queue, fsyncs the journal, closes it, and joins the writer
  /// thread.  Returns "" on success or the first error encountered by any
  /// append/flush/sync.  Idempotent.
  std::string finish();

 private:
  void writer_loop();

  CheckpointWriter writer_;
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable work_available_;
  std::deque<CheckpointRecord> queue_;
  bool finishing_ = false;
  std::string first_error_;
  std::atomic<std::uint64_t> acked_{0};
  bool finished_ = false;
  std::string finish_result_;
  std::thread thread_;
};

/// Journal file name inside a checkpoint directory (exposed for tests and
/// the chaos harness, which watches it grow before killing the process).
extern const char kCheckpointJournalFile[];
extern const char kCheckpointManifestFile[];

}  // namespace rcb
