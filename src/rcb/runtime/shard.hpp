// Deterministic sharding of a sweep's (point, trial) space for the
// multi-process executor (runtime/coordinator.hpp).
//
// A *shard* is a contiguous trial range of one sweep point — shards never
// span points, because each shard's checkpoint manifest embeds that
// point's full scenario and the PR 3 corruption taxonomy keys every
// journal record on the scenario digest.  The shard plan is a pure
// function of (trials per point, target shard count), so a resumed
// coordinator recomputes the identical plan and re-adopts shard journals
// by index.
//
// On disk a sharded sweep root looks like:
//
//   <root>/sweep.json    the shard spec: scenarios, supervisor knobs and
//                        the shard plan, written atomically once at sweep
//                        start (authoritative on --resume, mirroring the
//                        manifest-wins rule of single-process resume)
//   <root>/shard_<i>/try_<k>/
//                        one standard checkpoint dir (manifest.json +
//                        journal.rcbj) per assignment attempt k of shard i,
//                        seeded with the best journal its predecessors left:
//                        a revoked worker that is not yet dead keeps
//                        appending to its *own* attempt dir, so it can
//                        never corrupt the replacement's journal
//
// Roots written before every attempt got a try_<k> dir journaled a shard's
// first attempt in shard_<i>/ itself.  They are not resumed or merged:
// scan_shard, and with it prepare_shard_attempt and the merge, refuses a
// shard whose shard_<i>/ holds a manifest or journal of its own.
//
// scan_shard considers every try_<k> candidate: any corrupt candidate
// refuses the shard; multiple *complete* candidates — a revoked worker and
// its replacement both finished the shard — must agree on their aggregate
// digest, in which case one is adopted and the rest are
// ignored (deduped, never merged twice); divergent complete candidates
// refuse loudly, because a digest disagreement on identical assigned work
// means one journal is fabricated.  Otherwise the partial candidate with
// the most records is the resume basis.
//
// merge_shard_journals folds the per-shard journals back into per-point
// results.  Because every trial is a pure function of (scenario, trial
// index) and records carry absolute trial indices, the merged
// aggregate_digest is bit-identical to a single-process run regardless of
// worker count, kill schedule, or retry history.  The merge *refuses*
// (rather than repairs) anything inconsistent: a record outside its
// shard's assigned range, the same trial present in two journals, a
// scenario-digest mismatch, or a missing trial — silently double-counting
// or dropping trials would fabricate experiment results.
//
// A coordinator decodes each shard journal once and holds each record once.
// It builds one ShardMerge when the sweep starts and places every shard
// that scans kComplete at once: the records move into their point's result
// array at their trial index, and only the scan's freshness evidence stays
// — the try_<k> list the scan walked and the stamp stat() gave every
// candidate's manifest and journal before the scan read them.  finish()
// re-scans a shard only if it was never placed or is no longer fresh.
// Every writer changes a stamp (journals grow by append or shrink by
// open_for_append's truncate; manifests are replaced by rename; a new
// attempt adds a try_<k>), so anything that happened after the placement
// sends the shard back through scan_shard and its refusals.  The one change
// a stamp misses is a same-size in-place rewrite within one timestamp tick
// by a process outside the sweep; the next cold load (a resume, or
// merge_shard_journals) still catches it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rcb/runtime/supervisor.hpp"

namespace rcb {

/// One shard: the half-open trial range [begin, end) of sweep point
/// `point`.  `end == begin` (an empty shard) is legal and merges as zero
/// records.
struct ShardAssignment {
  std::size_t point = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  friend bool operator==(const ShardAssignment& a, const ShardAssignment& b) {
    return a.point == b.point && a.begin == b.begin && a.end == b.end;
  }
};

/// Splits each point's trial range into contiguous chunks of roughly
/// total_trials / target_shards trials, in (point, begin) order.  Every
/// point contributes at least one shard (so a point's checkpoint dir
/// always exists) and each shard stays within one point.  Deterministic;
/// `target_shards` is a hint, not an exact count.
std::vector<ShardAssignment> make_shard_plan(
    const std::vector<std::uint64_t>& trials_per_point,
    std::size_t target_shards);

/// Everything a worker process needs to run its shard: the scenarios, the
/// supervisor policy knobs, and the shard plan.
struct ShardSpec {
  /// Threads per worker process (<= 0: ThreadPool::default_concurrency()).
  int worker_threads = 1;
  double trial_timeout_sec = 0.0;
  SlotCount trial_slot_budget = 0;
  std::uint32_t max_retries = 0;
  /// Worker liveness beat period: the status-frame cadence of every
  /// worker.  Part of the spec (not a coordinator runtime knob) so every
  /// worker of a sweep beats at the same rate the coordinator's lease
  /// timeout was validated against.
  double heartbeat_interval_sec = 0.1;
  std::vector<Scenario> points;
  std::vector<ShardAssignment> shards;
};

/// "" when the spec is internally consistent: at least one point, every
/// scenario valid, and each point's shards exactly tiling [0, trials)
/// without gaps or overlap (overlap would double-count trials at merge).
std::string validate_shard_spec(const ShardSpec& spec);

/// Checkpoint dir of shard `shard_id` under `root`.
std::string shard_dir(const std::string& root, std::size_t shard_id);

/// Per-assignment-attempt checkpoint dir ("<shard dir>/try_<attempt>");
/// attempts count from 1.
std::string shard_attempt_dir(const std::string& root, std::size_t shard_id,
                              std::uint32_t attempt);

/// First attempt number with no existing try_ dir (1 + the highest on
/// disk).  A resumed coordinator starts here so a straggling worker still
/// appending to try_<k> can never share a journal with the replacement.
std::uint32_t next_shard_attempt(const std::string& root,
                                 std::size_t shard_id);

/// Creates shard_attempt_dir(root, shard_id, attempt) and seeds it with a
/// byte copy of the best resumable candidate's manifest + journal (if any),
/// so the new attempt resumes its predecessor's progress instead of
/// redoing the shard.  Copying (not renaming) is deliberate: the source
/// may still be appended to by a revoked worker not yet dead, and a copy
/// sheared mid-record is just a truncated tail — recoverable under the
/// checkpoint corruption taxonomy — while the source inode stays the old
/// worker's own.  Returns "" or an
/// error description.
std::string prepare_shard_attempt(const std::string& root,
                                  const ShardSpec& spec, std::size_t shard_id,
                                  std::uint32_t attempt);

/// Path of the shard spec file under `root` ("<root>/sweep.json").
std::string shard_spec_path(const std::string& root);

/// Validates and writes the spec atomically to shard_spec_path(root),
/// creating `root` if needed.  Returns "" or an error description.
std::string write_shard_spec(const std::string& root, const ShardSpec& spec);

struct ShardSpecLoadResult {
  bool ok = false;
  std::string error;
  ShardSpec spec;
};

/// Reads and validates shard_spec_path(root).
ShardSpecLoadResult load_shard_spec(const std::string& root);

/// What a coordinator found in one shard's checkpoint dir.
enum class ShardScanState {
  kMissing,   ///< no manifest yet: the shard never started
  kPartial,   ///< valid journal, not all assigned trials present: resumable
  kComplete,  ///< every assigned trial journaled: adoptable as-is
  kCorrupt,   ///< refuse: corrupt journal, wrong scenario, or out-of-range
};

/// stat() identity of one file: (dev, inode, size, mtime, ctime), all zero
/// when the file is absent.  Any append, truncate or rename changes it.
struct FileStamp {
  std::uint64_t dev = 0;
  std::uint64_t ino = 0;
  std::int64_t size = 0;
  std::int64_t mtime_ns = 0;
  std::int64_t ctime_ns = 0;

  friend bool operator==(const FileStamp&, const FileStamp&) = default;
};

struct ShardScan {
  ShardScanState state = ShardScanState::kMissing;
  std::string error;  ///< set for kCorrupt
  std::string dir;    ///< adopted candidate dir (kComplete / kPartial)
  /// Records the adopted candidate journaled (kComplete / kPartial).
  std::uint64_t journaled = 0;
  /// The adopted candidate's records in journal order; kComplete only (a
  /// partial candidate is resumed from disk, so its count is enough).
  std::vector<CheckpointRecord> records;
  /// Freshness evidence for ShardMerge (unset for kCorrupt): the sorted
  /// try_<k> numbers the scan walked, and the manifest + journal stamps of
  /// every candidate in walk order, each taken before the scan read that
  /// candidate.
  std::vector<std::uint32_t> attempts;
  std::vector<FileStamp> stamps;
};

/// Classifies shard `shard_id`'s try_<k> attempt dirs against the spec.
/// Corrupt means shard_<i>/ itself holds a manifest or journal (a root
/// from before per-attempt dirs), the PR 3 taxonomy refused a journal, a
/// manifest scenario does not match the spec's point scenario, a record
/// lies outside the shard's assigned range (the journal belongs to a
/// different shard assignment), or two complete candidates disagree on
/// their aggregate digest in trial order; a truncated tail alone
/// is recoverable and scans as kPartial/kComplete.  Multiple complete
/// candidates with identical digests dedupe to one (duplicate completions
/// of a revoked attempt are adopted once, never merged twice), whatever order
/// their workers' threads journaled the trials in.
ShardScan scan_shard(const std::string& root, const ShardSpec& spec,
                     std::size_t shard_id);

struct ShardMergeResult {
  bool ok = false;
  std::string error;
  /// One result per spec point, same shape as run_supervised_sweep_points:
  /// records sorted by trial, aggregate_digest over them.
  std::vector<SweepResult> points;
};

/// Folds the shard journals under a sweep root into per-point results,
/// holding each record once.  Each point's result array is reserved to its
/// trial count up front but grows (and so touches memory) only as shards
/// are placed.  finish() refuses the whole merge on any corrupt shard,
/// duplicate trial across journals, or missing trial; on success each
/// point's aggregate_digest is bit-identical to the single-process
/// reference.
class ShardMerge {
 public:
  /// `spec` must pass validate_shard_spec; it is copied.
  explicit ShardMerge(ShardSpec spec);

  /// Moves the records of `scan` — a kComplete scan_shard result for shard
  /// `shard_id` — to their trial slots and keeps its freshness evidence,
  /// replacing whatever an earlier placement of that shard left.  Returns ""
  /// or the refusal of a record that lies outside the shard or repeats a
  /// trial: another journal owns that trial, so keeping it would
  /// double-count.
  std::string place(std::size_t shard_id, ShardScan scan);

  /// Re-scans every shard that was never placed or whose placement is no
  /// longer fresh under `root` (see the header comment), places it, and
  /// finalizes each point.  Consumes the merge.
  ShardMergeResult finish(const std::string& root) &&;

 private:
  ShardSpec spec_;
  std::vector<SweepResult> points_;
  /// Per shard, kComplete and the freshness evidence of the scan it was
  /// placed from (no records); kMissing until placed.
  std::vector<ShardScan> placed_;
};

/// A cold merge: ShardMerge(spec).finish(root), after validating `spec`.
/// Decodes every shard.
ShardMergeResult merge_shard_journals(const std::string& root,
                                      const ShardSpec& spec);

}  // namespace rcb
