// Measurement from outside the program: TrialRunners that forward exactly
// like the supervisor's default runner while recording what each trial did.
//
// Three recording levels, cheapest first:
//
//   kFirstStart  notes when the first trial began (one relaxed load per
//                trial); the untraced runs use it for setup_s.
//   kSpans       also records one (start, end, thread) span per trial; the
//                runtime metrics (utilisation, tail, percentiles) use it.
//   kLayers      replaces run_scenario_trial with a replica built from the
//                library's public pieces, with timing decorators around
//                the adversary and, for the Fig. 2 broadcast, a replay of
//                every repetition's run_repetition on the Rng state
//                captured after plan().  Its digests must equal the real
//                runner's; the layer split comes from here.
//
// Recorders work across processes: a shard worker (the benchmark binary
// re-entered by the coordinator) records into its own Recorder and dumps
// it to a file that the coordinator side merges.
//
// The benchmark also links with -Wl,--wrap=fsync: every fsync librcb makes
// (checkpoint manifests, directories, journals) goes through a wrapper that
// logs its wall interval, so set-up time can be reported net of the time
// the storage device takes to flush.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "rcb/runtime/supervisor.hpp"

namespace perfbench {

/// CLOCK_MONOTONIC nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

/// Wall intervals of the fsync calls this process made since the last
/// clear_fsync_log() (or since it started).
std::vector<Interval> fsync_log();
void clear_fsync_log();

/// Calibrated duration of an empty timed span (t1 - t0 of two back-to-back
/// now_ns() calls), measured once per process.  It is subtracted from each
/// timed call; the two clock reads of a timed call cost about twice this,
/// which is charged to the trace layer.
std::int64_t timer_overhead_ns();

/// Calibrated cost the sampled multi-channel decorator adds to each call
/// it passes through without a clock (the call-number pick, its counters
/// and the extra virtual call): the best of five rounds of 2^20 jam_mask
/// calls on a stand-in adversary, wrapped minus direct, measured once per
/// process.  It is trace-only work, charged per call.
double decorator_overhead_ns();

/// Per-thread accumulators of the kLayers runner, in thread-nanoseconds.
/// Plain integers so a worker process can dump them as raw bytes.
struct LayerCounters {
  std::int64_t trials = 0;
  std::int64_t retries = 0;
  std::int64_t trial_ns = 0;     ///< runner spans net of trace-only work
  std::int64_t protocol_ns = 0;  ///< protocol call spans net of it
  std::int64_t repetitions = 0;  ///< BroadcastNEngine::step calls
  std::int64_t plan_calls = 0;   ///< Repetition/DuelAdversary::plan
  std::int64_t plan_ns = 0;
  std::int64_t mask_calls = 0;   ///< McSlotAdversary::jam_mask
  std::int64_t mask_timed = 0;   ///< of which timed (about 1 in 64)
  std::int64_t mask_timed_ns = 0;
  std::int64_t mask_control = 0;  ///< empty clock spans at the same site
  std::int64_t mask_control_ns = 0;
  std::int64_t bulk_calls = 0;   ///< McSlotAdversary::jam_run_masks
  std::int64_t bulk_answered = 0;
  std::int64_t bulk_slots = 0;   ///< slots offered in bulk
  std::int64_t bulk_slots_answered = 0;
  std::int64_t bulk_timed = 0;   ///< of which timed (about 1 in 8)
  std::int64_t bulk_timed_ns = 0;
  std::int64_t bulk_control = 0;
  std::int64_t bulk_control_ns = 0;
  std::int64_t sim_calls = 0;    ///< engine runs (replays, or trials)
  std::int64_t sim_slots = 0;
  std::int64_t sim_events = 0;   ///< energy-charged sends + listens
  std::int64_t sim_replay_ns = 0;  ///< broadcast: replayed run_repetition
  std::int64_t probe_ns = 0;     ///< trace-only work besides the replay
  std::int64_t clock_ns = 0;     ///< calibrated cost of the timing clocks
  std::int64_t replay_mismatches = 0;  ///< replayed cost delta != real one

  void add(const LayerCounters& o);
};

enum class TraceMode { kFirstStart = 0, kSpans = 1, kLayers = 2 };

/// What a Recorder saw, merged over its threads (or over processes).
struct RecorderData {
  std::int64_t first_start_ns = 0;  ///< 0 when no trial ran
  /// fsync calls the process that began that trial made before it began.
  std::vector<Interval> setup_fsyncs;
  std::vector<Span> spans;
  LayerCounters counters;
  /// Trial thread windows per process: {first start, last end, threads}.
  struct Window {
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t threads = 0;
  };
  std::vector<Window> windows;
  /// Peak resident set (VmHWM, KiB) of the process that recorded this.
  std::int64_t peak_rss_kb = 0;

  /// Folds `other` in; its span thread ids are offset past ours.
  void merge(const RecorderData& other);
};

class Recorder {
 public:
  explicit Recorder(TraceMode mode) : mode_(mode) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// A TrialRunner bound to this recorder (which must outlive it).
  rcb::TrialRunner runner();

  /// Merged view; call after the sweep returned.  `threads` is the pool
  /// size the trials ran on (recorded in the process window).
  RecorderData data(std::int64_t threads) const;

 private:
  struct ThreadLog {
    std::uint32_t id = 0;
    std::vector<Span> spans;
    LayerCounters counters;
  };
  ThreadLog& local();

  const TraceMode mode_;
  const std::uint64_t generation_ = next_generation();
  std::atomic<std::int64_t> first_start_{0};
  mutable std::mutex mutex_;
  std::deque<std::unique_ptr<ThreadLog>> logs_;

  static std::uint64_t next_generation();
};

/// Writes / reads a RecorderData as a flat binary file.
bool dump_recorder(const RecorderData& d, const std::string& path);
bool load_recorder(const std::string& path, RecorderData& d);

/// True when the kLayers replica covers the scenario's protocol
/// (broadcast, mc_broadcast, one_to_one) without fault injection.
bool layers_supported(const rcb::Scenario& s);

}  // namespace perfbench
