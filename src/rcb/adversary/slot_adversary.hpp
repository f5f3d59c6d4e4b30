// Slot-level adaptive adversary interface (the genuinely reactive model).
//
// The batch engine in sim/repetition_engine.hpp restricts adversaries to the
// Lemma-1 canonical form: commit to a jam schedule before the phase, given
// only public history.  A McSlotAdversary is strictly stronger — it is
// consulted before *every* slot and sees the full physical trace of the
// phase so far (which channels carried transmissions, what it jammed).
// sim/mc_slot_engine.hpp runs this model over C channels; at C = 1 it is
// the paper's single-channel reactive model, which bench E10 uses to
// validate Lemma 1 empirically.
//
// History contract (what `jam_mask` may rely on):
//   * `history` holds one McSlotActivity record per elapsed slot of the
//     current phase, in slot order, *including* slots in which nobody
//     transmitted (materialized as zero-sender records) — history.size()
//     equals the current slot index unless the adversary bounds its window.
//   * Listening is passive and invisible: records expose transmissions and
//     the adversary's own jamming only.
//   * An adversary that only inspects a bounded suffix of the history (most
//     reactive strategies look at the last slot or two) should override
//     history_window() to return that bound.  The engine then materializes
//     only the trailing `history_window()` records, keeping its bookkeeping
//     O(window) instead of O(num_slots) — `history` is the suffix and
//     history.size() may be smaller than the slot index.  Returning 0 means
//     the adversary is oblivious to history (time-triggered or randomized
//     strategies) and always receives an empty span.
// Bulk consultation (the engine fast path):
//   Most of a phase is *eventless* — nobody sends or listens.  For an
//   eventless run of slots the engine may call jam_run_masks() once
//   instead of jam_mask() per slot.  Answering is optional (the default
//   declines, and the engine falls back to per-slot jam_mask() calls,
//   bit-identical to the one-call-per-slot contract); an adversary that
//   answers must produce exactly the masks repeated jam_mask() calls would
//   have produced, where each elapsed run slot appears in the materialized
//   history as a zero-sender record carrying the adversary's own mask.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "rcb/common/contracts.hpp"
#include "rcb/common/types.hpp"

namespace rcb {

/// Run-length-encoded per-slot jam masks for one eventless run, filled by
/// the bulk consultation hook McSlotAdversary::jam_run_masks: one 64-bit
/// mask per run slot (bit c jams channel c — the same value jam_mask()
/// would have returned).  Capacity is deliberately small.  When append()
/// returns false, a strategy answers the prefix the sink already holds and
/// the engine offers it the rest of the run again (or it declines, and the
/// engine drives the run slot by slot).
class McJamRunSink {
 public:
  static constexpr std::size_t kMaxSegments = 64;

  struct Segment {
    SlotCount length;
    std::uint64_t decision;
  };

  /// Appends `length` slots with one mask; adjacent same-mask segments
  /// merge.  Returns false (sink unchanged) when capacity is exhausted.
  bool append(SlotCount length, std::uint64_t decision) {
    if (length == 0) return true;
    if (count_ > 0 && segments_[count_ - 1].decision == decision) {
      segments_[count_ - 1].length += length;
    } else {
      if (count_ == kMaxSegments) return false;
      segments_[count_++] = Segment{length, decision};
    }
    total_ += length;
    return true;
  }

  std::span<const Segment> segments() const { return {segments_.data(), count_}; }
  SlotCount total() const { return total_; }

  void reset() {
    count_ = 0;
    total_ = 0;
  }

 private:
  std::array<Segment, kMaxSegments> segments_;
  std::size_t count_ = 0;
  SlotCount total_ = 0;
};

/// What the adversary can observe about an elapsed slot: the per-channel
/// physical trace, as 64-bit channel masks (bit c = channel c).
/// Transmissions are physically detectable; listening is passive and
/// invisible.
struct McSlotActivity {
  SlotIndex slot = 0;
  /// Channels that carried at least one transmission.
  std::uint64_t sender_channels = 0;
  /// Channels the adversary jammed (its own decision, echoed back).
  std::uint64_t jam_mask = 0;
  /// Total transmitting nodes across all channels.
  std::uint32_t senders = 0;
};

/// Adversary interface for the slotwise engine (sim/mc_slot_engine.hpp).
/// The jamming budget splits across channels: each jammed (slot, channel)
/// pair costs one budget unit, so jamming k channels of one slot costs k —
/// the Chen–Zheng accounting.  At C = 1 the mask is 0 or 1: jam the slot
/// or not.
class McSlotAdversary {
 public:
  /// history_window() value meaning "materialize every elapsed slot".
  static constexpr SlotCount kUnboundedHistory = UINT64_MAX;

  virtual ~McSlotAdversary() = default;

  /// Called once per slot in order.  Bit c of the returned mask jams
  /// channel c of `slot`.  Bits at or above `num_channels` are ignored by
  /// the engines (strategies must not spend budget on them); every
  /// remaining set bit is charged as one budget unit in the per-channel
  /// accounting.  `history` follows the history contract above.
  virtual std::uint64_t jam_mask(SlotIndex slot, std::uint32_t num_channels,
                                 std::span<const McSlotActivity> history) = 0;

  /// Optional bulk form of jam_mask() for an eventless run [begin, end):
  /// no node sends or listens in any slot of the run, so every run slot's
  /// history record is {slot, 0, <own mask>, 0}.  `history` is the state as
  /// of `begin` (the same view jam_mask(begin, ...) would receive), and
  /// `sink` arrives empty.  To answer, append masks (in slot order) for a
  /// non-empty prefix [begin, begin + sink.total()) of the run to `sink`,
  /// advance any internal state (rng, budget) exactly as per-slot
  /// jam_mask() calls for that prefix would have, and return true; the
  /// engine then offers the rest of the run in a new call.  A strategy
  /// whose masks do not fit in the sink answers the prefix that does.  To
  /// decline — the default — return false *without mutating any state*;
  /// the engine then issues the per-slot jam_mask() calls for the whole run
  /// itself.  Answering is a pure optimization: masks must be identical to
  /// the per-slot path's, and the engine enforces
  /// 1 <= sink.total() <= end - begin.
  virtual bool jam_run_masks(SlotIndex begin, SlotIndex end,
                             std::uint32_t num_channels,
                             std::span<const McSlotActivity> history,
                             McJamRunSink& sink) {
    (void)begin;
    (void)end;
    (void)num_channels;
    (void)history;
    (void)sink;
    return false;
  }

  /// Upper bound on how many trailing history records jam_mask() inspects.
  /// Defaults to unbounded; override for O(1)-lookback strategies so the
  /// engine can bound its history buffer.
  virtual SlotCount history_window() const { return kUnboundedHistory; }
};

}  // namespace rcb
