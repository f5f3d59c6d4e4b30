// Hot inner kernels shared by the channel engines, with AVX2 variants.
//
// The scan and fill kernels are dispatched on simd::active_mode() and the
// AVX2 variants are bit-identical to the scalar ones (they produce the same
// bytes; the simulation's RNG stream is untouched).  The presample helper
// ties the geometric-skip block sampler and the key sort to the packed
// event-key layout of EngineWorkspace, so every event engine shares one
// schedule-generation path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "rcb/adversary/slot_adversary.hpp"
#include "rcb/common/types.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/channel_plan.hpp"
#include "rcb/sim/engine_workspace.hpp"
#include "rcb/sim/faults.hpp"
#include "rcb/sim/repetition_engine.hpp"

namespace rcb::engine_kernels {

/// Reception on one channel of one slot, given its sender count, the lone
/// sender's payload (meaningful when the count is 1) and its jam bit.
inline Reception resolve(std::uint32_t sender_count, Payload single_payload,
                         bool jammed) {
  if (jammed) return Reception::kNoise;
  if (sender_count == 0) return Reception::kClear;
  if (sender_count > 1) return Reception::kNoise;
  switch (single_payload) {
    case Payload::kMessage:
      return Reception::kMessage;
    case Payload::kNack:
      return Reception::kNack;
    case Payload::kNoise:
      return Reception::kNoise;
  }
  return Reception::kNoise;
}

/// Spans shorter than this are handled inline by the scalar loop; longer
/// ones go to the dispatched (AVX2 or scalar) kernel.
inline constexpr std::size_t kWideKernelMin = 8;

/// count_keys_below for count >= kWideKernelMin.
std::size_t count_keys_below_wide(const std::uint64_t* keys,
                                  std::size_t count, std::uint64_t bound);

/// Number of leading keys (sorted ascending) strictly below `bound` —
/// event-group and sender/listener boundary resolution over packed keys.
/// Most groups in a sparse phase hold a key or two, so short spans are
/// scanned inline.
inline std::size_t count_keys_below(const std::uint64_t* keys,
                                    std::size_t count, std::uint64_t bound) {
  if (count >= kWideKernelMin) {
    return count_keys_below_wide(keys, count, bound);
  }
  std::size_t i = 0;
  while (i < count && keys[i] < bound) ++i;
  return i;
}

/// End of the slot group that starts at keys[begin] (keys sorted, `count`
/// of them, keys[begin] in `slot`): the index of the first key of a later
/// slot.  pack(slot + 1, ...) wraps to zero at the last representable slot,
/// so that slot's group is bounded by the key array directly.  A slot with
/// a single event, the common case, is settled by one comparison.
inline std::size_t slot_group_end(const std::uint64_t* keys,
                                  std::size_t begin, std::size_t count,
                                  SlotIndex slot) {
  if (slot + 1 == event_key::kMaxSlots) return count;
  const std::uint64_t bound = event_key::pack(slot + 1, 0, false, 0);
  const std::size_t next = begin + 1;
  if (next == count || keys[next] >= bound) return next;
  return next + count_keys_below(keys + next, count - next, bound);
}

/// fill_mc_history_records for len >= kWideKernelMin.
void fill_mc_history_records_wide(McSlotActivity* dst, SlotIndex first_slot,
                                  SlotCount len, std::uint64_t jam_mask);

/// Writes `len` zero-sender history records with consecutive slots
/// [first_slot, first_slot + len) and one jam mask into `dst`.  A bounded
/// window keeps only a run's last few records, so short fills are inline.
inline void fill_mc_history_records(McSlotActivity* dst, SlotIndex first_slot,
                                    SlotCount len, std::uint64_t jam_mask) {
  if (len >= kWideKernelMin) {
    fill_mc_history_records_wide(dst, first_slot, len, jam_mask);
    return;
  }
  for (SlotCount k = 0; k < len; ++k) {
    dst[k] = McSlotActivity{first_slot + k, 0, jam_mask, 0};
  }
}

/// Bounded-window history compaction of the slotwise engine:
/// append one record, and once the buffer holds twice the window, drop
/// everything but the trailing `window` records.  The 2x watermark keeps
/// the erase_prefix memmove amortized O(1) per push while history_view()
/// can always serve the trailing `window` records.
template <typename Record>
inline void push_history_compacted(ArenaVector<Record>& history,
                                   const Record& rec, SlotCount window,
                                   bool bounded) {
  history.push_back(rec);
  if (bounded && history.size() >= 2 * static_cast<std::size_t>(window)) {
    history.erase_prefix(history.size() - static_cast<std::size_t>(window));
  }
}

/// Presamples every node's send/listen events for one phase into ws.events
/// as packed keys, sorts them, and fills ws.payloads with each node's
/// effective payload (sender-side clock skew applied; skew is fixed per
/// phase).  Call inside the engine call's EngineWorkspace::PhaseScope.
///
/// Per node, listens colliding with the node's own sends are dropped
/// (half-duplex); a crashed node's events are dropped after sampling, so the
/// Rng stream is consumed identically with and without an active FaultPlan.
/// `channels` (optional) stamps each event with the node's hop-sequence
/// channel; null packs channel 0 everywhere — whether a slot is an event
/// slot is independent of the channel choice, so the Rng stream is also
/// identical with and without a channel plan.
void presample_phase(SlotCount num_slots, std::span<const NodeAction> actions,
                     Rng& rng, EngineWorkspace& ws, FaultPlan* faults,
                     const ChannelPlan* channels = nullptr);

/// Key counts below this go straight to std::sort.
inline constexpr std::size_t kSortCutoff = 64;
/// Insertion moves per key the bucket pass may spend before it gives up and
/// hands the keys to std::sort.
inline constexpr std::size_t kSortMovesPerKey = 8;

/// Which path sort_event_keys took.
enum class SortPath { kSmall, kBuckets, kFallback };

/// Sorts packed event keys ascending, in linear expected time on engine
/// inputs.  Every key must lie in [lo, hi]; presample_phase takes the
/// bounds from its per-node runs, so no pass over the keys finds them.
/// Keys are spread over about one bucket per key by their offset from `lo`,
/// scattered stably into arena scratch, and an insertion pass copies them
/// back in order.  A presampled phase is one sorted run per node and kind,
/// and a bucket rarely holds more than a few keys, so the insertion pass
/// moves O(1) keys per key.  Inputs that defeat the buckets
/// are finished by std::sort once the pass exceeds kSortMovesPerKey moves
/// per key, so the worst case stays O(n log n).  The scratch is taken from
/// `scratch` and released before returning.
SortPath sort_event_keys(std::span<std::uint64_t> keys, std::uint64_t lo,
                         std::uint64_t hi, Arena& scratch);

}  // namespace rcb::engine_kernels
