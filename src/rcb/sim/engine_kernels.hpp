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

/// Number of leading keys (sorted ascending) strictly below `bound` —
/// event-group and sender/listener boundary resolution over packed keys.
std::size_t count_keys_below(const std::uint64_t* keys, std::size_t count,
                             std::uint64_t bound);

/// End of the slot group that starts at keys[begin] (keys sorted, `count`
/// of them, keys[begin] in `slot`): the index of the first key of a later
/// slot.  pack(slot + 1, ...) wraps to zero at the last representable slot,
/// so that slot's group is bounded by the key array directly.
inline std::size_t slot_group_end(const std::uint64_t* keys,
                                  std::size_t begin, std::size_t count,
                                  SlotIndex slot) {
  if (slot + 1 == event_key::kMaxSlots) return count;
  return begin + count_keys_below(keys + begin, count - begin,
                                  event_key::pack(slot + 1, 0, false, 0));
}

/// Writes `len` zero-sender history records with consecutive slots
/// [first_slot, first_slot + len) and one jam decision into `dst`.
void fill_history_records(SlotActivity* dst, SlotIndex first_slot,
                          SlotCount len, bool jammed);

/// Multi-channel variant: `len` zero-sender McSlotActivity records with
/// consecutive slots and one jam mask.
void fill_mc_history_records(McSlotActivity* dst, SlotIndex first_slot,
                             SlotCount len, std::uint64_t jam_mask);

/// Bounded-window history compaction shared by both slotwise engines:
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
/// inputs.  Keys are spread over about one bucket per key by their offset
/// from the minimum, scattered stably into arena scratch, and an insertion
/// pass copies them back in order.  A presampled phase is one sorted run per
/// node and kind, and a bucket rarely holds more than a few keys, so the
/// insertion pass moves O(1) keys per key.  Inputs that defeat the buckets
/// are finished by std::sort once the pass exceeds kSortMovesPerKey moves
/// per key, so the worst case stays O(n log n).  The scratch is taken from
/// `scratch` and released before returning.
SortPath sort_event_keys(std::span<std::uint64_t> keys, Arena& scratch);

}  // namespace rcb::engine_kernels
