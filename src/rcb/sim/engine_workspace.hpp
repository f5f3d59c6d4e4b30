// Per-thread arena-backed scratch state for the channel engines.
//
// The engines presample per-node schedules into flat arrays, sort and sweep
// them; the arrays live for one engine call.  Each engine thread owns one
// EngineWorkspace whose Arena backs every such array, and every engine call
// opens a PhaseScope on it:
//
//   * the scope marks the arena on entry; the call's buffers (and any kernel
//     scratch, such as sort_event_keys') are bump-allocated past the mark;
//   * on return the scope detaches the buffers and releases the arena to the
//     mark, so a call leaves the arena exactly as it found it.  Every call of
//     a trial starts from the same address, and per-trial state never
//     touches the global heap;
//   * the arena's first chunk is 16 MiB.  Calls of very different sizes then
//     all reuse one chunk from its start, instead of landing in different
//     doubling chunks, and the pages no call has reached are never touched,
//     so they never become resident.  The thread's resident footprint is the
//     largest single call's, not the sum over chunk sizes.
//
// The trial drivers also call engine_workspace_begin_trial() at each trial
// boundary; with every call scoped it only rewinds an arena that is already
// at its start.
#pragma once

#include <cstdint>

#include "rcb/adversary/slot_adversary.hpp"
#include "rcb/common/arena.hpp"
#include "rcb/common/types.hpp"

namespace rcb {

/// Packed send/listen event key, the engines' hot schedule representation:
///
///     bits 63..30   slot
///     bits 29..24   channel
///     bit  23       is_listen
///     bits 22..0    node
///
/// Sorting packed keys as plain u64s reproduces the engines' event order
/// exactly: by slot, then by channel, senders before listeners, then by
/// node.  Single-channel phases pack channel 0 everywhere, so their sort
/// order (and hence the engines' event order) is unchanged from the
/// pre-multi-channel layout.
namespace event_key {

inline constexpr int kNodeBits = 23;
inline constexpr int kChannelBits = 6;
inline constexpr int kChannelShift = kNodeBits + 1;
inline constexpr int kSlotShift = kChannelShift + kChannelBits;
inline constexpr std::uint64_t kListenBit = std::uint64_t{1} << kNodeBits;
inline constexpr std::uint64_t kNodeMask = kListenBit - 1;
inline constexpr std::uint64_t kChannelMask =
    (std::uint64_t{1} << kChannelBits) - 1;
/// Largest node count / slot count the packing admits (engines RCB_REQUIRE
/// these; both are far beyond any simulated configuration).
inline constexpr std::uint64_t kMaxNodes = kListenBit;
inline constexpr std::uint64_t kMaxSlots = std::uint64_t{1}
                                           << (64 - kSlotShift);
/// Last epoch whose 2^epoch-slot phase fits in one engine call: the
/// default epoch cap of the protocols whose phases double every epoch.
inline constexpr std::uint32_t kMaxPhaseEpoch = 64 - kSlotShift;

inline std::uint64_t pack(SlotIndex slot, std::uint32_t channel,
                          bool is_listen, NodeId node) {
  return (slot << kSlotShift) |
         (static_cast<std::uint64_t>(channel) << kChannelShift) |
         (is_listen ? kListenBit : 0) | node;
}
inline SlotIndex slot(std::uint64_t key) { return key >> kSlotShift; }
inline std::uint32_t channel(std::uint64_t key) {
  return static_cast<std::uint32_t>((key >> kChannelShift) & kChannelMask);
}
inline bool is_listen(std::uint64_t key) { return (key & kListenBit) != 0; }
inline NodeId node(std::uint64_t key) {
  return static_cast<NodeId>(key & kNodeMask);
}

}  // namespace event_key

/// The per-thread scratch arrays, valid inside one engine call's PhaseScope.
struct EngineWorkspace {
  Arena arena{std::size_t{16} << 20};
  /// Packed event keys for the current phase: presample appends each key
  /// once, node by node (its sends, then its listens, each run sorted; the
  /// listens' half-duplex filter reads the node's sends in place), and the
  /// key sort leaves them ascending.
  ArenaVector<std::uint64_t> events{arena};
  /// Materialized adversary history (slotwise engine).
  ArenaVector<McSlotActivity> mc_history{arena};
  /// Per-node effective payload for the phase, skew already applied
  /// (parallel array indexed by node).
  ArenaVector<std::uint8_t> payloads{arena};

  /// Scope of one engine call: buffers used inside it are released, and
  /// detached, when it closes.  Scopes do not nest.
  class PhaseScope {
   public:
    explicit PhaseScope(EngineWorkspace& ws)
        : ws_(ws), mark_(ws.arena.mark()) {}
    ~PhaseScope() {
      ws_.detach_buffers();
      ws_.arena.release(mark_);
    }
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    EngineWorkspace& ws_;
    Arena::Mark mark_;
  };

  /// Resets the arena and detaches every buffer.
  void begin_trial();

 private:
  void detach_buffers();
};

/// This thread's workspace (created on first use).
EngineWorkspace& engine_workspace();

/// Trial boundary hook: resets this thread's workspace so the trial's engine
/// state replays from the start of the arena.  Called by the trial drivers
/// (run_trials, run_scenario_trial); cheap enough for per-trial use.
void engine_workspace_begin_trial();

}  // namespace rcb
