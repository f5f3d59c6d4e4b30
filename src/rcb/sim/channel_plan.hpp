// Multi-channel slot model: which of the C channels each node occupies in
// each slot.
//
// The Chen–Zheng extension of the paper's broadcast problem (arXiv
// 2001.03936, arXiv 1904.06328) runs the protocol over C parallel channels:
// every slot, each node picks one channel to send or listen on, and the
// adversary splits its jamming budget across channels.  Node channel
// choices here are *deterministic within a phase*: a protocol draws a
// per-node hop sequence (start, stride) from the trial RNG before the
// phase, and the engines evaluate it pointwise.  Keeping the hop sequence
// out of the engines' RNG stream is what lets the event-driven and dense
// slotwise engines stay exactly cross-checkable, and why a phase consumes
// the same draws whatever its channel count.
#pragma once

#include <cstdint>
#include <span>

#include "rcb/common/types.hpp"

namespace rcb {

/// Hard cap on the channel count: jam decisions and per-slot channel
/// occupancy travel as 64-bit masks (one bit per channel), and the packed
/// event keys reserve 6 channel bits.
inline constexpr std::uint32_t kMaxChannels = 64;

/// One node's cyclic hop sequence: channel(slot) = (start + slot * stride)
/// mod C.  stride 0 parks the node on a fixed channel.
struct ChannelHop {
  std::uint32_t start = 0;
  std::uint32_t stride = 0;
};

/// A phase's channel assignment: C channels plus one hop sequence per node.
/// An empty `hops` span (or C == 1) parks every node on channel 0 — the
/// single-channel degenerate case.
struct ChannelPlan {
  std::uint32_t num_channels = 1;
  /// One entry per node; may be empty when num_channels == 1.
  std::span<const ChannelHop> hops;

  std::uint32_t channel_of(NodeId u, SlotIndex slot) const {
    if (num_channels <= 1 || hops.empty()) return 0;
    const ChannelHop& h = hops[u];
    return static_cast<std::uint32_t>((h.start + slot * h.stride) %
                                      num_channels);
  }

  /// Bitmask with one bit per valid channel.
  std::uint64_t valid_mask() const {
    return num_channels >= 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << num_channels) - 1;
  }
};

}  // namespace rcb
