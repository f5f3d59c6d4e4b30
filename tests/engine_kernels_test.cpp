// Tests for the shared engine kernels' event-key sort and the per-call
// scoping of the engine workspace.  Packed keys are unique, so any correct
// sort yields the same bytes; sort_event_keys is checked against std::sort
// on engine-shaped inputs, on the packing's edges, and on an input built to
// defeat its buckets.
#include "rcb/sim/engine_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "rcb/adversary/mc_strategies.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/rng/sampling.hpp"
#include "rcb/sim/mc_slot_engine.hpp"
#include "rcb/sim/repetition_engine.hpp"

namespace rcb {
namespace {

using engine_kernels::kSortCutoff;
using engine_kernels::sort_event_keys;
using engine_kernels::SortPath;

/// Sorts `keys` with the kernel, checks it against std::sort, and checks
/// the kernel's scratch went back to the arena.  Returns the path taken.
SortPath expect_sorted_like_std(std::vector<std::uint64_t> keys) {
  std::vector<std::uint64_t> want = keys;
  std::sort(want.begin(), want.end());
  Arena arena;
  arena.allocate(100);  // the kernel must release to here, not to zero
  const std::size_t used = arena.bytes_used();
  const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
  const SortPath path = keys.empty() ? sort_event_keys(keys, 0, 0, arena)
                                     : sort_event_keys(keys, *lo, *hi, arena);
  EXPECT_EQ(keys, want);
  EXPECT_EQ(arena.bytes_used(), used);
  return path;
}

std::vector<std::uint64_t> random_unique_keys(std::size_t n,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::uint64_t> keys;
  while (keys.size() < n) {
    const std::uint64_t k = rng.next_u64();
    if (seen.insert(k).second) keys.push_back(k);
  }
  return keys;
}

/// Node-major runs the way presample_phase emits them: per node, its sorted
/// send slots, then its sorted listen slots (on a channel from `channels`).
std::vector<std::uint64_t> presample_shaped(std::uint32_t nodes,
                                            SlotCount slots, double send_prob,
                                            double listen_prob,
                                            std::uint32_t channels,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> keys;
  std::vector<SlotIndex> fired;
  for (NodeId u = 0; u < nodes; ++u) {
    for (const bool listen : {false, true}) {
      sample_bernoulli_slots(slots, listen ? listen_prob : send_prob, rng,
                             fired);
      for (const SlotIndex s : fired) {
        const auto ch = static_cast<std::uint32_t>((u + s * 3) % channels);
        keys.push_back(event_key::pack(s, ch, listen, u));
      }
    }
  }
  return keys;
}

TEST(SortEventKeysTest, SizesAroundTheCutoff) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, kSortCutoff - 1,
        kSortCutoff, kSortCutoff + 1}) {
    const SortPath path = expect_sorted_like_std(random_unique_keys(n, n));
    EXPECT_EQ(path, n < kSortCutoff ? SortPath::kSmall : SortPath::kBuckets)
        << "n=" << n;
  }
}

TEST(SortEventKeysTest, RandomUniqueKeys) {
  EXPECT_EQ(expect_sorted_like_std(random_unique_keys(20000, 3)),
            SortPath::kBuckets);
}

TEST(SortEventKeysTest, PresampleShapedRuns) {
  for (const std::uint32_t nodes : {32u, 1024u}) {
    const SlotCount slots = 1 << 16;
    const double rate = 2048.0 / (static_cast<double>(nodes) * slots);
    const auto keys = presample_shaped(nodes, slots, rate, 2 * rate, 1, nodes);
    ASSERT_GE(keys.size(), kSortCutoff);
    EXPECT_EQ(expect_sorted_like_std(keys), SortPath::kBuckets)
        << "nodes=" << nodes;
  }
}

TEST(SortEventKeysTest, OneDenseSlot) {
  // 1024 nodes all active in one slot, each sending or listening: in node
  // order the senders and listeners interleave, and the kernel must still
  // separate them without falling back.
  Rng rng(5);
  std::vector<std::uint64_t> keys;
  for (NodeId u = 0; u < 1024; ++u) {
    keys.push_back(event_key::pack(777, 0, rng.bernoulli(0.5), u));
  }
  EXPECT_EQ(expect_sorted_like_std(keys), SortPath::kBuckets);
}

TEST(SortEventKeysTest, MultiChannelKeys) {
  const SlotCount slots = 1 << 12;
  for (const std::uint32_t channels : {2u, 8u, 64u}) {
    const auto keys =
        presample_shaped(64, slots, 0.01, 0.02, channels, channels);
    EXPECT_EQ(expect_sorted_like_std(keys), SortPath::kBuckets)
        << "channels=" << channels;
  }
}

TEST(SortEventKeysTest, KeysAtTheSlotCap) {
  // Keys at the last slots below the cap, up to the all-ones key, then keys
  // at slots 0..2: hi - lo is within 2^30 of 2^64, and the buckets must
  // move the low group in front.
  std::vector<std::uint64_t> keys;
  for (NodeId u = 0; u < 100; ++u) {
    keys.push_back(event_key::pack(event_key::kMaxSlots - 200 + u, 0, false,
                                   u));
  }
  for (NodeId u = 0; u < 100; ++u) {
    keys.push_back(event_key::pack(
        event_key::kMaxSlots - 1, 63, true,
        static_cast<NodeId>(event_key::kMaxNodes - 100 + u)));
  }
  for (NodeId u = 0; u < 100; ++u) {
    keys.push_back(event_key::pack(u / 40, 0, false, u));
  }
  ASSERT_EQ(keys[199], ~std::uint64_t{0});
  EXPECT_EQ(expect_sorted_like_std(keys), SortPath::kBuckets);
}

TEST(SortEventKeysTest, AdversarialInputTakesTheBoundedFallback) {
  // One key far away puts every other key into bucket 0, in descending
  // order: the insertion pass would need n^2 / 2 moves, so the kernel must
  // give up and finish with std::sort.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 4096; k > 0; --k) keys.push_back(k);
  keys.push_back(~std::uint64_t{0});
  EXPECT_EQ(expect_sorted_like_std(keys), SortPath::kFallback);
}

/// Never jams; asks for the whole history so the engine materializes it.
class NeverJam final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity>) override {
    return 0;
  }
};

TEST(EngineWorkspaceScopeTest, EngineCallsLeaveTheArenaWhereTheyFoundIt) {
  const std::vector<NodeAction> actions(
      16, NodeAction{0.01, Payload::kMessage, 0.05});
  const std::vector<ChannelHop> hops(16, ChannelHop{1, 3});
  const ChannelPlan plan{4, hops};
  Arena& arena = engine_workspace().arena;
  const std::size_t used = arena.bytes_used();
  Rng rng(11);

  run_repetition(1 << 14, actions, JamSchedule::suffix(1 << 14, 1 << 13),
                 rng);
  EXPECT_EQ(arena.bytes_used(), used);

  NeverJam never;
  EXPECT_GT(run_repetition_slotwise_mc(1 << 14, actions, ChannelPlan{1, {}},
                                       never, rng)
                .event_count,
            0u);
  EXPECT_EQ(arena.bytes_used(), used);

  McNoJam mc_never;
  EXPECT_GT(run_repetition_slotwise_mc(1 << 14, actions, plan, mc_never, rng)
                .event_count,
            0u);
  EXPECT_EQ(arena.bytes_used(), used);
}

}  // namespace
}  // namespace rcb
