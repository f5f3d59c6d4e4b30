#include "rcb/sim/engine_kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "rcb/common/contracts.hpp"
#include "rcb/common/simd.hpp"
#include "rcb/rng/sampling.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RCB_ENGINE_AVX2 1
#include <immintrin.h>
#endif

namespace rcb::engine_kernels {
namespace {

std::size_t count_keys_below_scalar(const std::uint64_t* keys,
                                    std::size_t count, std::uint64_t bound) {
  std::size_t i = 0;
  while (i < count && keys[i] < bound) ++i;
  return i;
}

#ifdef RCB_ENGINE_AVX2

__attribute__((target("avx2"))) std::size_t count_keys_below_avx2(
    const std::uint64_t* keys, std::size_t count, std::uint64_t bound) {
  // AVX2 has signed 64-bit compares only; flipping the sign bit maps the
  // unsigned order onto the signed one.
  const __m256i flip = _mm256_set1_epi64x(
      static_cast<std::int64_t>(std::uint64_t{1} << 63));
  const __m256i vbound = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<std::int64_t>(bound)), flip);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i k = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)), flip);
    // Lane mask of keys[i..i+3] < bound; the keys are sorted, so the first
    // not-below lane ends the scan.
    const int below = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(vbound, k)));
    if (below != 0xF) {
      return i + static_cast<std::size_t>(
                     __builtin_ctz(static_cast<unsigned>(~below & 0xF)));
    }
  }
  while (i < count && keys[i] < bound) ++i;
  return i;
}

__attribute__((target("avx2"))) void fill_mc_history_avx2(
    McSlotActivity* dst, SlotIndex first_slot, SlotCount len,
    std::uint64_t jam_mask) {
  static_assert(sizeof(McSlotActivity) == 32);
  // One McSlotActivity is {u64 slot; u64 sender_channels; u64 jam_mask;
  // u32 senders; pad} — exactly one record per 256-bit store with lanes
  // [slot, 0, jam_mask, 0].
  __m256i rec = _mm256_set_epi64x(
      0, static_cast<std::int64_t>(jam_mask), 0,
      static_cast<std::int64_t>(first_slot));
  const __m256i step = _mm256_set_epi64x(0, 0, 0, 1);
  for (SlotCount k = 0; k < len; ++k) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + k), rec);
    rec = _mm256_add_epi64(rec, step);
  }
}

#endif  // RCB_ENGINE_AVX2

// One node's send and listen events, appended to ws.events as two sorted
// runs whose first and last keys widen [lo, hi].  Draw-for-draw identical
// to the pre-SoA per-node generators.
void presample_node_events(NodeId u, const NodeAction& action,
                           SlotCount num_slots, Rng& rng, EngineWorkspace& ws,
                           FaultPlan* faults, detail::SkipBlockFn skip_block,
                           const ChannelPlan* channels, std::uint64_t& lo,
                           std::uint64_t& hi) {
  auto& events = ws.events;
  const std::size_t sends_begin = events.size();
  for_each_bernoulli_slot(
      num_slots, action.send_prob, rng, skip_block, [&](SlotIndex s) {
        if (faults != nullptr && faults->node_down(u, s)) return;
        const std::uint32_t ch =
            channels != nullptr ? channels->channel_of(u, s) : 0;
        events.push_back(event_key::pack(s, ch, false, u));
      });
  const std::size_t sends_end = events.size();

  // Half-duplex: a listen in one of the node's own send slots is dropped.
  // The walk sees only the sends kept above; a send dropped because the
  // node was down leaves the listen in that slot to the same node_down test.
  std::size_t si = sends_begin;
  for_each_bernoulli_slot(
      num_slots, action.listen_prob, rng, skip_block, [&](SlotIndex s) {
        while (si < sends_end && event_key::slot(events[si]) < s) ++si;
        if (si < sends_end && event_key::slot(events[si]) == s) {
          return;  // busy sending
        }
        if (faults != nullptr && faults->node_down(u, s)) return;
        const std::uint32_t ch =
            channels != nullptr ? channels->channel_of(u, s) : 0;
        events.push_back(event_key::pack(s, ch, true, u));
      });

  const auto widen = [&](std::size_t begin, std::size_t end) {
    if (begin == end) return;
    lo = std::min(lo, events[begin]);
    hi = std::max(hi, events[end - 1]);
  };
  widen(sends_begin, sends_end);
  widen(sends_end, events.size());
}

}  // namespace

void presample_phase(SlotCount num_slots, std::span<const NodeAction> actions,
                     Rng& rng, EngineWorkspace& ws, FaultPlan* faults,
                     const ChannelPlan* channels) {
  // The event count is a sum of per-slot Bernoullis, so its mean plus four
  // standard deviations almost never has to grow.
  double expected = 0.0;
  for (const NodeAction& a : actions) expected += a.send_prob + a.listen_prob;
  expected *= static_cast<double>(num_slots);
  ws.events.reserve(static_cast<std::size_t>(
      std::ceil(expected + 4.0 * std::sqrt(expected))));
  const detail::SkipBlockFn skip_block = detail::skip_block_fn();
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  for (NodeId u = 0; u < actions.size(); ++u) {
    presample_node_events(u, actions[u], num_slots, rng, ws, faults,
                          skip_block, channels, lo, hi);
  }
  sort_event_keys({ws.events.data(), ws.events.size()}, lo, hi, ws.arena);

  ws.payloads.reserve(actions.size());
  for (NodeId u = 0; u < actions.size(); ++u) {
    Payload p = actions[u].payload;
    if (faults != nullptr && faults->node_skewed(u)) p = Payload::kNoise;
    ws.payloads.push_back(static_cast<std::uint8_t>(p));
  }
}

SortPath sort_event_keys(std::span<std::uint64_t> keys, std::uint64_t lo,
                         std::uint64_t hi, Arena& scratch) {
  const std::size_t n = keys.size();
  if (n < kSortCutoff) {
    std::sort(keys.begin(), keys.end());
    return SortPath::kSmall;
  }
  RCB_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max());
  RCB_REQUIRE(lo <= hi);
  // Bucket b holds the keys with (key - lo) >> shift == b; the shift leaves
  // at most 2n buckets.
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(hi - lo)) -
                      static_cast<int>(std::bit_width(n)));
  const std::size_t num_buckets =
      static_cast<std::size_t>((hi - lo) >> shift) + 1;

  const Arena::Mark mark = scratch.mark();
  auto* start = scratch.allocate_array<std::uint32_t>(num_buckets + 1);
  auto* spread = scratch.allocate_array<std::uint64_t>(n);
  std::memset(start, 0, (num_buckets + 1) * sizeof(std::uint32_t));
  for (const std::uint64_t k : keys) {
    RCB_ASSERT(k >= lo && k <= hi);
    ++start[((k - lo) >> shift) + 1];
  }
  for (std::size_t b = 1; b <= num_buckets; ++b) start[b] += start[b - 1];
  for (const std::uint64_t k : keys) spread[start[(k - lo) >> shift]++] = k;

  // Buckets are in order, and within one the scatter kept input order: node
  // order inside each slot, so moves stay O(1) per key on engine inputs.
  std::uint64_t* out = keys.data();
  const std::size_t max_moves = kSortMovesPerKey * n;
  std::size_t moves = 0;
  SortPath path = SortPath::kBuckets;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = spread[i];
    std::size_t j = i;
    for (; j > 0 && out[j - 1] > k; --j) out[j] = out[j - 1];
    out[j] = k;
    moves += i - j;
    if (moves > max_moves) {
      std::memcpy(out + i + 1, spread + i + 1, (n - i - 1) * sizeof(k));
      std::sort(out, out + n);
      path = SortPath::kFallback;
      break;
    }
  }
  scratch.release(mark);
  return path;
}

std::size_t count_keys_below_wide(const std::uint64_t* keys,
                                  std::size_t count, std::uint64_t bound) {
#ifdef RCB_ENGINE_AVX2
  if (simd::active_mode() == simd::Mode::kAvx2) {
    return count_keys_below_avx2(keys, count, bound);
  }
#endif
  return count_keys_below_scalar(keys, count, bound);
}

void fill_mc_history_records_wide(McSlotActivity* dst, SlotIndex first_slot,
                                  SlotCount len, std::uint64_t jam_mask) {
#ifdef RCB_ENGINE_AVX2
  if (simd::active_mode() == simd::Mode::kAvx2) {
    fill_mc_history_avx2(dst, first_slot, len, jam_mask);
    return;
  }
#endif
  for (SlotCount k = 0; k < len; ++k) {
    dst[k] = McSlotActivity{first_slot + k, 0, jam_mask, 0};
  }
}

}  // namespace rcb::engine_kernels
