#include "rcb/adversary/mc_strategies.hpp"

#include <array>
#include <utility>

#include "rcb/common/contracts.hpp"

namespace rcb {

std::uint64_t McNoJam::jam_mask(SlotIndex, std::uint32_t,
                                std::span<const McSlotActivity>) {
  return 0;
}

bool McNoJam::jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                            std::span<const McSlotActivity>,
                            McJamRunSink& sink) {
  sink.append(end - begin, 0);
  return true;
}

namespace {

// The one draw kernel of the randomized splits, shared by jam_mask and
// jam_run_masks: bit c of the mask is set iff draw c (in channel order)
// falls below `threshold` (Rng::bernoulli_threshold), and the hits are
// counted in the same loop — std::popcount would be a libgcc call in the
// portable build.  The hits are charged to `budget` as take(1) calls in
// channel order would be: when the budget runs out inside the slot the
// grant covers the lowest set bits and the rest are cleared.
inline std::uint64_t draw_paid(Rng& rng, Budget& budget,
                               std::uint64_t threshold, std::uint32_t draws) {
  std::uint64_t mask = 0;
  Cost hits = 0;
  for (std::uint32_t c = 0; c < draws; ++c) {
    const std::uint64_t hit = rng.bernoulli_below(threshold);
    mask |= hit << c;
    hits += hit;
  }
  const Cost grant = budget.take(hits);
  if (grant == hits) return mask;
  std::uint64_t beyond = mask;
  for (Cost g = 0; g < grant; ++g) beyond &= beyond - 1;
  return mask ^ beyond;
}

// One per-slot consultation, shifted onto the target channel.  A dry
// budget never refills, so every later mask is 0 whatever the private Rng
// would draw: the draws are skipped.
std::uint64_t draw_slot(Rng& rng, Budget& budget, std::uint64_t threshold,
                        std::uint32_t draws, std::uint32_t shift) {
  if (threshold == 0 || budget.exhausted()) return 0;
  return draw_paid(rng, budget, threshold, draws) << shift;
}

// Bulk form of draw_slot over the `len` slots of an eventless run, on
// register copies of the strategy state.  Answers slot by slot until the
// segments are full — the slot that did not fit gives its draws and budget
// back, and the prefix before it is the answer — or until the budget is
// dry, when the rest of the run is one clear segment.  Segments are built
// branch-free in the mask (at rate 1/2 a per-slot merge test mispredicts
// every other slot) and handed to the sink, which the engine passes empty,
// at the end.  The first slot always fits, so the answer is never empty.
void answer_run(Rng& rng_state, Budget& budget_state, std::uint64_t threshold,
                std::uint32_t draws, std::uint32_t shift, SlotCount len,
                McJamRunSink& sink) {
  RCB_REQUIRE(sink.total() == 0);
  Rng rng = rng_state;
  Budget budget = budget_state;
  std::array<McJamRunSink::Segment, McJamRunSink::kMaxSegments> seg;
  std::size_t used = 0;    // segments written; seg[used - 1] is still open
  SlotCount run = 0;       // its length so far
  std::uint64_t last = 0;  // its mask
  SlotCount k = 0;
  for (; k < len && threshold != 0 && !budget.exhausted(); ++k) {
    const Budget budget_before = budget;
    const std::uint64_t mask = draw_paid(rng, budget, threshold, draws)
                               << shift;
    const std::size_t fresh = (used == 0) | (mask != last);
    if ((fresh & (used == seg.size())) != 0) {
      rng.rewind(draws);
      budget = budget_before;
      break;
    }
    used += fresh;
    run = (run & (fresh - 1)) + 1;  // 1 on a fresh segment, else run + 1
    last = mask;
    seg[used - 1] = McJamRunSink::Segment{run, mask};
  }
  for (std::size_t i = 0; i < used; ++i) {
    sink.append(seg[i].length, seg[i].decision);
  }
  if (k < len && (threshold == 0 || budget.exhausted())) {
    sink.append(len - k, 0);
  }
  rng_state = rng;
  budget_state = budget;
}

}  // namespace

McUniformSplitJammer::McUniformSplitJammer(Budget budget, double rate, Rng rng)
    : budget_(budget),
      threshold_(Rng::bernoulli_threshold(rate)),
      rng_(rng) {
  RCB_REQUIRE(rate >= 0.0 && rate <= 1.0);
}

std::uint64_t McUniformSplitJammer::jam_mask(
    SlotIndex, std::uint32_t num_channels,
    std::span<const McSlotActivity>) {
  return draw_slot(rng_, budget_, threshold_, num_channels, 0);
}

bool McUniformSplitJammer::jam_run_masks(SlotIndex begin, SlotIndex end,
                                         std::uint32_t num_channels,
                                         std::span<const McSlotActivity>,
                                         McJamRunSink& sink) {
  answer_run(rng_, budget_, threshold_, num_channels, 0, end - begin, sink);
  return true;
}

McFocusJammer::McFocusJammer(Budget budget, double rate, std::uint32_t target,
                             Rng rng)
    : budget_(budget), rate_(rate), target_(target), rng_(rng) {
  RCB_REQUIRE(rate >= 0.0 && rate <= 1.0);
}

std::uint64_t McFocusJammer::jam_mask(SlotIndex, std::uint32_t num_channels,
                                      std::span<const McSlotActivity>) {
  const std::uint64_t threshold =
      Rng::bernoulli_threshold(rate_ * static_cast<double>(num_channels));
  return draw_slot(rng_, budget_, threshold, 1, target_ % num_channels);
}

bool McFocusJammer::jam_run_masks(SlotIndex begin, SlotIndex end,
                                  std::uint32_t num_channels,
                                  std::span<const McSlotActivity>,
                                  McJamRunSink& sink) {
  const SlotCount len = end - begin;
  const std::uint64_t threshold =
      Rng::bernoulli_threshold(rate_ * static_cast<double>(num_channels));
  const std::uint32_t shift = target_ % num_channels;
  if (threshold == std::uint64_t{1} << 53) {
    // rate * C >= 1 jams every slot: the run jams the target until the
    // budget dries, then stays clear — at most two segments, and take(len)
    // is the same spend as len take(1) calls.  No draw decides anything,
    // so none is made.
    const SlotCount jammed = budget_.take(len);
    sink.append(jammed, std::uint64_t{1} << shift);
    sink.append(len - jammed, 0);
    return true;
  }
  answer_run(rng_, budget_, threshold, 1, shift, len, sink);
  return true;
}

McSweepJammer::McSweepJammer(Budget budget, SlotCount dwell)
    : budget_(budget), dwell_(dwell) {
  RCB_REQUIRE(dwell >= 1);
}

std::uint64_t McSweepJammer::jam_mask(SlotIndex slot,
                                      std::uint32_t num_channels,
                                      std::span<const McSlotActivity>) {
  if (budget_.take(1) != 1) return 0;
  const std::uint64_t ch = (slot / dwell_) % num_channels;
  return std::uint64_t{1} << ch;
}

bool McSweepJammer::jam_run_masks(SlotIndex begin, SlotIndex end,
                                  std::uint32_t num_channels,
                                  std::span<const McSlotActivity>,
                                  McJamRunSink& sink) {
  // Deterministic: walk the run dwell segment by dwell segment, granting
  // each its budget slice up front — take(k) is the same spend as k take(1)
  // calls, and once the budget dries the rest of the run is clear.  A full
  // sink ends the answer at the dwell segment that did not fit, which gives
  // its grant back.
  SlotIndex s = begin;
  while (s < end) {
    const SlotIndex dwell_end = (s / dwell_ + 1) * dwell_;
    const SlotIndex seg_end = dwell_end < end ? dwell_end : end;
    const SlotCount want = seg_end - s;
    const Budget budget_before = budget_;
    const SlotCount got = budget_.take(want);
    const std::uint64_t bit = std::uint64_t{1}
                              << ((s / dwell_) % num_channels);
    if (!sink.append(got, bit)) {
      budget_ = budget_before;
      return true;
    }
    if (got < want) {
      // Budget exhausted inside this dwell segment: every remaining slot is
      // clear.  If the sink cannot take that segment, the answer ends at
      // the last jammed slot, which is where the budget ran dry.
      sink.append(end - s - got, 0);
      return true;
    }
    s = seg_end;
  }
  return true;
}

McScheduleAdversary::McScheduleAdversary(std::vector<JamSchedule> per_channel)
    : per_channel_(std::move(per_channel)) {
  RCB_REQUIRE(per_channel_.size() <= kMaxChannels);
}

std::uint64_t McScheduleAdversary::jam_mask(
    SlotIndex slot, std::uint32_t num_channels,
    std::span<const McSlotActivity>) {
  std::uint64_t mask = 0;
  const std::uint32_t n =
      num_channels < per_channel_.size()
          ? num_channels
          : static_cast<std::uint32_t>(per_channel_.size());
  for (std::uint32_t c = 0; c < n; ++c) {
    if (per_channel_[c].is_jammed(slot)) mask |= std::uint64_t{1} << c;
  }
  return mask;
}

bool McScheduleAdversary::jam_run_masks(SlotIndex begin, SlotIndex end,
                                        std::uint32_t num_channels,
                                        std::span<const McSlotActivity>,
                                        McJamRunSink& sink) {
  // Stateless: recompute each slot's mask and lean on the sink's RLE merge
  // (schedules are interval-shaped, so runs compress well).  A full sink
  // ends the answer at the slot that did not fit — there is nothing to give
  // back, and the first slot always fits.
  const std::uint32_t n =
      num_channels < per_channel_.size()
          ? num_channels
          : static_cast<std::uint32_t>(per_channel_.size());
  for (SlotIndex s = begin; s < end; ++s) {
    std::uint64_t mask = 0;
    for (std::uint32_t c = 0; c < n; ++c) {
      if (per_channel_[c].is_jammed(s)) mask |= std::uint64_t{1} << c;
    }
    if (!sink.append(1, mask)) return true;
  }
  return true;
}

}  // namespace rcb
