// Tests for the multi-channel slotwise engines (sim/mc_slot_engine.hpp):
// the C=1 bit-exact degeneration against the single-channel engines, the
// event-vs-dense mc crosscheck, per-channel budget accounting, and the
// multi-channel edge cases (C > n, everyone on one channel, a jammer
// spending its budget on an empty channel).
#include "rcb/sim/mc_slot_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "rcb/adversary/budget.hpp"
#include "rcb/adversary/mc_strategies.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/channel_plan.hpp"
#include "rcb/sim/jam_schedule.hpp"
#include "rcb/sim/slot_engine.hpp"

namespace rcb {
namespace {

/// Replays a fixed schedule (deterministic, with a bulk jam_run path).
class FixedSchedule final : public SlotAdversary {
 public:
  explicit FixedSchedule(const JamSchedule& js) : js_(&js) {}
  bool jam(SlotIndex slot, std::span<const SlotActivity>) override {
    return js_->is_jammed(slot);
  }
  bool jam_run(SlotIndex begin, SlotIndex end, std::span<const SlotActivity>,
               JamRunSink& sink) override {
    for (SlotIndex s = begin; s < end; ++s) {
      if (!sink.append(1, js_->is_jammed(s))) return false;
    }
    return true;
  }
  SlotCount history_window() const override { return 0; }

 private:
  const JamSchedule* js_;
};

/// Reactive with a 1-slot lookback — exercises the history translation in
/// McFromSlotAdversary (the mc engines must feed it the same per-slot
/// records the single-channel engines would).
class Reactive final : public SlotAdversary {
 public:
  bool jam(SlotIndex, std::span<const SlotActivity> history) override {
    return !history.empty() && history.back().senders > 0;
  }
  SlotCount history_window() const override { return 1; }
};

bool obs_equal(const NodeObservation& a, const NodeObservation& b) {
  return a.sends == b.sends && a.listens == b.listens && a.clear == b.clear &&
         a.messages == b.messages && a.nacks == b.nacks &&
         a.noise == b.noise && a.first_message_slot == b.first_message_slot &&
         a.listens_until_first_message == b.listens_until_first_message;
}

std::vector<NodeAction> mixed_actions() {
  return {NodeAction{0.4, Payload::kMessage, 0.0},
          NodeAction{0.1, Payload::kNoise, 0.7},
          NodeAction{0.0, Payload::kNoise, 0.9},
          NodeAction{0.2, Payload::kNack, 0.3}};
}

// ---------------------------------------------------------------------------
// C=1 degeneration: byte-identical to the single-channel engines on the
// same Rng stream — including under CCA drift, faults, and a reactive
// (history-consuming) adversary.

void expect_c1_degenerates(const CcaModel& cca, bool with_faults,
                           bool reactive, std::uint64_t seed) {
  const SlotCount slots = 512;
  const auto actions = mixed_actions();
  const JamSchedule jam = JamSchedule::blocking_fraction(slots, 0.4);
  FaultConfig fcfg;
  if (with_faults) {
    fcfg.seed = 99;
    fcfg.crash_rate = 0.001;
    fcfg.restart_rate = 0.01;
    fcfg.loss_rate = 0.2;
    fcfg.corruption_rate = 0.1;
    fcfg.clock_skew_rate = 0.1;
  }
  const ChannelPlan single{1, {}};

  for (const bool dense : {false, true}) {
    FaultPlan faults_sc(fcfg);
    FaultPlan* fp_sc = faults_sc.active() ? &faults_sc : nullptr;
    FixedSchedule sched_sc(jam);
    Reactive react_sc;
    SlotAdversary& adv_sc =
        reactive ? static_cast<SlotAdversary&>(react_sc) : sched_sc;
    Rng rng_sc = Rng::stream(seed, 1);
    const SlotwiseResult sc =
        dense ? run_repetition_slotwise_dense(slots, actions, adv_sc, rng_sc,
                                              cca, fp_sc)
              : run_repetition_slotwise(slots, actions, adv_sc, rng_sc, cca,
                                        fp_sc);

    FaultPlan faults_mc(fcfg);
    FaultPlan* fp_mc = faults_mc.active() ? &faults_mc : nullptr;
    FixedSchedule sched_mc(jam);
    Reactive react_mc;
    SlotAdversary& inner =
        reactive ? static_cast<SlotAdversary&>(react_mc) : sched_mc;
    McFromSlotAdversary adv_mc(inner);
    Rng rng_mc = Rng::stream(seed, 1);
    const McSlotwiseResult mc =
        dense ? run_repetition_slotwise_mc_dense(slots, actions, single,
                                                 adv_mc, rng_mc, cca, fp_mc)
              : run_repetition_slotwise_mc(slots, actions, single, adv_mc,
                                           rng_mc, cca, fp_mc);

    EXPECT_EQ(mc.jammed_slots, sc.jammed_slots) << "dense=" << dense;
    EXPECT_EQ(mc.jam_charges, static_cast<Cost>(sc.jammed_slots))
        << "dense=" << dense;
    ASSERT_EQ(mc.rep.obs.size(), sc.rep.obs.size());
    for (std::size_t u = 0; u < actions.size(); ++u) {
      EXPECT_TRUE(obs_equal(sc.rep.obs[u], mc.rep.obs[u]))
          << "dense=" << dense << " node " << u;
    }
  }
}

TEST(McDegenerationTest, C1MatchesSingleChannelExactly) {
  expect_c1_degenerates(CcaModel{}, false, false, 101);
}

TEST(McDegenerationTest, C1MatchesUnderCcaDrift) {
  expect_c1_degenerates(CcaModel{0.1, 0.05}, false, false, 202);
}

TEST(McDegenerationTest, C1MatchesUnderFaults) {
  expect_c1_degenerates(CcaModel{0.05, 0.05}, true, false, 303);
}

TEST(McDegenerationTest, C1MatchesWithReactiveAdversaryHistory) {
  expect_c1_degenerates(CcaModel{}, false, true, 404);
}

// ---------------------------------------------------------------------------
// Event vs dense mc crosscheck: exact on a randomness-free profile.

TEST(McEngineTest, EventMatchesDenseOnRandomnessFreeProfile) {
  const SlotCount slots = 256;
  const std::uint32_t C = 4;
  // All probabilities 0/1: both engines resolve the same deterministic
  // per-(slot, channel) groups regardless of their Rng consumption order.
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0},
                                     NodeAction{1.0, Payload::kNack, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  std::vector<ChannelHop> hops = {{0, 1}, {0, 1}, {2, 0}, {2, 0}, {3, 2}};
  const ChannelPlan plan{C, {hops.data(), hops.size()}};
  std::vector<JamSchedule> per_channel;
  for (std::uint32_t c = 0; c < C; ++c) {
    per_channel.push_back(
        JamSchedule::blocking_fraction(slots, 0.2 * static_cast<double>(c)));
  }

  McScheduleAdversary adv_ev(per_channel), adv_dn(per_channel);
  Rng rng_ev = Rng::stream(7, 1), rng_dn = Rng::stream(7, 2);
  const McSlotwiseResult ev =
      run_repetition_slotwise_mc(slots, actions, plan, adv_ev, rng_ev);
  const McSlotwiseResult dn =
      run_repetition_slotwise_mc_dense(slots, actions, plan, adv_dn, rng_dn);

  EXPECT_EQ(ev.jam_charges, dn.jam_charges);
  EXPECT_EQ(ev.jammed_slots, dn.jammed_slots);
  for (std::size_t u = 0; u < actions.size(); ++u) {
    EXPECT_TRUE(obs_equal(ev.rep.obs[u], dn.rep.obs[u])) << "node " << u;
  }
  // Conservation against the committed schedules.
  Cost want = 0;
  for (const JamSchedule& js : per_channel) want += js.jammed_count();
  EXPECT_EQ(ev.jam_charges, want);
}

// Channel isolation: a listener hears only its own channel.  Node 1 shares
// the sender's fixed channel and hears every message; node 2 sits on a
// different channel and hears only clear air.
TEST(McEngineTest, ReceptionIsPerChannel) {
  const SlotCount slots = 128;
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  std::vector<ChannelHop> hops = {{2, 0}, {2, 0}, {5, 0}};
  const ChannelPlan plan{8, {hops.data(), hops.size()}};
  McNoJam adv;
  Rng rng = Rng::stream(11, 0);
  const McSlotwiseResult r =
      run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
  EXPECT_EQ(r.rep.obs[1].messages, slots);
  EXPECT_EQ(r.rep.obs[2].messages, 0u);
  EXPECT_EQ(r.rep.obs[2].clear, slots);
  EXPECT_EQ(r.jam_charges, 0u);
}

// ---------------------------------------------------------------------------
// Edge cases.

TEST(McEngineTest, MoreChannelsThanNodes) {
  // C=64 with 2 nodes: hops land somewhere in [0, 64); the engines must
  // accept the full channel range and the budget accounting must hold.
  const SlotCount slots = 200;
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  std::vector<ChannelHop> hops = {{63, 0}, {63, 0}};
  const ChannelPlan plan{64, {hops.data(), hops.size()}};
  McSweepJammer adv(Budget(100), 1);
  Rng rng = Rng::stream(13, 0);
  const McSlotwiseResult r =
      run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
  // The sweep dwells 1 slot per channel: it hits channel 63 every 64 slots
  // until the budget runs dry at slot 100.
  EXPECT_EQ(r.jam_charges, 100u);
  EXPECT_EQ(r.jammed_slots, 100u);
  // Channel 63 is jammed on slots 63 (within budget); the listener hears
  // noise there and messages elsewhere.
  EXPECT_GT(r.rep.obs[1].messages, 0u);
  EXPECT_GT(r.rep.obs[1].noise, 0u);
  EXPECT_EQ(r.rep.obs[1].messages + r.rep.obs[1].noise, slots);
}

TEST(McEngineTest, FocusJammerOnTheOccupiedChannelBlocksEverything) {
  const SlotCount slots = 128;
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  // Everyone parks on channel 3 of 4.
  std::vector<ChannelHop> hops = {{3, 0}, {3, 0}, {3, 0}};
  const ChannelPlan plan{4, {hops.data(), hops.size()}};
  McFocusJammer adv(Budget::unlimited(), 1.0, 3, Rng::stream(17, 0));
  Rng rng = Rng::stream(17, 1);
  const McSlotwiseResult r =
      run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
  EXPECT_EQ(r.rep.obs[1].messages, 0u);
  EXPECT_EQ(r.rep.obs[1].noise, slots);
  EXPECT_EQ(r.rep.obs[2].noise, slots);
  EXPECT_EQ(r.jam_charges, slots);  // 1 unit per slot, single channel
  EXPECT_EQ(r.jammed_slots, slots);
}

TEST(McEngineTest, BudgetSpentOnAnEmptyChannelIsWasted) {
  const SlotCount slots = 128;
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  std::vector<ChannelHop> hops = {{0, 0}, {0, 0}};
  const ChannelPlan plan{4, {hops.data(), hops.size()}};
  // Focus on channel 2 — nobody is there; the budget drains (exhaustion on
  // an empty channel) while delivery proceeds untouched on channel 0.
  McFocusJammer adv(Budget(50), 1.0, 2, Rng::stream(19, 0));
  Rng rng = Rng::stream(19, 1);
  const McSlotwiseResult r =
      run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
  EXPECT_EQ(r.jam_charges, 50u);  // exhausted exactly
  EXPECT_EQ(adv.budget().spent(), 50u);
  EXPECT_TRUE(adv.budget().exhausted());
  EXPECT_EQ(r.rep.obs[1].messages, slots);
  EXPECT_EQ(r.rep.obs[1].noise, 0u);
}

// Per-channel charge accounting: whatever a randomized budget-split
// strategy reports as spent is exactly what the engine charged — on both
// engines, across channel counts.
TEST(McEngineTest, EngineChargesEqualStrategySpend) {
  const SlotCount slots = 300;
  const auto actions = mixed_actions();
  for (const std::uint32_t C : {1u, 2u, 4u, 8u}) {
    std::vector<ChannelHop> hops;
    Rng hop_rng = Rng::stream(23, C);
    for (std::size_t u = 0; u < actions.size(); ++u) {
      hops.push_back(
          ChannelHop{static_cast<std::uint32_t>(hop_rng.uniform_u64(C)),
                     static_cast<std::uint32_t>(hop_rng.uniform_u64(C))});
    }
    const ChannelPlan plan{C, {hops.data(), hops.size()}};
    for (const bool dense : {false, true}) {
      McUniformSplitJammer adv(Budget(400), 0.5, Rng::stream(29, C));
      Rng rng = Rng::stream(31, C + (dense ? 100 : 0));
      const McSlotwiseResult r =
          dense ? run_repetition_slotwise_mc_dense(slots, actions, plan, adv,
                                                   rng)
                : run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
      EXPECT_EQ(r.jam_charges, adv.budget().spent())
          << "C=" << C << " dense=" << dense;
      EXPECT_LE(r.jam_charges, 400u) << "C=" << C << " dense=" << dense;
      EXPECT_LE(r.jammed_slots, slots);
    }
  }
}

// ---------------------------------------------------------------------------
// Bulk consultation (jam_run_masks) contract — the multi-channel mirror of
// the single-channel jam_run suite: bulk answers are a pure optimization,
// so every observable must coincide with the per-slot fallback.

/// Forwards jam_mask but always declines the bulk hook — pins the engine's
/// per-slot fallback as the reference execution for the bulk path.
class NoBulk final : public McSlotAdversary {
 public:
  explicit NoBulk(McSlotAdversary& inner) : inner_(inner) {}
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t num_channels,
                         std::span<const McSlotActivity> history) override {
    return inner_.jam_mask(slot, num_channels, history);
  }
  SlotCount history_window() const override {
    return inner_.history_window();
  }

 private:
  McSlotAdversary& inner_;
};

void expect_identical_mc(const McSlotwiseResult& a, const McSlotwiseResult& b) {
  EXPECT_EQ(a.jam_charges, b.jam_charges);
  EXPECT_EQ(a.jammed_slots, b.jammed_slots);
  EXPECT_EQ(a.event_count, b.event_count);
  ASSERT_EQ(a.rep.obs.size(), b.rep.obs.size());
  for (std::size_t u = 0; u < a.rep.obs.size(); ++u) {
    EXPECT_TRUE(obs_equal(a.rep.obs[u], b.rep.obs[u])) << "node " << u;
  }
}

std::vector<NodeAction> sparse_actions() {
  return {NodeAction{0.01, Payload::kMessage, 0.0},
          NodeAction{0.0, Payload::kNoise, 0.01},
          NodeAction{0.005, Payload::kNack, 0.005}};
}

/// Runs one strategy twice through the event engine — once consulted in
/// bulk, once forced onto the per-slot fallback via NoBulk — and requires
/// the executions to be indistinguishable, down to the trial Rng position.
template <typename Make>
McSlotwiseResult expect_bulk_equals_fallback(Make make, std::uint32_t C,
                                             std::uint64_t seed) {
  const SlotCount slots = 8192;
  const auto actions = sparse_actions();
  std::vector<ChannelHop> hops;
  Rng hop_rng = Rng::stream(seed, 900);
  for (std::size_t u = 0; u < actions.size(); ++u) {
    hops.push_back(
        ChannelHop{static_cast<std::uint32_t>(hop_rng.uniform_u64(C)),
                   static_cast<std::uint32_t>(hop_rng.uniform_u64(C))});
  }
  const ChannelPlan plan{C, {hops.data(), hops.size()}};

  auto bulk_adv = make();
  Rng rng_bulk = Rng::stream(seed, 1);
  const McSlotwiseResult a =
      run_repetition_slotwise_mc(slots, actions, plan, bulk_adv, rng_bulk);

  auto inner = make();
  NoBulk scalar_adv(inner);
  Rng rng_scalar = Rng::stream(seed, 1);
  const McSlotwiseResult b =
      run_repetition_slotwise_mc(slots, actions, plan, scalar_adv, rng_scalar);

  expect_identical_mc(a, b);
  EXPECT_EQ(rng_bulk.next_u64(), rng_scalar.next_u64())
      << "trial Rng position diverged: C=" << C << " seed=" << seed;
  if constexpr (requires { bulk_adv.budget(); }) {
    EXPECT_EQ(bulk_adv.budget().spent(), inner.budget().spent())
        << "C=" << C << " seed=" << seed;
    EXPECT_EQ(a.jam_charges, bulk_adv.budget().spent());
  }
  return a;
}

TEST(McJamRunMasksTest, BulkAnswerMatchesPerSlotPathForEveryStrategy) {
  for (const std::uint32_t C : {1u, 4u, 64u}) {
    expect_bulk_equals_fallback([] { return McNoJam{}; }, C, 51);
    // rate in (0, 1): bulk answers sink-sized prefixes while the budget
    // lives (alternating masks overflow the sink) and whole runs once it
    // dries.
    expect_bulk_equals_fallback(
        [&] {
          return McUniformSplitJammer(Budget(500), 0.4, Rng::stream(61, C));
        },
        C, 52);
    // rate 0: the draw-free single-segment shortcut.
    expect_bulk_equals_fallback(
        [&] {
          return McUniformSplitJammer(Budget(500), 0.0, Rng::stream(62, C));
        },
        C, 53);
    expect_bulk_equals_fallback(
        [&] {
          return McFocusJammer(Budget(600), 0.05, 2, Rng::stream(63, C));
        },
        C, 54);
    // rate * C >= 1: the draw-free budget-arithmetic fast path.
    expect_bulk_equals_fallback(
        [&] {
          return McFocusJammer(Budget(600), 1.0, 1, Rng::stream(64, C));
        },
        C, 55);
    expect_bulk_equals_fallback([] { return McSweepJammer(Budget(3000), 64); },
                                C, 56);
    // dwell 1: for C > 1 every slot changes channel, so runs overflow the
    // sink while the budget lives and the answer ends at a dwell segment.
    expect_bulk_equals_fallback([] { return McSweepJammer(Budget(3001), 1); },
                                C, 61);
    expect_bulk_equals_fallback(
        [&] {
          std::vector<JamSchedule> per_channel;
          for (std::uint32_t c = 0; c < C && c < 8; ++c) {
            per_channel.push_back(JamSchedule::blocking_fraction(
                8192, 0.1 * static_cast<double>(c)));
          }
          return McScheduleAdversary(per_channel);
        },
        C, 57);
  }
}

TEST(McJamRunMasksTest, RandomizedSplitsRunningDryMatchPerSlotPath) {
  // Rate 0.5 with a budget that dries mid-phase (about slot 3000 of 8192)
  // and is not a multiple of C, so for C > 1 it can run out inside a slot
  // (the mid-slot clip): bulk answers prefixes while the budget lives, then
  // one clear segment per run.
  for (const std::uint32_t C : {1u, 8u, 64u}) {
    const Cost limit = Cost{3} * 500 * C + 3;
    const McSlotwiseResult r = expect_bulk_equals_fallback(
        [&] {
          return McUniformSplitJammer(Budget(limit), 0.5, Rng::stream(65, C));
        },
        C, 58);
    EXPECT_EQ(r.jam_charges, limit) << "budget did not run dry: C=" << C;
  }
  // Focus with rate * C < 1 drawing one Bernoulli per slot until it dries.
  for (const std::uint32_t C : {1u, 8u}) {
    const McSlotwiseResult r = expect_bulk_equals_fallback(
        [&] {
          return McFocusJammer(Budget(150), 0.05, 3, Rng::stream(66, C));
        },
        C, 59);
    EXPECT_EQ(r.jam_charges, 150u) << "budget did not run dry: C=" << C;
  }
}

/// The per-channel loop the split strategies are defined by: one
/// bernoulli(p) per channel in channel order, each hit paid by take(1).
std::uint64_t reference_split_mask(Rng& rng, Budget& budget, double p,
                                   std::uint32_t draws, std::uint32_t shift) {
  std::uint64_t mask = 0;
  for (std::uint32_t c = 0; c < draws; ++c) {
    if (rng.bernoulli(p) && budget.take(1) == 1) {
      mask |= std::uint64_t{1} << (c + shift);
    }
  }
  return mask;
}

/// Drives `adv` over `slots` slots, alternating per-slot calls with bulk
/// prefix answers over 1000-slot runs, and requires every mask to equal
/// the reference loop's — across the slot where the budget runs dry.
template <typename Adv>
void expect_split_matches_reference(Adv& adv, Rng ref_rng, Budget ref_budget,
                                    double p, std::uint32_t C,
                                    std::uint32_t draws, std::uint32_t shift) {
  const SlotCount slots = 12000;
  SlotIndex s = 0;
  bool bulk = false;
  while (s < slots) {
    if (!bulk) {
      for (const SlotIndex stop = s + 7; s < stop && s < slots; ++s) {
        ASSERT_EQ(adv.jam_mask(s, C, {}),
                  reference_split_mask(ref_rng, ref_budget, p, draws, shift))
            << "per-slot, slot " << s << " C=" << C;
      }
    } else {
      const SlotIndex end = std::min<SlotIndex>(s + 1000, slots);
      while (s < end) {
        McJamRunSink sink;
        ASSERT_TRUE(adv.jam_run_masks(s, end, C, {}, sink));
        ASSERT_GE(sink.total(), 1u);
        ASSERT_LE(sink.total(), end - s);
        for (const McJamRunSink::Segment& seg : sink.segments()) {
          for (SlotCount k = 0; k < seg.length; ++k, ++s) {
            ASSERT_EQ(seg.decision, reference_split_mask(ref_rng, ref_budget,
                                                         p, draws, shift))
                << "bulk, slot " << s << " C=" << C;
          }
        }
      }
    }
    bulk = !bulk;
  }
  EXPECT_EQ(adv.budget().spent(), ref_budget.spent()) << "C=" << C;
  EXPECT_TRUE(ref_budget.exhausted()) << "budget never ran dry: C=" << C;
}

TEST(McStrategyTest, UniformSplitMatchesPerChannelReference) {
  for (const std::uint32_t C : {1u, 3u, 8u, 64u}) {
    for (const double rate : {0.3, 0.5, 1.0}) {
      // Dries well inside the 12000 slots; at rate 1 it runs out inside
      // slot 4000 for every C > 1, which pins the mid-slot clip order.
      const Cost limit =
          static_cast<Cost>(rate * C * 4000) + (C > 1 ? C / 2 + 1 : 0);
      McUniformSplitJammer adv(Budget(limit), rate, Rng::stream(81, C));
      expect_split_matches_reference(adv, Rng::stream(81, C), Budget(limit),
                                     rate, C, C, 0);
    }
  }
}

TEST(McStrategyTest, FocusMatchesPerSlotReference) {
  // C = 16 puts rate * C above 1: every slot jams until the budget dries.
  for (const std::uint32_t C : {1u, 4u, 8u, 16u}) {
    const double rate = 0.1;
    McFocusJammer adv(Budget(500), rate, 5, Rng::stream(82, C));
    expect_split_matches_reference(adv, Rng::stream(82, C), Budget(500),
                                   rate * C, C, 1, 5 % C);
  }
}

TEST(McJamRunMasksTest, OverflowAnswersPrefixOfRandomizedStrategy) {
  // rate in (0, 1) keeps bulk masks alternating, so a long run cannot fit
  // in kMaxSegments; the strategy answers the prefix that fits, with its
  // rng and budget advanced for exactly that prefix (witnessed by a twin
  // that makes the same number of per-slot calls).
  McUniformSplitJammer probe(Budget(10000), 0.5, Rng::stream(71, 0));
  McUniformSplitJammer twin(Budget(10000), 0.5, Rng::stream(71, 0));
  McJamRunSink sink;
  ASSERT_TRUE(probe.jam_run_masks(0, 4096, 4, {}, sink));
  ASSERT_GE(sink.total(), 1u);
  ASSERT_LT(sink.total(), 4096u) << "run fit the sink; no overflow tested";
  SlotIndex s = 0;
  for (const McJamRunSink::Segment& seg : sink.segments()) {
    for (SlotCount k = 0; k < seg.length; ++k, ++s) {
      ASSERT_EQ(twin.jam_mask(s, 4, {}), seg.decision) << "slot " << s;
    }
  }
  EXPECT_EQ(probe.budget().spent(), twin.budget().spent());
  for (SlotCount k = 0; k < 256; ++k, ++s) {
    ASSERT_EQ(probe.jam_mask(s, 4, {}), twin.jam_mask(s, 4, {}))
        << "slot " << s;
  }
}

/// Single-channel random jammer whose jam_run replays its draws and, when
/// the run overflows the sink, declines by restoring its snapshot.
class RandomSlotJammer final : public SlotAdversary {
 public:
  explicit RandomSlotJammer(Rng rng) : rng_(rng) {}
  bool jam(SlotIndex, std::span<const SlotActivity>) override {
    return rng_.bernoulli(0.5);
  }
  bool jam_run(SlotIndex begin, SlotIndex end, std::span<const SlotActivity>,
               JamRunSink& sink) override {
    const Rng snapshot = rng_;
    for (SlotIndex s = begin; s < end; ++s) {
      if (!sink.append(1, rng_.bernoulli(0.5))) {
        rng_ = snapshot;
        return false;
      }
    }
    return true;
  }
  SlotCount history_window() const override { return 0; }

 private:
  Rng rng_;
};

TEST(McJamRunMasksTest, DeclineLeavesStateUntouched) {
  // A declining adversary (the bridge forwards its inner strategy's
  // decline) must leave its state exactly as before the attempt.
  RandomSlotJammer probe_inner(Rng::stream(72, 0));
  RandomSlotJammer twin_inner(Rng::stream(72, 0));
  McFromSlotAdversary probe(probe_inner);
  McFromSlotAdversary twin(twin_inner);
  McJamRunSink sink;
  ASSERT_FALSE(probe.jam_run_masks(0, 4096, 1, {}, sink));
  for (SlotIndex s = 0; s < 256; ++s) {
    ASSERT_EQ(probe.jam_mask(s, 1, {}), twin.jam_mask(s, 1, {}))
        << "slot " << s;
  }
}

/// Alternates mask 1/0 by slot parity; its bulk answer appends slot by
/// slot, so runs longer than kMaxSegments overflow the sink mid-phase.
/// With `prefix` it then answers the part that fit (the engine offers the
/// rest again); without, it declines and the engine drives the run slot by
/// slot — either way both outcomes mix with whole answers in one execution.
class ParityMask final : public McSlotAdversary {
 public:
  explicit ParityMask(bool prefix = false) : prefix_(prefix) {}
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity>) override {
    return slot & 1;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity>,
                     McJamRunSink& sink) override {
    ++bulk_calls_;
    for (SlotIndex s = begin; s < end; ++s) {
      if (!sink.append(1, s & 1)) {
        ++overflows_;
        return prefix_;
      }
    }
    return true;
  }
  SlotCount history_window() const override { return 0; }

  bool prefix_;
  int bulk_calls_ = 0;
  int overflows_ = 0;
};

TEST(McJamRunMasksTest, MidRunDeclineFallsBackBitIdentically) {
  const SlotCount slots = 30000;
  std::vector<NodeAction> actions = {NodeAction{0.002, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 0.002}};
  std::vector<ChannelHop> hops = {{0, 1}, {1, 1}};
  const ChannelPlan plan{2, {hops.data(), hops.size()}};

  ParityMask bulk_adv;
  Rng rng_bulk = Rng::stream(43, 1);
  const McSlotwiseResult a =
      run_repetition_slotwise_mc(slots, actions, plan, bulk_adv, rng_bulk);

  ParityMask inner;
  NoBulk scalar_adv(inner);
  Rng rng_scalar = Rng::stream(43, 1);
  const McSlotwiseResult b =
      run_repetition_slotwise_mc(slots, actions, plan, scalar_adv, rng_scalar);

  expect_identical_mc(a, b);
  EXPECT_EQ(rng_bulk.next_u64(), rng_scalar.next_u64());
  // With mean run length ~250 against a 64-segment sink, both accepted and
  // declined bulk calls must occur in one phase.
  EXPECT_GT(bulk_adv.overflows_, 0);
  EXPECT_GT(bulk_adv.bulk_calls_, bulk_adv.overflows_);
  // Parity accounting holds regardless of which path decided each slot.
  EXPECT_EQ(a.jammed_slots, slots / 2);
  EXPECT_EQ(a.jam_charges, slots / 2);
}

/// Cycles its mask 1 -> 2 -> 3 -> 1 on channels 0-1 (C >= 2), reading the
/// previous mask from a 1-slot history window.  Three distinct masks make
/// 64 sink segments end mid-cycle, so a bulk answer overflows into a
/// prefix, and the next offer of the same run only continues the cycle if
/// the engine materialized that prefix's last record.
class HistoryCycle final : public McSlotAdversary {
 public:
  static std::uint64_t next(std::uint64_t prev) {
    return prev == 1 ? 2 : prev == 2 ? 3 : 1;
  }
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    return next(history.empty() ? 0 : history.back().jam_mask);
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity> history,
                     McJamRunSink& sink) override {
    std::uint64_t mask = next(history.empty() ? 0 : history.back().jam_mask);
    for (SlotIndex s = begin; s < end && sink.append(1, mask); ++s) {
      mask = next(mask);
    }
    return true;
  }
  SlotCount history_window() const override { return 1; }
};

TEST(McJamRunMasksTest, PrefixAnswersMatchPerSlotPath) {
  // The parity strategy answering prefixes, and for C >= 2 one whose next
  // mask reads the prefix's last history record: a run that overflows is
  // answered in several calls, and every observable still matches NoBulk.
  for (const std::uint32_t C : {1u, 2u, 64u}) {
    const McSlotwiseResult r = expect_bulk_equals_fallback(
        [&] { return ParityMask(true); }, C, 60);
    EXPECT_EQ(r.jammed_slots, 8192u / 2) << "C=" << C;
    EXPECT_EQ(r.jam_charges, 8192u / 2) << "C=" << C;
    if (C >= 2) {
      expect_bulk_equals_fallback([] { return HistoryCycle{}; }, C, 62);
    }
  }
  // With events ~250 slots apart most runs overflow the 64-segment sink,
  // so the engine must have come back for the rest of some run.
  const SlotCount slots = 30000;
  std::vector<NodeAction> actions = {NodeAction{0.002, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 0.002}};
  std::vector<ChannelHop> hops = {{0, 1}, {1, 1}};
  const ChannelPlan plan{2, {hops.data(), hops.size()}};
  ParityMask adv(true);
  Rng rng = Rng::stream(43, 1);
  const McSlotwiseResult r =
      run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
  EXPECT_GT(adv.overflows_, 0);
  EXPECT_EQ(r.jammed_slots, slots / 2);
}

/// 1-slot lookback: jams channel 0 iff the previous slot carried a
/// transmission; the bulk form answers with the run-aware closed form
/// (only the first run slot can see a sender in its lookback).
class McBulkReactive final : public McSlotAdversary {
 public:
  explicit McBulkReactive(bool bulk) : bulk_(bulk) {}
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    return (!history.empty() && history.back().senders > 0) ? 1 : 0;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity> history,
                     McJamRunSink& sink) override {
    if (!bulk_) return false;
    ++bulk_calls_;
    const bool first = !history.empty() && history.back().senders > 0;
    sink.append(1, first ? 1 : 0);
    sink.append(end - begin - 1, 0);
    return true;
  }
  SlotCount history_window() const override { return 1; }

  bool bulk_;
  int bulk_calls_ = 0;
};

TEST(McJamRunMasksTest, BoundedWindowReactiveBulkMatchesPerSlot) {
  const SlotCount slots = 10000;
  const auto actions = sparse_actions();
  std::vector<ChannelHop> hops = {{0, 1}, {1, 0}, {1, 1}};
  const ChannelPlan plan{2, {hops.data(), hops.size()}};

  McBulkReactive bulk_adv(true);
  Rng rng_bulk = Rng::stream(47, 1);
  const McSlotwiseResult a =
      run_repetition_slotwise_mc(slots, actions, plan, bulk_adv, rng_bulk);

  McBulkReactive scalar_adv(false);
  Rng rng_scalar = Rng::stream(47, 1);
  const McSlotwiseResult b =
      run_repetition_slotwise_mc(slots, actions, plan, scalar_adv, rng_scalar);

  expect_identical_mc(a, b);
  EXPECT_EQ(rng_bulk.next_u64(), rng_scalar.next_u64());
  EXPECT_GT(bulk_adv.bulk_calls_, 0) << "fast path never exercised";
  EXPECT_EQ(scalar_adv.bulk_calls_, 0);
}

/// Answers every bulk run with a fixed two-channel mask while the per-slot
/// (event-slot) consultations audit that the engine materialized every
/// bulk-decided slot as a zero-sender record carrying that mask.
class McBulkHistoryAuditor final : public McSlotAdversary {
 public:
  static constexpr std::uint64_t kMask = 0b101;
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    complete_ = complete_ && history.size() == slot;
    for (std::size_t k = 0; k < history.size(); ++k) {
      ordered_ = ordered_ && history[k].slot == k &&
                 history[k].jam_mask == kMask;
    }
    return kMask;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity>,
                     McJamRunSink& sink) override {
    ++bulk_calls_;
    sink.append(end - begin, kMask);
    return true;
  }

  bool complete_ = true;
  bool ordered_ = true;
  int bulk_calls_ = 0;
};

TEST(McJamRunMasksTest, UnboundedHistoryMaterializedAcrossBulkRuns) {
  const SlotCount slots = 3000;
  std::vector<NodeAction> actions = {NodeAction{0.01, Payload::kMessage, 0.0}};
  std::vector<ChannelHop> hops = {{1, 2}};
  const ChannelPlan plan{4, {hops.data(), hops.size()}};
  McBulkHistoryAuditor adv;
  Rng rng = Rng::stream(53, 0);
  const McSlotwiseResult r =
      run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
  EXPECT_GT(adv.bulk_calls_, 0);
  EXPECT_TRUE(adv.complete_);
  EXPECT_TRUE(adv.ordered_);
  // 0b101 clipped by valid 0xF keeps 2 channels per slot.
  EXPECT_EQ(r.jam_charges, 2 * slots);
  EXPECT_EQ(r.jammed_slots, slots);
}

// The two mc engines are draw-for-draw deterministic: same stream, same
// result, independently of everything else in the process.
TEST(McEngineTest, DeterministicAcrossRuns) {
  const SlotCount slots = 256;
  const auto actions = mixed_actions();
  std::vector<ChannelHop> hops = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  const ChannelPlan plan{4, {hops.data(), hops.size()}};
  const auto run_once = [&]() {
    McUniformSplitJammer adv(Budget(500), 0.3, Rng::stream(37, 0));
    Rng rng = Rng::stream(41, 0);
    return run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
  };
  const McSlotwiseResult a = run_once();
  const McSlotwiseResult b = run_once();
  EXPECT_EQ(a.jam_charges, b.jam_charges);
  EXPECT_EQ(a.event_count, b.event_count);
  for (std::size_t u = 0; u < actions.size(); ++u) {
    EXPECT_TRUE(obs_equal(a.rep.obs[u], b.rep.obs[u])) << "node " << u;
  }
}

}  // namespace
}  // namespace rcb
