// Tests for the slotwise engines (sim/mc_slot_engine.hpp): the pinned
// single-channel (C=1) output, the single-channel model's behaviour and
// history contract, the event-vs-dense crosscheck, per-channel budget
// accounting, the bulk consultation contract, and the multi-channel edge
// cases (C > n, everyone on one channel, a jammer spending its budget on an
// empty channel).
#include "rcb/sim/mc_slot_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "rcb/adversary/budget.hpp"
#include "rcb/adversary/mc_strategies.hpp"
#include "rcb/common/simd.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/channel_plan.hpp"
#include "rcb/sim/engine_kernels.hpp"
#include "rcb/sim/jam_schedule.hpp"

namespace rcb {
namespace {

const ChannelPlan kSingle{1, {}};

/// Jams iff the previous slot carried a transmission (1-slot lookback),
/// consulted slot by slot.
class Reactive final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    return !history.empty() && history.back().senders > 0 ? 1 : 0;
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
// Pinned single-channel output.  These digests were captured from the
// dedicated single-channel slotwise engines (event and dense) before they
// were folded into this engine; at C=1 the engine must reproduce them on
// every SIMD path.  Each digest folds every NodeObservation field plus
// jammed_slots and event_count.

std::uint64_t slotwise_digest(const McSlotwiseResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over 64-bit words
  const auto fold = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const NodeObservation& o : r.rep.obs) {
    for (const std::uint64_t v :
         {o.sends, o.listens, o.clear, o.messages, o.nacks, o.noise,
          o.first_message_slot, o.listens_until_first_message}) {
      fold(v);
    }
  }
  fold(r.jammed_slots);
  fold(r.event_count);
  return h;
}

/// Reads the whole history on every call: its decisions pin the content of
/// every materialized record.
class HistoryFold final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < history.size(); ++k) {
      sum += (history[k].slot == k ? 0 : 1000) + history[k].senders +
             2 * (history[k].jam_mask & 1);
    }
    return (sum + slot) % 3 == 0 ? 1 : 0;
  }
};

/// Jams every third slot and declines every bulk consultation.
class EveryThirdSlot final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity>) override {
    return slot % 3 == 0 ? 1 : 0;
  }
  SlotCount history_window() const override { return 0; }
};

enum class PinnedCase {
  kReactiveWindow1,
  kUnboundedHistory,
  kScheduleInBulk,
  kDeclinesBulk,
  kImperfectCca,
  kFaultPlan,
};

/// Event and dense digests of one pinned case at C=1, with `seed`.
std::array<std::uint64_t, 2> pinned_digests(PinnedCase c, std::uint64_t seed) {
  const SlotCount slots = 2048;
  const std::vector<NodeAction> actions = {
      NodeAction{0.05, Payload::kMessage, 0.0},
      NodeAction{0.01, Payload::kNoise, 0.2},
      NodeAction{0.0, Payload::kNoise, 0.3},
      NodeAction{0.02, Payload::kNack, 0.05}};
  FaultConfig fcfg;
  fcfg.seed = 99;
  fcfg.crash_rate = 0.001;
  fcfg.restart_rate = 0.01;
  fcfg.loss_rate = 0.2;
  fcfg.corruption_rate = 0.1;
  fcfg.clock_skew_rate = 0.1;
  const CcaModel cca = c == PinnedCase::kImperfectCca ? CcaModel{0.1, 0.05}
                       : c == PinnedCase::kFaultPlan  ? CcaModel{0.05, 0.05}
                                                      : CcaModel{};
  std::array<std::uint64_t, 2> out{};
  for (const bool dense : {false, true}) {
    Reactive reactive;
    HistoryFold history_fold;
    McScheduleAdversary schedule(
        {JamSchedule::blocking_fraction(slots, 0.4)});
    EveryThirdSlot every_third;
    McSlotAdversary* adv = &schedule;
    if (c == PinnedCase::kReactiveWindow1 || c == PinnedCase::kFaultPlan) {
      adv = &reactive;
    } else if (c == PinnedCase::kUnboundedHistory) {
      adv = &history_fold;
    } else if (c == PinnedCase::kDeclinesBulk) {
      adv = &every_third;
    }
    FaultPlan faults(fcfg);
    FaultPlan* fp = c == PinnedCase::kFaultPlan ? &faults : nullptr;
    Rng rng = Rng::stream(seed, 1);
    out[dense ? 1 : 0] = slotwise_digest(
        dense ? run_repetition_slotwise_mc_dense(slots, actions, kSingle,
                                                 *adv, rng, cca, fp)
              : run_repetition_slotwise_mc(slots, actions, kSingle, *adv,
                                           rng, cca, fp));
  }
  return out;
}

/// RAII SIMD-mode override so a failing EXPECT never leaks the mode into
/// later tests.
struct SimdModeGuard {
  explicit SimdModeGuard(simd::Mode m) { simd::set_mode(m); }
  ~SimdModeGuard() { simd::clear_mode_override(); }
};

void expect_pinned(PinnedCase c, std::uint64_t seed, std::uint64_t event,
                   std::uint64_t dense) {
  for (const simd::Mode mode : {simd::Mode::kScalar, simd::Mode::kAvx2}) {
    if (mode == simd::Mode::kAvx2 && !simd::avx2_available()) continue;
    SimdModeGuard guard(mode);
    const std::array<std::uint64_t, 2> got = pinned_digests(c, seed);
    EXPECT_EQ(got[0], event) << "event engine, case " << static_cast<int>(c)
                             << ", simd " << static_cast<int>(mode);
    EXPECT_EQ(got[1], dense) << "dense engine, case " << static_cast<int>(c)
                             << ", simd " << static_cast<int>(mode);
  }
}

TEST(McDegenerationTest, C1MatchesSingleChannelExactly) {
  expect_pinned(PinnedCase::kScheduleInBulk, 1002, 0xfba70a28481dcab1ull,
                0x61ffa9b0a53678fdull);
  expect_pinned(PinnedCase::kDeclinesBulk, 1003, 0xf4e2f4778a2639fdull,
                0xc7f5bdc1eeadc23cull);
}

TEST(McDegenerationTest, C1MatchesUnderCcaDrift) {
  expect_pinned(PinnedCase::kImperfectCca, 1004, 0xedb591ce3035798dull,
                0x8b61bd486d2d7efcull);
}

TEST(McDegenerationTest, C1MatchesUnderFaults) {
  expect_pinned(PinnedCase::kFaultPlan, 1005, 0x3a681647d07ba0d9ull,
                0x671b240ee17f7510ull);
}

TEST(McDegenerationTest, C1MatchesWithReactiveAdversaryHistory) {
  expect_pinned(PinnedCase::kReactiveWindow1, 1000, 0x5181c924cc54096dull,
                0x0a81d085c5f7ac3aull);
  expect_pinned(PinnedCase::kUnboundedHistory, 1001, 0x33493252afec8c5bull,
                0x7ce4dd4f6792dabaull);
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

/// Random single-channel jammer whose bulk answer replays its draws and,
/// when the run overflows the sink, declines by restoring its snapshot.
class RandomMaskJammer final : public McSlotAdversary {
 public:
  explicit RandomMaskJammer(Rng rng) : rng_(rng) {}
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity>) override {
    return rng_.bernoulli(0.5) ? 1 : 0;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity>,
                     McJamRunSink& sink) override {
    const Rng snapshot = rng_;
    for (SlotIndex s = begin; s < end; ++s) {
      if (!sink.append(1, rng_.bernoulli(0.5) ? 1 : 0)) {
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
  // A decline must leave the adversary exactly as before the attempt: its
  // next masks equal an untouched twin's, and an engine run that mixes
  // declines with whole answers matches the per-slot fallback.
  RandomMaskJammer probe(Rng::stream(72, 0));
  RandomMaskJammer twin(Rng::stream(72, 0));
  McJamRunSink sink;
  ASSERT_FALSE(probe.jam_run_masks(0, 4096, 1, {}, sink));
  for (SlotIndex s = 0; s < 256; ++s) {
    ASSERT_EQ(probe.jam_mask(s, 1, {}), twin.jam_mask(s, 1, {}))
        << "slot " << s;
  }
  expect_bulk_equals_fallback(
      [] { return RandomMaskJammer(Rng::stream(73, 0)); }, 1, 74);
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

/// Answers every bulk run with a fixed mask (valid on the channels it is
/// run with) while the per-slot (event-slot) consultations audit that the
/// engine materialized every bulk-decided slot as a zero-sender record
/// carrying that mask.
class McBulkHistoryAuditor final : public McSlotAdversary {
 public:
  explicit McBulkHistoryAuditor(std::uint64_t mask) : mask_(mask) {}
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    complete_ = complete_ && history.size() == slot;
    for (std::size_t k = 0; k < history.size(); ++k) {
      ordered_ = ordered_ && history[k].slot == k &&
                 history[k].jam_mask == mask_;
    }
    return mask_;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity>,
                     McJamRunSink& sink) override {
    ++bulk_calls_;
    sink.append(end - begin, mask_);
    return true;
  }

  std::uint64_t mask_;
  bool complete_ = true;
  bool ordered_ = true;
  int bulk_calls_ = 0;
};

TEST(McJamRunMasksTest, UnboundedHistoryMaterializedAcrossBulkRuns) {
  const SlotCount slots = 3000;
  std::vector<NodeAction> actions = {NodeAction{0.01, Payload::kMessage, 0.0}};
  std::vector<ChannelHop> hops = {{1, 2}};
  const ChannelPlan plan{4, {hops.data(), hops.size()}};
  McBulkHistoryAuditor adv(0b101);
  Rng rng = Rng::stream(53, 0);
  const McSlotwiseResult r =
      run_repetition_slotwise_mc(slots, actions, plan, adv, rng);
  EXPECT_GT(adv.bulk_calls_, 0);
  EXPECT_TRUE(adv.complete_);
  EXPECT_TRUE(adv.ordered_);
  // 0b101 on 4 channels jams 2 channels per slot.
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

// ---------------------------------------------------------------------------
// The single-channel model: the engine at C=1, where a mask is 0 or 1.

McSlotwiseResult run_c1(SlotCount slots, std::span<const NodeAction> actions,
                        McSlotAdversary& adv, Rng& rng) {
  return run_repetition_slotwise_mc(slots, actions, kSingle, adv, rng);
}

/// Jams every slot.
class AlwaysJam final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity>) override {
    return 1;
  }
};

TEST(SlotEngineTest, DeliveryWithoutJamming) {
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  McNoJam adv;
  Rng rng(1);
  auto r = run_c1(100, actions, adv, rng);
  EXPECT_EQ(r.rep.obs[1].messages, 100u);
  EXPECT_EQ(r.jammed_slots, 0u);
}

TEST(SlotEngineTest, FullJamBlocksEverything) {
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  AlwaysJam adv;
  Rng rng(2);
  auto r = run_c1(100, actions, adv, rng);
  EXPECT_EQ(r.rep.obs[1].messages, 0u);
  EXPECT_EQ(r.rep.obs[1].noise, 100u);
  EXPECT_EQ(r.jammed_slots, 100u);
  EXPECT_EQ(r.jam_charges, 100u);
}

TEST(SlotEngineTest, ReactiveAdversarySeesHistory) {
  // Sender transmits in every slot, so the reactive adversary jams every
  // slot except the first.
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  Reactive adv;
  Rng rng(3);
  auto r = run_c1(50, actions, adv, rng);
  EXPECT_EQ(r.jammed_slots, 49u);
  EXPECT_EQ(r.rep.obs[1].messages, 1u);
  EXPECT_EQ(r.rep.obs[1].first_message_slot, 0u);
}

TEST(SlotEngineTest, HalfDuplexSendWins) {
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 1.0}};
  McNoJam adv;
  Rng rng(4);
  auto r = run_c1(30, actions, adv, rng);
  EXPECT_EQ(r.rep.obs[0].sends, 30u);
  EXPECT_EQ(r.rep.obs[0].listens, 0u);
}

TEST(SlotEngineTest, CollisionsAreNoise) {
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{1.0, Payload::kNack, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  McNoJam adv;
  Rng rng(5);
  auto r = run_c1(40, actions, adv, rng);
  EXPECT_EQ(r.rep.obs[2].noise, 40u);
}

TEST(SlotEngineTest, ClearSlotCountingMatchesActivity) {
  // Nobody sends: listener hears clear in every listened slot.
  std::vector<NodeAction> actions = {NodeAction{0.0, Payload::kNoise, 0.5}};
  McNoJam adv;
  Rng rng(6);
  auto r = run_c1(1000, actions, adv, rng);
  EXPECT_EQ(r.rep.obs[0].clear, r.rep.obs[0].listens);
  EXPECT_GT(r.rep.obs[0].listens, 400u);
  EXPECT_LT(r.rep.obs[0].listens, 600u);
}

/// Unbounded adversary that audits the history it is fed.
class HistoryAuditor final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    // Every elapsed slot must be materialized, in order, empty slots
    // included (zero-sender records).
    complete_ = complete_ && history.size() == slot;
    for (std::size_t k = 0; k < history.size(); ++k) {
      ordered_ = ordered_ && history[k].slot == k;
      max_senders_ = std::max(max_senders_, history[k].senders);
    }
    return 0;
  }

  bool complete_ = true;
  bool ordered_ = true;
  std::uint32_t max_senders_ = 0;
};

TEST(SlotEngineHistoryTest, EmptySlotsAreMaterializedAsZeroSenderRecords) {
  // Nobody ever transmits: the adversary still sees one record per slot.
  std::vector<NodeAction> actions = {NodeAction{0.0, Payload::kNoise, 0.1}};
  HistoryAuditor adv;
  Rng rng(7);
  run_c1(200, actions, adv, rng);
  EXPECT_TRUE(adv.complete_);
  EXPECT_TRUE(adv.ordered_);
  EXPECT_EQ(adv.max_senders_, 0u);
}

TEST(SlotEngineHistoryTest, SendersAppearInHistory) {
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0}};
  HistoryAuditor adv;
  Rng rng(8);
  run_c1(50, actions, adv, rng);
  EXPECT_TRUE(adv.complete_);
  EXPECT_TRUE(adv.ordered_);
  EXPECT_EQ(adv.max_senders_, 1u);
}

/// Bounded adversary auditing the suffix view the engine materializes.
class WindowAuditor final : public McSlotAdversary {
 public:
  explicit WindowAuditor(SlotCount window) : window_(window) {}

  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    const std::size_t expected =
        std::min<std::size_t>(slot, static_cast<std::size_t>(window_));
    ok_ = ok_ && history.size() == expected;
    // The view must be the contiguous suffix ending at slot - 1.
    for (std::size_t k = 0; k < history.size(); ++k) {
      ok_ = ok_ && history[k].slot == slot - history.size() + k;
    }
    return 0;
  }
  SlotCount history_window() const override { return window_; }

  bool ok_ = true;

 private:
  SlotCount window_;
};

TEST(SlotEngineHistoryTest, BoundedWindowSeesExactSuffix) {
  std::vector<NodeAction> actions = {NodeAction{0.3, Payload::kMessage, 0.3}};
  for (SlotCount window : {SlotCount{1}, SlotCount{3}, SlotCount{64},
                           SlotCount{1000}, SlotCount{5000}}) {
    WindowAuditor adv(window);
    Rng rng(9);
    run_c1(1000, actions, adv, rng);
    EXPECT_TRUE(adv.ok_) << "window=" << window;
  }
}

TEST(SlotEngineHistoryTest, ZeroWindowAlwaysSeesEmptyHistory) {
  WindowAuditor adv(0);
  std::vector<NodeAction> actions = {NodeAction{0.5, Payload::kMessage, 0.5}};
  Rng rng(10);
  run_c1(300, actions, adv, rng);
  EXPECT_TRUE(adv.ok_);
}

TEST(SlotEngineEventTest, EventCountMatchesChargedEnergy) {
  std::vector<NodeAction> actions = {NodeAction{0.4, Payload::kMessage, 0.4},
                                     NodeAction{0.0, Payload::kNoise, 0.7}};
  McNoJam adv;
  Rng rng(11);
  const auto r = run_c1(500, actions, adv, rng);
  Cost charged = 0;
  for (const auto& o : r.rep.obs) charged += o.sends + o.listens;
  EXPECT_EQ(r.event_count, charged);
  EXPECT_GT(r.event_count, 0u);
}

TEST(SlotEngineEventTest, MatchesDenseReferenceOnDeterministicActions) {
  // With action probabilities 0/1 both paths are randomness-free, so the
  // event-driven engine must reproduce the dense reference exactly.
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0},
                                     NodeAction{1.0, Payload::kNoise, 1.0}};
  Reactive adv_event, adv_dense;
  Rng rng_event(12), rng_dense(12);
  expect_identical_mc(
      run_c1(80, actions, adv_event, rng_event),
      run_repetition_slotwise_mc_dense(80, actions, kSingle, adv_dense,
                                       rng_dense));
}

TEST(SlotEngineEventTest, ZeroSlotsIsANoOp) {
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0}};
  McNoJam adv;
  Rng rng(13);
  const auto r = run_c1(0, actions, adv, rng);
  EXPECT_EQ(r.event_count, 0u);
  EXPECT_EQ(r.jammed_slots, 0u);
  EXPECT_EQ(r.rep.obs[0].sends, 0u);
}

TEST(PushHistoryCompactedTest, PinsTwoXWatermarkErasePolicy) {
  Arena arena;
  ArenaVector<McSlotActivity> hist{arena};
  const SlotCount window = 4;

  // Unbounded: every record is retained.
  for (SlotIndex s = 0; s < 20; ++s) {
    engine_kernels::push_history_compacted(hist, McSlotActivity{s, 0, 0, 0},
                                           window, false);
  }
  EXPECT_EQ(hist.size(), 20u);
  hist.clear();

  // Bounded: the buffer grows to 2 * window - 1, and the push that reaches
  // the 2 * window watermark compacts it down to the trailing `window`
  // records — never fewer, never more.
  for (SlotIndex s = 0; s < 2 * window - 1; ++s) {
    engine_kernels::push_history_compacted(
        hist, McSlotActivity{s, 0, s & 1, 0}, window, true);
    EXPECT_EQ(hist.size(), static_cast<std::size_t>(s + 1));
  }
  engine_kernels::push_history_compacted(
      hist, McSlotActivity{2 * window - 1, 0, 1, 0}, window, true);
  ASSERT_EQ(hist.size(), static_cast<std::size_t>(window));
  for (std::size_t k = 0; k < hist.size(); ++k) {
    EXPECT_EQ(hist.data()[k].slot, window + k);  // trailing [4, 8)
    EXPECT_EQ(hist.data()[k].jam_mask, (window + k) & 1);
  }
}

TEST(McJamRunSinkTest, MergesAdjacentSameMaskSegments) {
  McJamRunSink sink;
  EXPECT_TRUE(sink.append(3, 1));
  EXPECT_TRUE(sink.append(2, 1));
  EXPECT_TRUE(sink.append(1, 0));
  ASSERT_EQ(sink.segments().size(), 2u);
  EXPECT_EQ(sink.segments()[0].length, 5u);
  EXPECT_EQ(sink.segments()[0].decision, 1u);
  EXPECT_EQ(sink.segments()[1].length, 1u);
  EXPECT_EQ(sink.segments()[1].decision, 0u);
  EXPECT_EQ(sink.total(), 6u);
}

TEST(McJamRunSinkTest, ZeroLengthAppendIsANoOp) {
  McJamRunSink sink;
  EXPECT_TRUE(sink.append(0, 1));
  EXPECT_EQ(sink.segments().size(), 0u);
  EXPECT_EQ(sink.total(), 0u);
}

TEST(McJamRunSinkTest, CapacityOverflowLeavesSinkUnchanged) {
  McJamRunSink sink;
  for (std::size_t i = 0; i < McJamRunSink::kMaxSegments; ++i) {
    ASSERT_TRUE(sink.append(1, i % 2));
  }
  const SlotCount total = sink.total();
  // A 65th alternation must fail without growing the sink; a same-mask
  // append still merges into the last segment.
  EXPECT_FALSE(sink.append(1, McJamRunSink::kMaxSegments % 2));
  EXPECT_EQ(sink.total(), total);
  EXPECT_EQ(sink.segments().size(), McJamRunSink::kMaxSegments);
  EXPECT_TRUE(sink.append(4, (McJamRunSink::kMaxSegments - 1) % 2));
  EXPECT_EQ(sink.total(), total + 4);
  sink.reset();
  EXPECT_EQ(sink.segments().size(), 0u);
  EXPECT_EQ(sink.total(), 0u);
}

/// Jams slot s iff s % 3 == 0 — history-oblivious, so a bulk answer is a
/// pure function of [begin, end).  `bulk` selects whether it answers; an
/// answer that overflows the sink declines.
class PeriodicJammer final : public McSlotAdversary {
 public:
  explicit PeriodicJammer(bool bulk) : bulk_(bulk) {}
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t,
                         std::span<const McSlotActivity>) override {
    return slot % 3 == 0 ? 1 : 0;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity>,
                     McJamRunSink& sink) override {
    if (!bulk_) return false;
    for (SlotIndex s = begin; s < end; ++s) {
      if (!sink.append(1, s % 3 == 0 ? 1 : 0)) return false;
    }
    return true;
  }
  SlotCount history_window() const override { return 0; }

 private:
  bool bulk_;
};

TEST(SlotEngineJamRunTest, BulkAnswerMatchesPerSlotPathExactly) {
  // Same strategy with and without the bulk fast path: every observable
  // (per-node counters, jam count, event count, final RNG position) must
  // coincide — the bulk answer is a pure optimization.
  std::vector<NodeAction> actions = {NodeAction{0.01, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 0.01}};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    PeriodicJammer bulk(true), scalar(false);
    Rng rng_bulk(seed), rng_scalar(seed);
    expect_identical_mc(run_c1(2000, actions, bulk, rng_bulk),
                        run_c1(2000, actions, scalar, rng_scalar));
    EXPECT_EQ(rng_bulk.next_u64(), rng_scalar.next_u64()) << "seed " << seed;
  }
}

TEST(SlotEngineJamRunTest, ReactiveBulkAnswerMatchesPerSlotPath) {
  std::vector<NodeAction> actions = {NodeAction{0.005, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 0.005}};
  for (std::uint64_t seed = 20; seed <= 30; ++seed) {
    McBulkReactive bulk(true), scalar(false);
    Rng rng_bulk(seed), rng_scalar(seed);
    expect_identical_mc(run_c1(5000, actions, bulk, rng_bulk),
                        run_c1(5000, actions, scalar, rng_scalar));
    EXPECT_EQ(rng_bulk.next_u64(), rng_scalar.next_u64()) << "seed " << seed;
    EXPECT_GT(bulk.bulk_calls_, 0) << "fast path never exercised";
    EXPECT_EQ(scalar.bulk_calls_, 0);
  }
}

TEST(SlotEngineJamRunTest, DecliningAdversaryStillRunsCorrectly) {
  // PeriodicJammer's per-slot appends overflow the sink on runs longer than
  // ~2 * kMaxSegments slots, forcing the mid-call decline path; with p this
  // sparse both accepted and declined runs occur in one phase.
  std::vector<NodeAction> actions = {NodeAction{0.002, Payload::kMessage, 0.0}};
  PeriodicJammer bulk(true), scalar(false);
  Rng rng_bulk(7), rng_scalar(7);
  const auto a = run_c1(20000, actions, bulk, rng_bulk);
  expect_identical_mc(a, run_c1(20000, actions, scalar, rng_scalar));
  // slots 0, 3, 6, ... jammed regardless of which path decided them.
  EXPECT_EQ(a.jammed_slots, (20000 + 2) / 3);
}

TEST(SlotEngineJamRunTest, UnboundedHistoryIsMaterializedAcrossBulkRuns) {
  std::vector<NodeAction> actions = {NodeAction{0.01, Payload::kMessage, 0.0}};
  McBulkHistoryAuditor adv(1);
  Rng rng(14);
  run_c1(3000, actions, adv, rng);
  EXPECT_GT(adv.bulk_calls_, 0);
  EXPECT_TRUE(adv.complete_);
  EXPECT_TRUE(adv.ordered_);
}

}  // namespace
}  // namespace rcb
