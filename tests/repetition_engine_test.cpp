// Tests for the event-driven repetition engine: channel semantics, cost
// accounting, l-uniform jamming, half-duplex behaviour, and the pinned
// output digests.
#include "rcb/sim/repetition_engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "rcb/common/simd.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/engine_workspace.hpp"
#include "rcb/sim/trace.hpp"

namespace rcb {
namespace {

RepetitionResult run(SlotCount slots, std::vector<NodeAction> actions,
                     const JamSchedule& jam, std::uint64_t seed = 1) {
  Rng rng(seed);
  return run_repetition(slots, actions, jam, rng);
}

TEST(RepetitionEngineTest, CertainSenderCertainListenerDelivers) {
  auto r = run(100,
               {NodeAction{1.0, Payload::kMessage, 0.0},
                NodeAction{0.0, Payload::kNoise, 1.0}},
               JamSchedule::none());
  EXPECT_EQ(r.obs[0].sends, 100u);
  EXPECT_EQ(r.obs[1].listens, 100u);
  EXPECT_EQ(r.obs[1].messages, 100u);
  EXPECT_EQ(r.obs[1].noise, 0u);
  EXPECT_EQ(r.obs[1].clear, 0u);
  EXPECT_EQ(r.obs[1].first_message_slot, 0u);
  EXPECT_EQ(r.obs[1].listens_until_first_message, 1u);
}

TEST(RepetitionEngineTest, NackPayloadIsHeardAsNack) {
  auto r = run(50,
               {NodeAction{1.0, Payload::kNack, 0.0},
                NodeAction{0.0, Payload::kNoise, 1.0}},
               JamSchedule::none());
  EXPECT_EQ(r.obs[1].nacks, 50u);
  EXPECT_EQ(r.obs[1].messages, 0u);
}

TEST(RepetitionEngineTest, NoisePayloadIsHeardAsNoise) {
  auto r = run(50,
               {NodeAction{1.0, Payload::kNoise, 0.0},
                NodeAction{0.0, Payload::kNoise, 1.0}},
               JamSchedule::none());
  EXPECT_EQ(r.obs[1].noise, 50u);
  EXPECT_EQ(r.obs[1].messages, 0u);
}

TEST(RepetitionEngineTest, SilenceIsClear) {
  auto r = run(64, {NodeAction{0.0, Payload::kNoise, 1.0}},
               JamSchedule::none());
  EXPECT_EQ(r.obs[0].clear, 64u);
  EXPECT_EQ(r.obs[0].heard_total(), 64u);
}

TEST(RepetitionEngineTest, TwoSendersCollideIntoNoise) {
  auto r = run(80,
               {NodeAction{1.0, Payload::kMessage, 0.0},
                NodeAction{1.0, Payload::kMessage, 0.0},
                NodeAction{0.0, Payload::kNoise, 1.0}},
               JamSchedule::none());
  EXPECT_EQ(r.obs[2].noise, 80u);
  EXPECT_EQ(r.obs[2].messages, 0u);
}

TEST(RepetitionEngineTest, JammedSlotsHeardAsNoiseEvenWithMessage) {
  auto r = run(100,
               {NodeAction{1.0, Payload::kMessage, 0.0},
                NodeAction{0.0, Payload::kNoise, 1.0}},
               JamSchedule::suffix(100, 40));
  EXPECT_EQ(r.obs[1].messages, 40u);
  EXPECT_EQ(r.obs[1].noise, 60u);
  EXPECT_EQ(r.obs[1].first_message_slot, 0u);
}

TEST(RepetitionEngineTest, JammedSilenceIsNoiseNotClear) {
  auto r = run(100, {NodeAction{0.0, Payload::kNoise, 1.0}},
               JamSchedule::all(100));
  EXPECT_EQ(r.obs[0].noise, 100u);
  EXPECT_EQ(r.obs[0].clear, 0u);
}

TEST(RepetitionEngineTest, HalfDuplexSendPreemptsListen) {
  // A node with send_prob = 1 and listen_prob = 1 only ever sends.
  auto r = run(100, {NodeAction{1.0, Payload::kMessage, 1.0}},
               JamSchedule::none());
  EXPECT_EQ(r.obs[0].sends, 100u);
  EXPECT_EQ(r.obs[0].listens, 0u);
  EXPECT_EQ(r.obs[0].heard_total(), 0u);
}

TEST(RepetitionEngineTest, SenderDoesNotHearItself) {
  // Sender always transmits; another node always listens.  The sender's own
  // message count stays zero even though it "listens" with probability 1 —
  // every listen is pre-empted.
  auto r = run(100,
               {NodeAction{1.0, Payload::kMessage, 1.0},
                NodeAction{0.0, Payload::kNoise, 1.0}},
               JamSchedule::none());
  EXPECT_EQ(r.obs[0].messages, 0u);
  EXPECT_EQ(r.obs[1].messages, 100u);
}

TEST(RepetitionEngineTest, CostEqualsActionCounts) {
  Rng rng(3);
  std::vector<NodeAction> actions = {
      NodeAction{0.3, Payload::kMessage, 0.2},
      NodeAction{0.1, Payload::kNoise, 0.4},
  };
  auto r = run_repetition(2048, actions, JamSchedule::none(), rng);
  for (const auto& o : r.obs) {
    EXPECT_EQ(o.heard_total(), o.listens);
    EXPECT_LE(o.sends + o.listens, 2048u);
  }
  // Sends should be near expectation.
  EXPECT_NEAR(static_cast<double>(r.obs[0].sends), 0.3 * 2048, 5 * std::sqrt(0.3 * 2048));
  EXPECT_NEAR(static_cast<double>(r.obs[1].sends), 0.1 * 2048, 5 * std::sqrt(0.1 * 2048));
}

TEST(RepetitionEngineTest, ProbabilisticDeliveryMatchesBirthdayParadox) {
  // Alice sends w.p. p, Bob listens w.p. p: P(Bob never hears m) over N
  // slots is (1 - p^2)^N.  This is the Fig. 1 send-phase core.
  const double p = 0.05;
  const SlotCount slots = 2048;
  const double p_fail = std::pow(1.0 - p * p, static_cast<double>(slots));
  int failures = 0;
  const int trials = 2000;
  Rng rng(4);
  std::vector<NodeAction> actions = {NodeAction{p, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, p}};
  for (int t = 0; t < trials; ++t) {
    auto r = run_repetition(slots, actions, JamSchedule::none(), rng);
    failures += (r.obs[1].messages == 0);
  }
  const double observed = static_cast<double>(failures) / trials;
  EXPECT_NEAR(observed, p_fail, 4.0 * std::sqrt(p_fail / trials) + 0.005);
}

TEST(RepetitionEngineTest, LUniformJamsOnlyTargetPartition) {
  // Partition 0 clear, partition 1 fully jammed; one sender of m.
  std::vector<NodeAction> actions = {
      NodeAction{1.0, Payload::kMessage, 0.0},
      NodeAction{0.0, Payload::kNoise, 1.0},  // partition 0
      NodeAction{0.0, Payload::kNoise, 1.0},  // partition 1
  };
  std::vector<std::uint32_t> partition = {0, 0, 1};
  std::vector<JamSchedule> schedules = {JamSchedule::none(),
                                        JamSchedule::all(60)};
  Rng rng(5);
  auto r = run_repetition_luniform(60, actions, partition, schedules, rng);
  EXPECT_EQ(r.obs[1].messages, 60u);
  EXPECT_EQ(r.obs[2].messages, 0u);
  EXPECT_EQ(r.obs[2].noise, 60u);
}

TEST(RepetitionEngineTest, ListensUntilFirstMessageStopsCounting) {
  // Message only delivered in the suffix after slot 50 (prefix jammed).
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  std::vector<SlotIndex> prefix;
  for (SlotIndex s = 0; s < 50; ++s) prefix.push_back(s);
  auto jam = JamSchedule::slots(100, std::move(prefix));
  Rng rng(6);
  auto r = run_repetition(100, actions, jam, rng);
  EXPECT_EQ(r.obs[1].first_message_slot, 50u);
  EXPECT_EQ(r.obs[1].listens_until_first_message, 51u);
  EXPECT_EQ(r.obs[1].listens, 100u);
}

TEST(RepetitionEngineTest, TraceRecordsActivity) {
  Trace trace(1000);
  trace.begin_phase(7);
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, 1.0}};
  Rng rng(7);
  run_repetition(10, actions, JamSchedule::none(), rng, &trace);
  ASSERT_EQ(trace.events().size(), 10u);
  EXPECT_EQ(trace.events()[0].phase, 7u);
  EXPECT_EQ(trace.events()[0].senders, 1u);
  EXPECT_EQ(trace.events()[0].listeners, 1u);
  EXPECT_FALSE(trace.events()[0].jammed);
  EXPECT_FALSE(trace.truncated());
}

TEST(RepetitionEngineTest, TraceTruncatesAtCapacity) {
  Trace trace(5);
  std::vector<NodeAction> actions = {NodeAction{1.0, Payload::kMessage, 0.0}};
  Rng rng(8);
  run_repetition(10, actions, JamSchedule::none(), rng, &trace);
  EXPECT_EQ(trace.events().size(), 5u);
  EXPECT_TRUE(trace.truncated());
}

TEST(RepetitionEngineTest, DeterministicForSameSeed) {
  std::vector<NodeAction> actions = {NodeAction{0.1, Payload::kMessage, 0.1},
                                     NodeAction{0.05, Payload::kNoise, 0.3}};
  Rng rng1(99), rng2(99);
  auto a = run_repetition(4096, actions, JamSchedule::none(), rng1);
  auto b = run_repetition(4096, actions, JamSchedule::none(), rng2);
  for (std::size_t u = 0; u < 2; ++u) {
    EXPECT_EQ(a.obs[u].sends, b.obs[u].sends);
    EXPECT_EQ(a.obs[u].listens, b.obs[u].listens);
    EXPECT_EQ(a.obs[u].clear, b.obs[u].clear);
    EXPECT_EQ(a.obs[u].messages, b.obs[u].messages);
  }
}

TEST(RepetitionEngineTest, SendOnTheLastRepresentableSlotIsSettled) {
  // A phase spanning the full 2^34-slot key range whose only event lands on
  // slot kMaxSlots - 1: the first geometric skip is floor(ln(u0) /
  // ln(1 - p)), and this p puts it at 2^34 - 0.5 for the stream's first
  // uniform u0.  pack(slot + 1, ...) wraps to zero there, so a group bound
  // built from it would never advance the sweep.
  const SlotCount slots = event_key::kMaxSlots;
  const double u0 = Rng(7).uniform_double_open();
  const double p =
      -std::expm1(std::log(u0) / (static_cast<double>(slots) - 0.5));
  const std::vector<NodeAction> actions = {
      NodeAction{p, Payload::kMessage, 0.0}};
  Rng rng(7);
  Trace trace(4);
  auto r = run_repetition(slots, actions, JamSchedule::none(), rng, &trace);
  EXPECT_EQ(r.obs[0].sends, 1u);
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events()[0].slot, slots - 1);
}

TEST(RepetitionEngineTest, EmptyActionsProduceEmptyResult) {
  Rng rng(1);
  std::vector<NodeAction> actions;
  auto r = run_repetition(100, actions, JamSchedule::none(), rng);
  EXPECT_TRUE(r.obs.empty());
}

// ---------------------------------------------------------------------------
// Pinned output.  These digests were captured from the slot-group sweep
// before it became a single pass over the sorted keys; the engine must
// reproduce them on every SIMD path.  Each digest folds every
// NodeObservation field, the Rng's next output after the call (its stream
// position), and every TraceEvent the call recorded.

enum class PinnedCase {
  kPerfectCca,
  kImperfectCca,
  kFaultPlan,
  kLUniform,
  kTraced,
  kLastSlot,
  kWide,
};

std::uint64_t pinned_digest(PinnedCase c, std::uint64_t seed) {
  SlotCount slots = 4096;
  std::vector<NodeAction> actions = {
      NodeAction{0.05, Payload::kMessage, 0.0},
      NodeAction{0.01, Payload::kNoise, 0.2},
      NodeAction{0.0, Payload::kNoise, 0.3},
      NodeAction{0.02, Payload::kNack, 0.05},
      NodeAction{0.03, Payload::kMessage, 0.4},
      NodeAction{0.0, Payload::kNoise, 0.6}};
  if (c == PinnedCase::kWide) {
    // 1024 nodes at about two senders and ten listeners per slot: most
    // slots hold several events of both kinds.
    actions.clear();
    for (NodeId u = 0; u < 1024; ++u) {
      actions.push_back(NodeAction{
          0.001 + 0.002 * static_cast<double>(u % 3),
          static_cast<Payload>(u % 3), 0.01});
    }
  }
  Rng rng = Rng::stream(seed, 1);
  if (c == PinnedCase::kLastSlot) {
    // See SendOnTheLastRepresentableSlotIsSettled: node 0's only send lands
    // on slot kMaxSlots - 1; node 1 listens there too.
    slots = event_key::kMaxSlots;
    const double u0 = Rng::stream(seed, 1).uniform_double_open();
    const double p =
        -std::expm1(std::log(u0) / (static_cast<double>(slots) - 0.5));
    actions = {NodeAction{p, Payload::kMessage, 0.0},
               NodeAction{0.0, Payload::kNoise, 1e-9}};
  }

  FaultConfig fcfg;
  fcfg.seed = 99;
  fcfg.crash_rate = 0.001;
  fcfg.restart_rate = 0.01;
  fcfg.loss_rate = 0.2;
  fcfg.corruption_rate = 0.1;
  fcfg.clock_skew_rate = 0.3;
  FaultPlan faults(fcfg);
  FaultPlan* fp = c == PinnedCase::kFaultPlan ? &faults : nullptr;
  const CcaModel cca = c == PinnedCase::kImperfectCca ? CcaModel{0.1, 0.05}
                       : c == PinnedCase::kFaultPlan  ? CcaModel{0.05, 0.05}
                                                      : CcaModel{};
  Trace trace(1 << 16);
  trace.begin_phase(3);
  Trace* tp = c == PinnedCase::kTraced || c == PinnedCase::kLastSlot ||
                      c == PinnedCase::kWide
                  ? &trace
                  : nullptr;

  RepetitionResult r;
  if (c == PinnedCase::kLUniform || c == PinnedCase::kTraced) {
    std::vector<SlotIndex> every_seventh;
    for (SlotIndex s = 0; s < slots; s += 7) every_seventh.push_back(s);
    const std::vector<JamSchedule> schedules = {
        JamSchedule::none(), JamSchedule::suffix(slots, 1500),
        JamSchedule::slots(slots, std::move(every_seventh))};
    const std::vector<std::uint32_t> partition = {0, 1, 2, 0, 1, 2};
    r = run_repetition_luniform(slots, actions, partition, schedules, rng, tp,
                                cca, fp);
  } else {
    r = run_repetition(slots, actions,
                       JamSchedule::blocking_fraction(slots, 0.4), rng, tp,
                       cca, fp);
  }

  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over 64-bit words
  const auto fold = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const NodeObservation& o : r.obs) {
    for (const std::uint64_t v :
         {o.sends, o.listens, o.clear, o.messages, o.nacks, o.noise,
          o.first_message_slot, o.listens_until_first_message}) {
      fold(v);
    }
  }
  fold(rng.next_u64());
  for (const TraceEvent& e : trace.events()) {
    for (const std::uint64_t v :
         {e.phase, e.slot, std::uint64_t{e.senders}, std::uint64_t{e.listeners},
          std::uint64_t{e.jammed}}) {
      fold(v);
    }
  }
  fold(trace.events().size());
  return h;
}

/// RAII SIMD-mode override so a failing EXPECT never leaks the mode into
/// later tests.
struct SimdModeGuard {
  explicit SimdModeGuard(simd::Mode m) { simd::set_mode(m); }
  ~SimdModeGuard() { simd::clear_mode_override(); }
};

void expect_pinned(PinnedCase c, std::uint64_t seed, std::uint64_t want) {
  for (const simd::Mode mode : {simd::Mode::kScalar, simd::Mode::kAvx2}) {
    if (mode == simd::Mode::kAvx2 && !simd::avx2_available()) continue;
    SimdModeGuard guard(mode);
    EXPECT_EQ(pinned_digest(c, seed), want)
        << "case " << static_cast<int>(c) << ", simd "
        << static_cast<int>(mode);
  }
}

TEST(RepetitionEnginePinnedTest, PerfectCca) {
  expect_pinned(PinnedCase::kPerfectCca, 2000, 0x13201f7806e546e3ull);
}

TEST(RepetitionEnginePinnedTest, ImperfectCca) {
  expect_pinned(PinnedCase::kImperfectCca, 2001, 0xa41d3dd0f6c3fb73ull);
}

TEST(RepetitionEnginePinnedTest, ActiveFaultPlan) {
  expect_pinned(PinnedCase::kFaultPlan, 2002, 0x0fcc70e1d58944ddull);
}

TEST(RepetitionEnginePinnedTest, LUniformThreePartitions) {
  expect_pinned(PinnedCase::kLUniform, 2003, 0x172a1c9d32683f07ull);
}

TEST(RepetitionEnginePinnedTest, TraceAttached) {
  expect_pinned(PinnedCase::kTraced, 2004, 0x112621aa48a14f71ull);
}

TEST(RepetitionEnginePinnedTest, SendOnTheLastRepresentableSlot) {
  expect_pinned(PinnedCase::kLastSlot, 2005, 0x45661dd9f1b13c57ull);
}

TEST(RepetitionEnginePinnedTest, WideCallWithMultiEventSlots) {
  expect_pinned(PinnedCase::kWide, 2006, 0x5bbeb68f453e0866ull);
}

}  // namespace
}  // namespace rcb
