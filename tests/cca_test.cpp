// Tests for the imperfect-CCA channel model.
#include "rcb/sim/cca.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rcb/protocols/broadcast_n.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/repetition_engine.hpp"

namespace rcb {
namespace {

TEST(CcaModelTest, PerfectModelIsIdentity) {
  const CcaModel cca;
  EXPECT_TRUE(cca.perfect());
  Rng rng(1);
  for (Reception r : {Reception::kClear, Reception::kMessage,
                      Reception::kNack, Reception::kNoise}) {
    EXPECT_EQ(cca.apply(r, rng), r);
  }
}

TEST(CcaModelTest, FalseBusyFlipsClearAtRate) {
  const CcaModel cca{0.3, 0.0};
  Rng rng(2);
  int flipped = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    flipped += (cca.apply(Reception::kClear, rng) == Reception::kNoise);
  }
  EXPECT_NEAR(static_cast<double>(flipped) / trials, 0.3, 0.015);
}

TEST(CcaModelTest, MissedDetectionFlipsNoiseAtRate) {
  const CcaModel cca{0.0, 0.2};
  Rng rng(3);
  int flipped = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    flipped += (cca.apply(Reception::kNoise, rng) == Reception::kClear);
  }
  EXPECT_NEAR(static_cast<double>(flipped) / trials, 0.2, 0.015);
}

TEST(CcaModelTest, MessagesNeverAffected) {
  const CcaModel cca{0.9, 0.9};
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(cca.apply(Reception::kMessage, rng), Reception::kMessage);
    ASSERT_EQ(cca.apply(Reception::kNack, rng), Reception::kNack);
  }
}

TEST(CcaEngineTest, FalseBusyShiftsClearCountsInRepetition) {
  // Pure listener over a silent channel: every slot is ideally clear;
  // with false_busy = 0.25 roughly a quarter read as noise.
  std::vector<NodeAction> actions = {NodeAction{0.0, Payload::kNoise, 1.0}};
  Rng rng(5);
  const CcaModel cca{0.25, 0.0};
  const auto r = run_repetition(4000, actions, JamSchedule::none(), rng,
                                nullptr, cca);
  const auto& obs = r.obs[0];
  EXPECT_EQ(obs.clear + obs.noise, 4000u);
  EXPECT_NEAR(static_cast<double>(obs.noise), 1000.0, 150.0);
}

TEST(CcaEngineTest, MissedDetectionHidesJamming) {
  std::vector<NodeAction> actions = {NodeAction{0.0, Payload::kNoise, 1.0}};
  Rng rng(6);
  const CcaModel cca{0.0, 0.5};
  const auto r = run_repetition(4000, actions, JamSchedule::suffix(4000, 0),
                                rng, nullptr, cca);
  const auto& obs = r.obs[0];
  EXPECT_NEAR(static_cast<double>(obs.clear), 2000.0, 200.0);
}

TEST(CcaEngineTest, PerfectModelPreservesDeterminism) {
  // The default (perfect) model must not consume RNG draws: results with
  // and without the explicit default are identical.
  std::vector<NodeAction> actions = {NodeAction{0.1, Payload::kMessage, 0.2},
                                     NodeAction{0.0, Payload::kNoise, 0.5}};
  Rng rng1(7), rng2(7);
  const auto a =
      run_repetition(2048, actions, JamSchedule::blocking_fraction(2048, 0.3),
                     rng1);
  const auto b =
      run_repetition(2048, actions, JamSchedule::blocking_fraction(2048, 0.3),
                     rng2, nullptr, CcaModel{});
  EXPECT_EQ(a.obs[1].clear, b.obs[1].clear);
  EXPECT_EQ(a.obs[1].noise, b.obs[1].noise);
  EXPECT_EQ(a.obs[1].messages, b.obs[1].messages);
}

TEST(CcaBroadcastTest, ModerateFalseBusyStillCompletes) {
  BroadcastNParams params = BroadcastNParams::sim();
  params.cca = CcaModel{0.05, 0.0};
  NoJamAdversary adv;
  Rng rng(8);
  const auto r = run_broadcast_n(16, params, adv, rng);
  EXPECT_TRUE(r.all_informed);
  EXPECT_TRUE(r.all_terminated);
}

TEST(CcaBroadcastTest, FalseBusyActsLikeFreeJamming) {
  // Clear slots silently reclassified as busy suppress C_u, slowing S_u
  // growth: cost rises relative to a perfect radio — without the adversary
  // spending anything.
  double cost_perfect = 0.0, cost_noisy = 0.0;
  const int trials = 6;
  for (int t = 0; t < trials; ++t) {
    {
      BroadcastNParams params = BroadcastNParams::sim();
      NoJamAdversary adv;
      Rng rng = Rng::stream(9, t);
      cost_perfect += run_broadcast_n(16, params, adv, rng).mean_cost;
    }
    {
      BroadcastNParams params = BroadcastNParams::sim();
      params.cca = CcaModel{0.15, 0.0};
      NoJamAdversary adv;
      Rng rng = Rng::stream(9, t);
      cost_noisy += run_broadcast_n(16, params, adv, rng).mean_cost;
    }
  }
  EXPECT_GT(cost_noisy, cost_perfect);
}

}  // namespace
}  // namespace rcb
