// Tests for the Figure-1 1-to-1 protocol (Theorem 1 claims at test scale).
#include "rcb/protocols/one_to_one.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rcb/adversary/spoofing.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/protocols/combined.hpp"
#include "rcb/protocols/ksy.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/runtime/scenario.hpp"

namespace rcb {
namespace {

TEST(OneToOneParamsTest, FirstEpochMatchesPaperFormula) {
  const OneToOneParams p = OneToOneParams::theory(0.01);
  // i0 = 11 + ceil(lg ln(8/eps)); ln(800) = 6.68, lg = 2.74 -> 3.
  EXPECT_EQ(p.first_epoch(), 14u);
}

TEST(OneToOneParamsTest, SlotProbabilityFollowsSqrtLaw) {
  const OneToOneParams p = OneToOneParams::theory(0.01);
  const double ln8e = std::log(8.0 / 0.01);
  for (std::uint32_t i = 14; i < 20; ++i) {
    EXPECT_NEAR(p.slot_probability(i),
                std::sqrt(ln8e / static_cast<double>(pow2(i - 1))), 1e-12);
  }
  // Doubling the epoch length divides p^2 by 2.
  const double r = p.slot_probability(15) / p.slot_probability(16);
  EXPECT_NEAR(r, std::sqrt(2.0), 1e-9);
}

TEST(OneToOneParamsTest, ProbabilityClampsToOneInTinyEpochs) {
  OneToOneParams p = OneToOneParams::sim(0.3);
  p.first_epoch_offset = 0;
  EXPECT_LE(p.slot_probability(1), 1.0);
}

TEST(OneToOneTest, NoJamDeliversReliably) {
  const OneToOneParams params = OneToOneParams::sim(0.05);
  int delivered = 0;
  const int trials = 500;
  for (int t = 0; t < trials; ++t) {
    DuelNoJam adv;
    Rng rng = Rng::stream(1000, t);
    const auto r = run_one_to_one(params, adv, rng);
    delivered += r.delivered;
    EXPECT_TRUE(r.alice_halted);
    EXPECT_TRUE(r.bob_halted);
    EXPECT_FALSE(r.hit_epoch_cap);
  }
  // Success probability must be at least 1 - eps (with slack for sampling).
  EXPECT_GE(static_cast<double>(delivered) / trials, 1.0 - 0.05 - 0.02);
}

TEST(OneToOneTest, NoJamCostIsNearTheEfficiencyFloor) {
  const OneToOneParams params = OneToOneParams::sim(0.01);
  const double ln8e = std::log(8.0 / 0.01);
  double total_cost = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    DuelNoJam adv;
    Rng rng = Rng::stream(2000, t);
    const auto r = run_one_to_one(params, adv, rng);
    total_cost += static_cast<double>(r.max_cost());
  }
  // tau = O(ln(1/eps)): with no jamming the protocol should finish within
  // the first couple of epochs, costing O(sqrt(2^i0 * ln(1/eps))) which is
  // O(ln(1/eps)) by the choice of i0.  Allow a generous constant.
  EXPECT_LT(total_cost / trials, 60.0 * ln8e);
}

TEST(OneToOneTest, AdversaryMustPayToDelayTermination) {
  const OneToOneParams params = OneToOneParams::sim(0.05);
  // With a budget, the FullDuelBlocker forces extra epochs, but once broke
  // the protocol finishes; node cost should stay well below adversary cost.
  double node_cost = 0.0, adv_cost = 0.0;
  int delivered = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    FullDuelBlocker adv(Budget(1 << 14), 0.6);
    Rng rng = Rng::stream(3000, t);
    const auto r = run_one_to_one(params, adv, rng);
    node_cost += static_cast<double>(r.max_cost());
    adv_cost += static_cast<double>(r.adversary_cost);
    delivered += r.delivered;
    EXPECT_FALSE(r.hit_epoch_cap);
  }
  EXPECT_GE(static_cast<double>(delivered) / trials, 1.0 - 0.05 - 0.03);
  EXPECT_GT(adv_cost / trials, 1000.0);       // the adversary did spend
  EXPECT_LT(node_cost, 0.5 * adv_cost);       // resource-competitive
}

TEST(OneToOneTest, LatencyIsLinearInAdversaryBudget) {
  const OneToOneParams params = OneToOneParams::sim(0.05);
  for (Cost budget : {Cost{1} << 12, Cost{1} << 15}) {
    double latency = 0.0, adv_cost = 0.0;
    const int trials = 60;
    for (int t = 0; t < trials; ++t) {
      FullDuelBlocker adv(Budget(budget), 0.6);
      Rng rng = Rng::stream(4000 + budget, t);
      const auto r = run_one_to_one(params, adv, rng);
      latency += static_cast<double>(r.latency);
      adv_cost += static_cast<double>(r.adversary_cost);
    }
    // Theorem 1: expected termination within O(T) slots.
    EXPECT_LT(latency, 40.0 * adv_cost / 0.6) << "budget=" << budget;
  }
}

TEST(OneToOneTest, CostScalesSublinearlyInT) {
  // Doubling T four times should multiply cost by ~4 (sqrt scaling), far
  // less than the 16x of linear scaling.
  const OneToOneParams params = OneToOneParams::sim(0.05);
  auto mean_cost = [&](Cost budget) {
    double sum = 0.0;
    const int trials = 120;
    for (int t = 0; t < trials; ++t) {
      FullDuelBlocker adv(Budget(budget), 0.6);
      Rng rng = Rng::stream(5000 + budget, t);
      sum += static_cast<double>(run_one_to_one(params, adv, rng).max_cost());
    }
    return sum / trials;
  };
  const double c1 = mean_cost(Cost{1} << 12);
  const double c2 = mean_cost(Cost{1} << 16);
  EXPECT_LT(c2 / c1, 8.0);  // sqrt predicts 4, linear predicts 16
  EXPECT_GT(c2 / c1, 1.5);  // but cost does grow
}

TEST(OneToOneTest, SpoofedNacksKeepAliceRunning) {
  // Under the Theorem-5 spoofing adversary, the Fig. 1 protocol loses its
  // advantage: Alice cannot distinguish a simulated Bob, so her cost tracks
  // the adversary's linearly instead of as sqrt(T).
  const OneToOneParams params = OneToOneParams::sim(0.05);
  OneToOneParams capped = params;
  capped.max_epoch = params.first_epoch() + 8;
  double alice = 0.0, adv_cost = 0.0;
  const int trials = 100;
  int capped_runs = 0;
  for (int t = 0; t < trials; ++t) {
    SpoofingNackAdversary adv(Budget::unlimited());
    Rng rng = Rng::stream(6000, t);
    const auto r = run_one_to_one(capped, adv, rng);
    alice += static_cast<double>(r.alice_cost);
    adv_cost += static_cast<double>(r.adversary_cost);
    capped_runs += r.hit_epoch_cap;
  }
  // Alice should essentially never halt on her own while spoofing persists.
  EXPECT_GT(capped_runs, trials * 9 / 10);
  // Costs are of the same order: no resource-competitive advantage.
  EXPECT_GT(alice, 0.2 * adv_cost);
  EXPECT_LT(alice, 5.0 * adv_cost);
}

TEST(OneToOneTest, ResultInvariants) {
  const OneToOneParams params = OneToOneParams::sim(0.1);
  for (int t = 0; t < 100; ++t) {
    SymmetricRandomDuelJammer adv(Budget(5000), 0.3);
    Rng rng = Rng::stream(7000, t);
    const auto r = run_one_to_one(params, adv, rng);
    EXPECT_GE(r.final_epoch, params.first_epoch());
    EXPECT_LE(r.final_epoch, params.max_epoch);
    EXPECT_GT(r.latency, 0u);
    // Costs cannot exceed the elapsed slots.
    EXPECT_LE(r.alice_cost, r.latency);
    EXPECT_LE(r.bob_cost, r.latency);
    if (!r.hit_epoch_cap) {
      EXPECT_TRUE(r.alice_halted);
      EXPECT_TRUE(r.bob_halted);
    }
  }
}

// An unbounded full-duel jammer used to drive the duels past the engines'
// 2^34-slot phase cap, aborting the process on a contract check.  The
// default epoch caps now stop at the last epoch whose phases fit.
TEST(EngineCapTest, HugeBudgetDuelsEndAtTheLastRunnableEpoch) {
  const Cost huge = Cost{1} << 40;
  {
    FullDuelBlocker adv(Budget(huge), 1.0);
    Rng rng(3);
    const OneToOneResult r =
        run_one_to_one(OneToOneParams::sim(0.01), adv, rng);
    EXPECT_TRUE(r.hit_epoch_cap);
    EXPECT_FALSE(r.aborted);
    EXPECT_EQ(r.final_epoch, event_key::kMaxPhaseEpoch);
  }
  {
    FullDuelBlocker adv(Budget(huge), 1.0);
    Rng rng(4);
    const OneToOneResult r = run_ksy(KsyParams{}, adv, rng);
    EXPECT_TRUE(r.hit_epoch_cap);
    EXPECT_EQ(r.final_epoch, event_key::kMaxPhaseEpoch);
  }
  // Combined: the KSY stream runs out of epochs first.  It must halt no
  // one, so the Fig. 1 stream still runs to its own last epoch.
  for (const double eps : {0.01, 0.2}) {
    FullDuelBlocker adv(Budget(huge), 1.0);
    Rng rng(5);
    CombinedParams params;
    params.fig1 = OneToOneParams::sim(eps);
    const OneToOneResult r = run_combined(params, adv, rng);
    EXPECT_TRUE(r.hit_epoch_cap) << eps;
    EXPECT_FALSE(r.aborted) << eps;
    EXPECT_EQ(r.final_epoch, event_key::kMaxPhaseEpoch) << eps;
    EXPECT_FALSE(r.alice_halted && r.bob_halted) << eps;
  }
  // The rcb_sim repro: --adversary=full_duel --budget=2^40 --q=1.
  for (const char* protocol : {"one_to_one", "ksy", "combined"}) {
    Scenario s;
    s.protocol = protocol;
    s.adversary = "full_duel";
    s.budget = huge;
    s.q = 1.0;
    s.trials = 2;
    ASSERT_EQ(validate_scenario(s), "") << protocol;
    const TrialOutcome out = run_scenario_trial(s, 0);
    EXPECT_FALSE(out.success) << protocol;
    EXPECT_FALSE(out.aborted) << protocol;
  }
}

TEST(EngineCapTest, ScenariosPastTheEngineCapsAreRefused) {
  Scenario s;
  s.protocol = "one_to_one";
  s.adversary = "full_duel";
  const std::uint32_t first = OneToOneParams::sim(s.eps).first_epoch();
  s.max_epoch_extra = event_key::kMaxPhaseEpoch - first;
  EXPECT_EQ(validate_scenario(s), "");
  s.max_epoch_extra += 1;
  EXPECT_NE(validate_scenario(s).find("max_epoch_extra"), std::string::npos);
  s.protocol = "broadcast";
  s.adversary = "suffix";
  s.max_epoch_extra = 40;
  EXPECT_NE(validate_scenario(s), "");
  // Multi-channel phases split into hop blocks, so C > 1 runs further.
  s.protocol = "mc_broadcast";
  s.adversary = "mc_focus";
  s.max_epoch_extra = event_key::kMaxPhaseEpoch + 1 - first;
  EXPECT_NE(validate_scenario(s), "");
  s.channels = 4;
  EXPECT_EQ(validate_scenario(s), "");
  // The packed event keys hold 2^23 nodes.
  s.max_epoch_extra = 0;
  s.n = static_cast<std::uint32_t>(event_key::kMaxNodes);
  EXPECT_EQ(validate_scenario(s), "");
  s.n += 1;
  EXPECT_NE(validate_scenario(s).find("n must be"), std::string::npos);
}

}  // namespace
}  // namespace rcb
