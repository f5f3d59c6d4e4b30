// Tests for the fault-injection subsystem (sim/faults.hpp) and the
// protocols' graceful degradation under it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rcb/adversary/mc_strategies.hpp"
#include "rcb/protocols/broadcast_engine.hpp"
#include "rcb/protocols/broadcast_n.hpp"
#include "rcb/protocols/one_to_one.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/faults.hpp"
#include "rcb/sim/mc_slot_engine.hpp"
#include "rcb/sim/repetition_engine.hpp"

namespace rcb {
namespace {

TEST(FaultPlanTest, DefaultPlanIsInactive) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_FALSE(plan.node_down_at(0, 12345));
  EXPECT_FALSE(plan.node_skewed(0));
  EXPECT_EQ(plan.battery_factor(0, 99999), 1.0);
  Rng rng(1);
  EXPECT_EQ(plan.degrade(Reception::kMessage, 5, rng), Reception::kMessage);
  // An inactive plan must not consume the engine's RNG stream.
  Rng untouched(1);
  EXPECT_EQ(rng.state(), untouched.state());
}

TEST(FaultPlanTest, ZeroConfigIsInactive) {
  FaultPlan plan{FaultConfig{}};
  EXPECT_FALSE(plan.active());
}

TEST(FaultPlanTest, CrashTimelinesAreDeterministic) {
  FaultConfig cfg;
  cfg.seed = 42;
  cfg.crash_rate = 0.01;
  cfg.restart_rate = 0.005;
  FaultPlan a(cfg), b(cfg);
  for (NodeId u = 0; u < 8; ++u) {
    for (SlotIndex t = 0; t < 4096; t += 7) {
      ASSERT_EQ(a.node_down_at(u, t), b.node_down_at(u, t))
          << "node " << u << " slot " << t;
    }
  }
  // Queries out of order must agree with queries in order (the timeline is
  // extended lazily but derived from a dedicated stream).
  FaultPlan c(cfg);
  EXPECT_EQ(c.node_down_at(3, 4000), b.node_down_at(3, 4000));
  EXPECT_EQ(c.node_down_at(3, 100), b.node_down_at(3, 100));
}

TEST(FaultPlanTest, CrashFractionGatesEligibility) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.crash_rate = 0.5;  // eligible nodes crash almost immediately
  cfg.crash_fraction = 0.0;
  FaultPlan none(cfg);
  for (NodeId u = 0; u < 16; ++u) {
    EXPECT_FALSE(none.node_down_at(u, 100000)) << u;
  }

  cfg.crash_fraction = 1.0;  // permanent crash (restart_rate = 0)
  FaultPlan all(cfg);
  int down = 0;
  for (NodeId u = 0; u < 16; ++u) down += all.node_down_at(u, 100000);
  EXPECT_EQ(down, 16);
}

TEST(FaultPlanTest, RestartBringsNodesBack) {
  FaultConfig cfg;
  cfg.seed = 11;
  cfg.crash_rate = 0.05;
  cfg.restart_rate = 0.05;
  FaultPlan plan(cfg);
  // With symmetric churn, node 0 must be seen both up and down somewhere
  // over a long horizon.
  bool seen_up = false, seen_down = false;
  for (SlotIndex t = 0; t < 20000; ++t) {
    (plan.node_down_at(0, t) ? seen_down : seen_up) = true;
  }
  EXPECT_TRUE(seen_up);
  EXPECT_TRUE(seen_down);
}

TEST(FaultPlanTest, TotalLossFadesAllReceptionsToClear) {
  FaultConfig cfg;
  cfg.seed = 1;
  cfg.loss_rate = 1.0;
  FaultPlan plan(cfg);
  plan.begin_phase(2, 64);
  Rng rng(3);
  EXPECT_EQ(plan.degrade(Reception::kMessage, 0, rng), Reception::kClear);
  EXPECT_EQ(plan.degrade(Reception::kNack, 1, rng), Reception::kClear);
  // Loss only touches decodable receptions.
  EXPECT_EQ(plan.degrade(Reception::kClear, 2, rng), Reception::kClear);
  EXPECT_EQ(plan.degrade(Reception::kNoise, 3, rng), Reception::kNoise);
}

TEST(FaultPlanTest, TotalCorruptionGarblesToNoise) {
  FaultConfig cfg;
  cfg.seed = 1;
  cfg.corruption_rate = 1.0;
  FaultPlan plan(cfg);
  plan.begin_phase(2, 64);
  Rng rng(3);
  EXPECT_EQ(plan.degrade(Reception::kMessage, 0, rng), Reception::kNoise);
  EXPECT_EQ(plan.degrade(Reception::kNack, 1, rng), Reception::kNoise);
}

TEST(FaultPlanTest, CcaDegradationAfterRamp) {
  FaultConfig cfg;
  cfg.seed = 1;
  cfg.cca_false_busy = 1.0;
  FaultPlan plan(cfg);
  plan.begin_phase(1, 64);
  Rng rng(3);
  EXPECT_EQ(plan.degrade(Reception::kClear, 0, rng), Reception::kNoise);

  FaultConfig md;
  md.seed = 1;
  md.cca_missed_detection = 1.0;
  FaultPlan plan2(md);
  plan2.begin_phase(1, 64);
  EXPECT_EQ(plan2.degrade(Reception::kNoise, 0, rng), Reception::kClear);
}

TEST(FaultPlanTest, SkewFlagsAreDeterministicPerPhase) {
  FaultConfig cfg;
  cfg.seed = 99;
  cfg.clock_skew_rate = 0.5;
  FaultPlan a(cfg), b(cfg);
  for (int phase = 0; phase < 10; ++phase) {
    a.begin_phase(32, 128);
    b.begin_phase(32, 128);
    int skewed = 0;
    for (NodeId u = 0; u < 32; ++u) {
      ASSERT_EQ(a.node_skewed(u), b.node_skewed(u));
      skewed += a.node_skewed(u);
    }
    EXPECT_GE(skewed, 1);   // rate 0.5 over 32 nodes
    EXPECT_LE(skewed, 31);
  }
}

TEST(FaultPlanTest, BrownoutScalesEligibleNodesAfterOnset) {
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.brownout_slot = 1000;
  cfg.brownout_fraction = 1.0;
  cfg.brownout_factor = 0.25;
  FaultPlan plan(cfg);
  EXPECT_EQ(plan.battery_factor(3, 999), 1.0);
  EXPECT_EQ(plan.battery_factor(3, 1000), 0.25);
  EXPECT_EQ(plan.battery_factor(3, 50000), 0.25);

  cfg.brownout_fraction = 0.0;
  FaultPlan off(cfg);
  EXPECT_EQ(off.battery_factor(3, 50000), 1.0);
}

// ---------------------------------------------------------------------------
// Engine integration.

TEST(FaultEngineTest, DownNodesNeitherSendNorListenInBatchEngine) {
  FaultConfig cfg;
  cfg.seed = 3;
  cfg.crash_rate = 1.0;  // every node down from slot 1 on, permanently
  FaultPlan plan(cfg);

  std::vector<NodeAction> actions = {
      NodeAction{1.0, Payload::kMessage, 0.0},
      NodeAction{0.0, Payload::kNoise, 1.0},
  };
  Rng rng(4);
  const auto r =
      run_repetition(256, actions, JamSchedule::none(), rng, nullptr,
                     CcaModel{}, &plan);
  // crash_rate = 1 ⇒ the first toggle lands at slot 1, so at most the very
  // first slot carries any activity.
  EXPECT_LE(r.obs[0].sends, 1u);
  EXPECT_LE(r.obs[1].listens, 1u);
}

TEST(FaultEngineTest, BatchAndSlotwiseSeeTheSameDownNodes) {
  FaultConfig cfg;
  cfg.seed = 21;
  cfg.crash_rate = 0.02;
  cfg.restart_rate = 0.02;
  FaultPlan a(cfg), b(cfg);
  a.begin_phase(4, 512);
  b.begin_phase(4, 512);
  for (NodeId u = 0; u < 4; ++u) {
    for (SlotIndex t = 0; t < 512; ++t) {
      ASSERT_EQ(a.node_down(u, t), b.node_down(u, t));
    }
  }
}

TEST(FaultEngineTest, RepetitionEngineIsDeterministicUnderFaults) {
  FaultConfig cfg;
  cfg.seed = 8;
  cfg.crash_rate = 0.005;
  cfg.restart_rate = 0.01;
  cfg.loss_rate = 0.1;
  cfg.corruption_rate = 0.05;
  cfg.clock_skew_rate = 0.1;
  std::vector<NodeAction> actions = {
      NodeAction{0.2, Payload::kMessage, 0.3},
      NodeAction{0.1, Payload::kNoise, 0.5},
      NodeAction{0.0, Payload::kNoise, 1.0},
  };
  const JamSchedule jam = JamSchedule::blocking_fraction(512, 0.3);

  auto run_once = [&]() {
    FaultPlan plan(cfg);
    Rng rng(77);
    return run_repetition(512, actions, jam, rng, nullptr, CcaModel{}, &plan);
  };
  const auto r1 = run_once();
  const auto r2 = run_once();
  ASSERT_EQ(r1.obs.size(), r2.obs.size());
  for (std::size_t u = 0; u < r1.obs.size(); ++u) {
    EXPECT_EQ(r1.obs[u].sends, r2.obs[u].sends);
    EXPECT_EQ(r1.obs[u].listens, r2.obs[u].listens);
    EXPECT_EQ(r1.obs[u].clear, r2.obs[u].clear);
    EXPECT_EQ(r1.obs[u].messages, r2.obs[u].messages);
    EXPECT_EQ(r1.obs[u].nacks, r2.obs[u].nacks);
    EXPECT_EQ(r1.obs[u].noise, r2.obs[u].noise);
    EXPECT_EQ(r1.obs[u].first_message_slot, r2.obs[u].first_message_slot);
  }
}

TEST(FaultEngineTest, SlotwiseEngineIsDeterministicUnderFaults) {
  FaultConfig cfg;
  cfg.seed = 8;
  cfg.crash_rate = 0.005;
  cfg.restart_rate = 0.01;
  cfg.loss_rate = 0.1;
  cfg.clock_skew_rate = 0.1;
  std::vector<NodeAction> actions = {
      NodeAction{0.2, Payload::kMessage, 0.3},
      NodeAction{0.0, Payload::kNoise, 1.0},
  };

  auto run_once = [&]() {
    FaultPlan plan(cfg);
    McNoJam adv;
    Rng rng(78);
    return run_repetition_slotwise_mc(256, actions, ChannelPlan{1, {}}, adv,
                                      rng, CcaModel{}, &plan);
  };
  const auto r1 = run_once();
  const auto r2 = run_once();
  for (std::size_t u = 0; u < r1.rep.obs.size(); ++u) {
    EXPECT_EQ(r1.rep.obs[u].listens, r2.rep.obs[u].listens);
    EXPECT_EQ(r1.rep.obs[u].messages, r2.rep.obs[u].messages);
    EXPECT_EQ(r1.rep.obs[u].clear, r2.rep.obs[u].clear);
    EXPECT_EQ(r1.rep.obs[u].noise, r2.rep.obs[u].noise);
  }
}

TEST(FaultEngineTest, SkewedSenderIsHeardAsNoise) {
  FaultConfig cfg;
  cfg.seed = 2;
  cfg.clock_skew_rate = 1.0;  // everyone skewed: all payloads straddle slots
  FaultPlan plan(cfg);
  std::vector<NodeAction> actions = {
      NodeAction{1.0, Payload::kMessage, 0.0},
      NodeAction{0.0, Payload::kNoise, 1.0},
  };
  Rng rng(9);
  const auto r = run_repetition(128, actions, JamSchedule::none(), rng,
                                nullptr, CcaModel{}, &plan);
  EXPECT_EQ(r.obs[1].messages, 0u);
  EXPECT_EQ(r.obs[1].noise, r.obs[1].listens);
}

// ---------------------------------------------------------------------------
// Protocol-level graceful degradation.

TEST(FaultProtocolTest, BroadcastCompletesWithFifthOfFleetCrashed) {
  // The acceptance scenario: ~20% of nodes crash permanently mid-run.  The
  // healthy remainder must terminate (no hang, no contract failure), with
  // the crashed nodes reported in crashed_count.
  FaultConfig cfg;
  cfg.seed = 31;
  cfg.crash_rate = 0.002;
  cfg.crash_fraction = 0.2;
  FaultPlan plan(cfg);

  const BroadcastNParams params = BroadcastNParams::sim();
  NoJamAdversary adv;
  Rng rng(32);
  const auto r = run_broadcast_n(20, params, adv, rng, &plan);

  EXPECT_GT(r.crashed_count, 0u);
  EXPECT_LT(r.crashed_count, 20u);
  EXPECT_FALSE(r.hit_epoch_cap);
  std::uint64_t crashed_statuses = 0;
  for (const auto& node : r.nodes) {
    if (node.final_status == BroadcastStatus::kCrashed) {
      ++crashed_statuses;
    } else {
      // Every healthy node terminated by choice and was informed.
      EXPECT_EQ(node.final_status, BroadcastStatus::kTerminated);
      EXPECT_TRUE(node.informed);
    }
  }
  EXPECT_EQ(crashed_statuses, r.crashed_count);
  EXPECT_FALSE(r.all_terminated);  // crashed nodes are a failure, not a choice
}

TEST(FaultProtocolTest, CrashedNodesStopSpending) {
  FaultConfig cfg;
  cfg.seed = 41;
  cfg.crash_rate = 0.05;  // crash almost immediately
  cfg.crash_fraction = 1.0;
  FaultPlan plan(cfg);

  const BroadcastNParams params = BroadcastNParams::sim();
  NoJamAdversary adv;
  Rng rng(42);
  const auto r = run_broadcast_n(8, params, adv, rng, &plan);
  EXPECT_EQ(r.crashed_count, 8u);
  // Crashing within the first few hundred slots bounds every node's spend
  // to a few repetitions of activity.
  for (const auto& node : r.nodes) EXPECT_LT(node.cost, 2000u);
}

TEST(FaultProtocolTest, RestartedNodesRejoinAndGetInformed) {
  // Fast churn: nodes drop and return.  The run should still inform most of
  // the fleet (restarted nodes re-listen with a fresh S_u).
  FaultConfig cfg;
  cfg.seed = 51;
  cfg.crash_rate = 0.001;
  cfg.restart_rate = 0.01;  // outages ~100 slots
  FaultPlan plan(cfg);

  const BroadcastNParams params = BroadcastNParams::sim();
  NoJamAdversary adv;
  Rng rng(52);
  const auto r = run_broadcast_n(16, params, adv, rng, &plan);
  EXPECT_GE(r.informed_count, 12u);
}

TEST(FaultProtocolTest, OneToOneTimeoutReportsAborted) {
  // Permanent full-channel jamming with an effectively unbounded budget:
  // without a timeout Fig. 1 escalates epoch after epoch; with one it
  // aborts at a bounded latency and says so.
  OneToOneParams params = OneToOneParams::sim(0.01);
  params.timeout_slots = 1 << 14;
  FullDuelBlocker adv(Budget(Cost{1} << 40), 1.0);
  Rng rng(61);
  const auto r = run_one_to_one(params, adv, rng);
  EXPECT_TRUE(r.aborted);
  EXPECT_FALSE(r.delivered);
  EXPECT_FALSE(r.hit_epoch_cap);
  // The abort check runs at epoch boundaries, so overshoot is at most one
  // epoch (which doubles), bounding latency at ~3x the timeout.
  EXPECT_LE(r.latency, (SlotCount{1} << 16));
}

TEST(FaultProtocolTest, OneToOneNoTimeoutStillDelivers) {
  OneToOneParams params = OneToOneParams::sim(0.01);
  EXPECT_EQ(params.timeout_slots, 0u);
  DuelNoJam adv;
  Rng rng(62);
  const auto r = run_one_to_one(params, adv, rng);
  EXPECT_TRUE(r.delivered);
  EXPECT_FALSE(r.aborted);
}

TEST(FaultProtocolTest, BrownoutKillsNodesThatWouldHaveSurvived) {
  BroadcastNParams params = BroadcastNParams::sim();
  NoJamAdversary peace;
  Rng rng1(71);
  const auto calm = run_broadcast_n(12, params, peace, rng1);

  params.node_energy_budget = calm.max_cost * 2;  // comfortable margin
  {
    NoJamAdversary adv;
    Rng rng(72);
    const auto r = run_broadcast_n(12, params, adv, rng);
    EXPECT_EQ(r.dead_count, 0u);
  }
  {
    FaultConfig cfg;
    cfg.seed = 73;
    cfg.brownout_slot = 0;
    cfg.brownout_fraction = 1.0;
    cfg.brownout_factor = 0.01;  // batteries collapse to 1%
    FaultPlan plan(cfg);
    NoJamAdversary adv;
    Rng rng(72);
    const auto r = run_broadcast_n(12, params, adv, rng, &plan);
    EXPECT_GT(r.dead_count, 0u);
  }
}

TEST(FaultProtocolTest, BroadcastRunIsDeterministicUnderFaults) {
  FaultConfig cfg;
  cfg.seed = 81;
  cfg.crash_rate = 0.001;
  cfg.restart_rate = 0.005;
  cfg.loss_rate = 0.05;
  cfg.clock_skew_rate = 0.02;

  auto run_once = [&]() {
    FaultPlan plan(cfg);
    const BroadcastNParams params = BroadcastNParams::sim();
    SuffixBlockerAdversary adv(Budget(1 << 14), 0.8);
    Rng rng(82);
    return run_broadcast_n(12, params, adv, rng, &plan);
  };
  const auto r1 = run_once();
  const auto r2 = run_once();
  EXPECT_EQ(r1.latency, r2.latency);
  EXPECT_EQ(r1.max_cost, r2.max_cost);
  EXPECT_EQ(r1.crashed_count, r2.crashed_count);
  EXPECT_EQ(r1.informed_count, r2.informed_count);
  ASSERT_EQ(r1.nodes.size(), r2.nodes.size());
  for (std::size_t u = 0; u < r1.nodes.size(); ++u) {
    EXPECT_EQ(r1.nodes[u].cost, r2.nodes[u].cost);
    EXPECT_EQ(r1.nodes[u].final_status, r2.nodes[u].final_status);
  }
}

}  // namespace
}  // namespace rcb
