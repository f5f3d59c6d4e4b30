// Property-style invariant sweeps across the simulator and protocols.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rcb/adversary/strategies.hpp"
#include "rcb/adversary/two_uniform.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/protocols/broadcast_n.hpp"
#include "rcb/protocols/one_to_one.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/repetition_engine.hpp"

namespace rcb {
namespace {

// ---------------------------------------------------------------------------
// Engine invariants over random configurations.
// ---------------------------------------------------------------------------

struct EngineConfig {
  SlotCount slots;
  double send_p;
  double listen_p;
  double jam_q;
  std::uint64_t seed;
};

class EngineInvariantTest : public ::testing::TestWithParam<EngineConfig> {};

TEST_P(EngineInvariantTest, ObservationPartitionAndBounds) {
  const EngineConfig cfg = GetParam();
  Rng rng(cfg.seed);
  std::vector<NodeAction> actions;
  for (int u = 0; u < 5; ++u) {
    actions.push_back(NodeAction{cfg.send_p * (u + 1) / 5.0,
                                 u % 2 ? Payload::kMessage : Payload::kNoise,
                                 cfg.listen_p});
  }
  const JamSchedule jam = JamSchedule::blocking_fraction(cfg.slots, cfg.jam_q);
  const auto r = run_repetition(cfg.slots, actions, jam, rng);

  for (const auto& o : r.obs) {
    // Receptions partition the listened slots.
    EXPECT_EQ(o.clear + o.messages + o.nacks + o.noise, o.listens);
    // A node acts at most once per slot.
    EXPECT_LE(o.sends + o.listens, cfg.slots);
    // listens_until_first_message never exceeds total listens.
    EXPECT_LE(o.listens_until_first_message, o.listens);
    if (o.first_message_slot != kNoSlot) {
      EXPECT_LT(o.first_message_slot, cfg.slots);
      EXPECT_GE(o.messages, 1u);
      // The jam schedule cannot have covered the reception slot.
      EXPECT_FALSE(jam.is_jammed(o.first_message_slot));
    } else {
      EXPECT_EQ(o.listens_until_first_message, o.listens);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineInvariantTest,
    ::testing::Values(EngineConfig{64, 0.5, 0.5, 0.0, 1},
                      EngineConfig{64, 0.5, 0.5, 0.5, 2},
                      EngineConfig{256, 0.05, 0.2, 0.25, 3},
                      EngineConfig{1024, 0.01, 0.9, 0.9, 4},
                      EngineConfig{4096, 0.001, 0.01, 0.1, 5},
                      EngineConfig{16, 1.0, 1.0, 1.0, 6},
                      EngineConfig{2048, 0.3, 0.0, 0.5, 7}));

// ---------------------------------------------------------------------------
// Lemma 2 empirical check: e^{-2 S_V} <= p_c <= e^{-S_V}.
// ---------------------------------------------------------------------------

class ClearProbabilityTest : public ::testing::TestWithParam<double> {};

TEST_P(ClearProbabilityTest, Lemma2BoundsHold) {
  const double S_V = GetParam();
  const int n = 8;
  const SlotCount slots = 2048;
  const double per_node = S_V / n;  // each node sends w.p. S_u/2^i = S_V/n

  std::vector<NodeAction> actions(n + 1);
  for (int u = 0; u < n; ++u) {
    actions[u] = NodeAction{per_node, Payload::kNoise, 0.0};
  }
  actions[n] = NodeAction{0.0, Payload::kNoise, 1.0};  // pure observer

  double clear_total = 0.0, heard_total = 0.0;
  Rng rng(99);
  for (int t = 0; t < 60; ++t) {
    const auto r = run_repetition(slots, actions, JamSchedule::none(), rng);
    clear_total += static_cast<double>(r.obs[n].clear);
    heard_total += static_cast<double>(r.obs[n].heard_total());
  }
  const double p_c = clear_total / heard_total;
  EXPECT_GE(p_c, std::exp(-2.0 * S_V) - 0.02) << "S_V=" << S_V;
  EXPECT_LE(p_c, std::exp(-S_V) + 0.02) << "S_V=" << S_V;
}

INSTANTIATE_TEST_SUITE_P(SVSweep, ClearProbabilityTest,
                         ::testing::Values(0.05, 0.125, 0.25, 0.5, 1.0, 2.0));

// ---------------------------------------------------------------------------
// One-to-one protocol invariants across eps and adversaries.
// ---------------------------------------------------------------------------

struct DuelConfig {
  double eps;
  double q;
  Cost budget;
  std::uint64_t seed;
};

class OneToOnePropertyTest : public ::testing::TestWithParam<DuelConfig> {};

TEST_P(OneToOnePropertyTest, TerminatesWithConsistentAccounting) {
  const DuelConfig cfg = GetParam();
  const OneToOneParams params = OneToOneParams::sim(cfg.eps);
  for (int t = 0; t < 25; ++t) {
    FullDuelBlocker adv(Budget(cfg.budget), cfg.q);
    Rng rng = Rng::stream(cfg.seed, t);
    const auto r = run_one_to_one(params, adv, rng);
    EXPECT_FALSE(r.hit_epoch_cap);
    EXPECT_TRUE(r.alice_halted);
    EXPECT_TRUE(r.bob_halted);
    EXPECT_LE(r.adversary_cost, 2 * cfg.budget + 2);
    EXPECT_LE(r.alice_cost + r.bob_cost, 2 * r.latency);
    // Latency is the sum of executed phase lengths: a multiple of 2^i0 and
    // at least one full epoch (two phases).
    EXPECT_GE(r.latency, 2 * pow2(params.first_epoch()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OneToOnePropertyTest,
    ::testing::Values(DuelConfig{0.3, 0.5, 0, 10},
                      DuelConfig{0.1, 0.5, 1 << 10, 11},
                      DuelConfig{0.05, 0.8, 1 << 13, 12},
                      DuelConfig{0.01, 0.3, 1 << 12, 13},
                      DuelConfig{0.003, 0.6, 1 << 14, 14}));

// ---------------------------------------------------------------------------
// Broadcast protocol invariants across n and jamming levels.
// ---------------------------------------------------------------------------

// n is 64-bit so the struct has no padding: gtest prints the param byte by
// byte and ctest names each case after those bytes, so uninitialised padding
// would give the cases a different name on every build.
struct BroadcastConfig {
  std::uint64_t n;
  double q;
  Cost budget;
  std::uint64_t seed;
};

class BroadcastPropertyTest : public ::testing::TestWithParam<BroadcastConfig> {
};

TEST_P(BroadcastPropertyTest, InvariantsHold) {
  const BroadcastConfig cfg = GetParam();
  const BroadcastNParams params = BroadcastNParams::sim();
  SuffixBlockerAdversary adv(Budget(cfg.budget), cfg.q);
  Rng rng(cfg.seed);
  const auto r =
      run_broadcast_n(static_cast<std::uint32_t>(cfg.n), params, adv, rng);

  EXPECT_EQ(r.adversary_cost, adv.budget().spent());
  EXPECT_GE(r.informed_count, 1u);
  std::uint64_t informed = 0;
  for (const auto& node : r.nodes) {
    EXPECT_LE(node.cost, r.latency);
    if (node.informed) {
      ++informed;
      EXPECT_GE(node.informed_epoch, params.first_epoch);
    }
    // A helper always passed through informed status.
    if (node.n_estimate > 0.0) {
      EXPECT_TRUE(node.informed);
    }
    // Terminated nodes record their epoch.
    if (node.final_status == BroadcastStatus::kTerminated) {
      EXPECT_GE(node.terminated_epoch, params.first_epoch);
      EXPECT_LE(node.terminated_epoch, r.final_epoch);
    }
  }
  EXPECT_EQ(informed, r.informed_count);
  // Mean cannot exceed max.
  EXPECT_LE(r.mean_cost, static_cast<double>(r.max_cost) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BroadcastPropertyTest,
    ::testing::Values(BroadcastConfig{1, 0.5, 1 << 12, 20},
                      BroadcastConfig{2, 0.0, 0, 21},
                      BroadcastConfig{5, 0.5, 1 << 14, 22},
                      BroadcastConfig{16, 0.3, 1 << 15, 23},
                      BroadcastConfig{48, 0.7, 1 << 16, 24},
                      BroadcastConfig{7, 1.0, 1 << 13, 25}));

// ---------------------------------------------------------------------------
// Fig. 1 probability schedule properties over the eps range.
// ---------------------------------------------------------------------------

class EpsilonScheduleTest : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonScheduleTest, ScheduleIsWellFormed) {
  const double eps = GetParam();
  const OneToOneParams theory = OneToOneParams::theory(eps);
  const OneToOneParams sim = OneToOneParams::sim(eps);
  for (const auto& p : {theory, sim}) {
    const std::uint32_t i0 = p.first_epoch();
    EXPECT_GE(i0, 1u);
    double prev = 2.0;
    for (std::uint32_t i = i0; i < i0 + 10; ++i) {
      const double pi = p.slot_probability(i);
      EXPECT_GT(pi, 0.0);
      EXPECT_LE(pi, 1.0);
      EXPECT_LT(pi, prev);  // strictly decreasing per epoch
      prev = pi;
      // Expected per-phase actions p_i * 2^i = 2 * sqrt(ln(8/eps) 2^{i-1}):
      // nondecreasing in i, and the halting threshold is a quarter of half
      // the phase's expected actions.
      EXPECT_NEAR(p.halt_threshold(i),
                  0.25 * pi * static_cast<double>(pow2(i - 1)), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, EpsilonScheduleTest,
                         ::testing::Values(0.3, 0.1, 0.03, 0.01, 0.001,
                                           0.0001));

}  // namespace
}  // namespace rcb
