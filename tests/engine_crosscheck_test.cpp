// Cross-validation of the two channel engines.
//
// The batch (event-driven) engine and the slotwise engine (at C=1, the
// single-channel model) implement the same channel semantics through
// different sweeps.  Both presample through one kernel and resolve
// listeners in sorted-key order, so on one Rng stream with the jam schedule
// committed as an McScheduleAdversary they agree exactly: every observation
// and the stream position after the call (EngineCrosscheckExactTest).  The
// Monte-Carlo tests compare means across different streams with tolerance
// scaled to the standard error, and pin the slotwise event path against
// its dense reference, which draws in another order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "rcb/adversary/mc_strategies.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/cca.hpp"
#include "rcb/sim/faults.hpp"
#include "rcb/sim/repetition_engine.hpp"
#include "rcb/sim/mc_slot_engine.hpp"
#include "rcb/stats/rank_test.hpp"

namespace rcb {
namespace {

const ChannelPlan kSingle{1, {}};

/// Jams whenever the previous slot carried a transmission.
class Reactive final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    return !history.empty() && history.back().senders > 0 ? 1 : 0;
  }
  SlotCount history_window() const override { return 1; }
};

struct Moments {
  double sends = 0, listens = 0, clear = 0, messages = 0, noise = 0;

  void accumulate(const NodeObservation& o, double weight) {
    sends += weight * static_cast<double>(o.sends);
    listens += weight * static_cast<double>(o.listens);
    clear += weight * static_cast<double>(o.clear);
    messages += weight * static_cast<double>(o.messages);
    noise += weight * static_cast<double>(o.noise);
  }
};

class EngineCrosscheckTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(EngineCrosscheckTest, MeansAgree) {
  const auto [send_p, listen_p, jam_q] = GetParam();
  const SlotCount slots = 512;
  const int trials = 300;
  const JamSchedule jam = JamSchedule::blocking_fraction(slots, jam_q);

  std::vector<NodeAction> actions = {
      NodeAction{send_p, Payload::kMessage, listen_p},
      NodeAction{send_p / 2, Payload::kNoise, listen_p},
      NodeAction{0.0, Payload::kNoise, std::min(1.0, listen_p * 2)},
  };

  Moments batch[3], slotwise[3];
  const double w = 1.0 / trials;
  for (int t = 0; t < trials; ++t) {
    {
      Rng rng = Rng::stream(1, t);
      auto r = run_repetition(slots, actions, jam, rng);
      for (int u = 0; u < 3; ++u) batch[u].accumulate(r.obs[u], w);
    }
    {
      Rng rng = Rng::stream(2, t);
      McScheduleAdversary adv({jam});
      auto r = run_repetition_slotwise_mc(slots, actions, kSingle, adv, rng);
      for (int u = 0; u < 3; ++u) slotwise[u].accumulate(r.rep.obs[u], w);
    }
  }

  // Standard error of a per-slot-count mean is at most
  // sqrt(slots)/sqrt(trials) ~ 1.3; use 6-sigma-ish tolerances plus floor.
  auto close = [&](double a, double b, const char* what, int node) {
    const double tol = 6.0 * std::sqrt(std::max(a, b) / trials + 0.01) + 0.5;
    EXPECT_NEAR(a, b, tol) << what << " node=" << node << " send_p=" << send_p
                           << " listen_p=" << listen_p << " q=" << jam_q;
  };
  for (int u = 0; u < 3; ++u) {
    close(batch[u].sends, slotwise[u].sends, "sends", u);
    close(batch[u].listens, slotwise[u].listens, "listens", u);
    close(batch[u].clear, slotwise[u].clear, "clear", u);
    close(batch[u].messages, slotwise[u].messages, "messages", u);
    close(batch[u].noise, slotwise[u].noise, "noise", u);
  }
}

bool obs_equal(const NodeObservation& a, const NodeObservation& b) {
  return a.sends == b.sends && a.listens == b.listens && a.clear == b.clear &&
         a.messages == b.messages && a.nacks == b.nacks &&
         a.noise == b.noise && a.first_message_slot == b.first_message_slot &&
         a.listens_until_first_message == b.listens_until_first_message;
}

/// A random jam schedule of every kind: none, all, a suffix, a slot list.
JamSchedule random_schedule(SlotCount slots, std::uint64_t kind, Rng& gen) {
  switch (kind % 4) {
    case 0:
      return JamSchedule::none();
    case 1:
      return JamSchedule::all(slots);
    case 2:
      return JamSchedule::suffix(slots, gen.uniform_u64(slots + 1));
    default: {
      std::vector<SlotIndex> listed;
      const double density = gen.uniform_double();
      for (SlotIndex s = 0; s < slots; ++s) {
        if (gen.bernoulli(density)) listed.push_back(s);
      }
      return JamSchedule::slots(slots, std::move(listed));
    }
  }
}

/// Runs `cases` random phases through both engines on one Rng stream each
/// and expects identical observations and final stream positions.
void expect_engines_agree_exactly(std::uint64_t master, int cases,
                                  bool imperfect_cca, bool faults_on) {
  for (int c = 0; c < cases; ++c) {
    Rng gen = Rng::stream(master, static_cast<std::uint64_t>(c));
    const SlotCount slots = 1 + gen.uniform_u64(2048);
    const std::size_t n = 1 + gen.uniform_u64(6);
    std::vector<NodeAction> actions;
    for (std::size_t u = 0; u < n; ++u) {
      NodeAction a;
      // Some certain senders and listeners, so half-duplex and collisions
      // come up in most phases.
      a.send_prob = gen.bernoulli(0.15) ? 1.0 : 0.3 * gen.uniform_double();
      a.listen_prob = gen.bernoulli(0.15) ? 1.0 : gen.uniform_double();
      a.payload = static_cast<Payload>(gen.uniform_u64(3));
      actions.push_back(a);
    }
    const JamSchedule jam =
        random_schedule(slots, static_cast<std::uint64_t>(c), gen);
    const CcaModel cca = imperfect_cca
                             ? CcaModel{0.3 * gen.uniform_double(),
                                        0.3 * gen.uniform_double()}
                             : CcaModel{};
    FaultConfig cfg;
    if (faults_on) {
      cfg.seed = gen.next_u64();
      cfg.crash_rate = 0.005;
      cfg.restart_rate = 0.02;
      cfg.loss_rate = 0.2;
      cfg.corruption_rate = 0.1;
      cfg.clock_skew_rate = 0.25;
    }
    FaultPlan batch_faults(cfg), slotwise_faults(cfg);
    Rng batch_rng = Rng::stream(master + 1, static_cast<std::uint64_t>(c));
    Rng slotwise_rng = batch_rng;

    const RepetitionResult batch = run_repetition(
        slots, actions, jam, batch_rng, nullptr, cca, &batch_faults);
    McScheduleAdversary adv({jam});
    const McSlotwiseResult slotwise = run_repetition_slotwise_mc(
        slots, actions, kSingle, adv, slotwise_rng, cca, &slotwise_faults);

    for (std::size_t u = 0; u < n; ++u) {
      EXPECT_TRUE(obs_equal(batch.obs[u], slotwise.rep.obs[u]))
          << "case " << c << " node " << u;
    }
    EXPECT_EQ(batch_rng.state(), slotwise_rng.state()) << "case " << c;
  }
}

TEST(EngineCrosscheckExactTest, BatchMatchesSlotwiseAtC1) {
  expect_engines_agree_exactly(51, 300, false, false);
}

TEST(EngineCrosscheckExactTest, BatchMatchesSlotwiseUnderImperfectCca) {
  expect_engines_agree_exactly(53, 300, true, false);
}

TEST(EngineCrosscheckExactTest, BatchMatchesSlotwiseUnderFaultsAndCca) {
  expect_engines_agree_exactly(55, 300, true, true);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineCrosscheckTest,
    ::testing::Values(std::make_tuple(0.02, 0.05, 0.0),
                      std::make_tuple(0.02, 0.05, 0.5),
                      std::make_tuple(0.1, 0.1, 0.25),
                      std::make_tuple(0.5, 0.5, 0.1),
                      std::make_tuple(0.0, 0.3, 0.9),
                      std::make_tuple(1.0, 1.0, 0.0)));

TEST(EngineCrosscheckFaultTest, MeansAgreeUnderImperfectCca) {
  const SlotCount slots = 512;
  const int trials = 300;
  const JamSchedule jam = JamSchedule::blocking_fraction(slots, 0.4);
  const CcaModel cca{0.15, 0.1};

  std::vector<NodeAction> actions = {
      NodeAction{0.05, Payload::kMessage, 0.2},
      NodeAction{0.02, Payload::kNoise, 0.3},
      NodeAction{0.0, Payload::kNoise, 0.5},
  };

  Moments batch[3], slotwise[3];
  const double w = 1.0 / trials;
  for (int t = 0; t < trials; ++t) {
    {
      Rng rng = Rng::stream(11, t);
      auto r = run_repetition(slots, actions, jam, rng, nullptr, cca);
      for (int u = 0; u < 3; ++u) batch[u].accumulate(r.obs[u], w);
    }
    {
      Rng rng = Rng::stream(12, t);
      McScheduleAdversary adv({jam});
      auto r =
          run_repetition_slotwise_mc(slots, actions, kSingle, adv, rng, cca);
      for (int u = 0; u < 3; ++u) slotwise[u].accumulate(r.rep.obs[u], w);
    }
  }

  auto close = [&](double a, double b, const char* what, int node) {
    const double tol = 6.0 * std::sqrt(std::max(a, b) / trials + 0.01) + 0.5;
    EXPECT_NEAR(a, b, tol) << what << " node=" << node;
  };
  for (int u = 0; u < 3; ++u) {
    close(batch[u].sends, slotwise[u].sends, "sends", u);
    close(batch[u].listens, slotwise[u].listens, "listens", u);
    close(batch[u].clear, slotwise[u].clear, "clear", u);
    close(batch[u].messages, slotwise[u].messages, "messages", u);
    close(batch[u].noise, slotwise[u].noise, "noise", u);
  }
}

TEST(EngineCrosscheckFaultTest, MeansAgreeUnderActiveFaultPlan) {
  // Node-level fault decisions (crash timelines, skew) are pure functions
  // of the fault seed, so giving each engine its own FaultPlan built from
  // the same config puts the same nodes down in the same slots; the
  // remaining per-reception faults (loss/corruption) are i.i.d. draws, so
  // the Monte-Carlo means must still agree.
  const SlotCount slots = 512;
  const int trials = 300;
  const JamSchedule jam = JamSchedule::blocking_fraction(slots, 0.3);

  FaultConfig cfg;
  cfg.seed = 17;
  cfg.crash_rate = 0.003;
  cfg.restart_rate = 0.01;
  cfg.loss_rate = 0.2;
  cfg.corruption_rate = 0.1;
  cfg.clock_skew_rate = 0.15;

  std::vector<NodeAction> actions = {
      NodeAction{0.05, Payload::kMessage, 0.2},
      NodeAction{0.02, Payload::kNoise, 0.3},
      NodeAction{0.0, Payload::kNoise, 0.5},
  };

  Moments batch[3], slotwise[3];
  const double w = 1.0 / trials;
  for (int t = 0; t < trials; ++t) {
    {
      FaultPlan faults(cfg);
      Rng rng = Rng::stream(21, t);
      auto r = run_repetition(slots, actions, jam, rng, nullptr, CcaModel{},
                              &faults);
      for (int u = 0; u < 3; ++u) batch[u].accumulate(r.obs[u], w);
    }
    {
      FaultPlan faults(cfg);
      Rng rng = Rng::stream(22, t);
      McScheduleAdversary adv({jam});
      auto r = run_repetition_slotwise_mc(slots, actions, kSingle, adv, rng,
                                          CcaModel{}, &faults);
      for (int u = 0; u < 3; ++u) slotwise[u].accumulate(r.rep.obs[u], w);
    }
  }

  auto close = [&](double a, double b, const char* what, int node) {
    const double tol = 6.0 * std::sqrt(std::max(a, b) / trials + 0.01) + 0.5;
    EXPECT_NEAR(a, b, tol) << what << " node=" << node;
  };
  for (int u = 0; u < 3; ++u) {
    close(batch[u].sends, slotwise[u].sends, "sends", u);
    close(batch[u].listens, slotwise[u].listens, "listens", u);
    close(batch[u].clear, slotwise[u].clear, "clear", u);
    close(batch[u].messages, slotwise[u].messages, "messages", u);
    close(batch[u].noise, slotwise[u].noise, "noise", u);
  }
}

TEST(EngineCrosscheckFaultTest, EventPathMatchesDenseReferenceUnderFaultsAndCca) {
  // The event-driven slotwise path vs the per-slot loop (kept as
  // run_repetition_slotwise_mc_dense): identical per-slot marginals,
  // different Rng draw order, so Monte-Carlo means must agree — here with
  // BOTH an imperfect CCA and an active fault plan, and a genuinely
  // reactive adversary (identical jam decisions on both paths are not
  // guaranteed per run, only distributionally — the adversary reacts to
  // sampled activity).
  const SlotCount slots = 512;
  const int trials = 300;
  const CcaModel cca{0.1, 0.1};

  FaultConfig cfg;
  cfg.seed = 33;
  cfg.crash_rate = 0.002;
  cfg.restart_rate = 0.01;
  cfg.loss_rate = 0.15;
  cfg.corruption_rate = 0.05;
  cfg.clock_skew_rate = 0.1;

  std::vector<NodeAction> actions = {
      NodeAction{0.05, Payload::kMessage, 0.2},
      NodeAction{0.02, Payload::kNoise, 0.3},
      NodeAction{0.0, Payload::kNoise, 0.5},
  };

  Moments event[3], dense[3];
  double event_jammed = 0, dense_jammed = 0;
  const double w = 1.0 / trials;
  for (int t = 0; t < trials; ++t) {
    {
      FaultPlan faults(cfg);
      Reactive adv;
      Rng rng = Rng::stream(31, t);
      auto r = run_repetition_slotwise_mc(slots, actions, kSingle, adv, rng,
                                          cca, &faults);
      for (int u = 0; u < 3; ++u) event[u].accumulate(r.rep.obs[u], w);
      event_jammed += w * static_cast<double>(r.jammed_slots);
    }
    {
      FaultPlan faults(cfg);
      Reactive adv;
      Rng rng = Rng::stream(32, t);
      auto r = run_repetition_slotwise_mc_dense(slots, actions, kSingle, adv,
                                                rng, cca, &faults);
      for (int u = 0; u < 3; ++u) dense[u].accumulate(r.rep.obs[u], w);
      dense_jammed += w * static_cast<double>(r.jammed_slots);
    }
  }

  auto close = [&](double a, double b, const char* what, int node) {
    const double tol = 6.0 * std::sqrt(std::max(a, b) / trials + 0.01) + 0.5;
    EXPECT_NEAR(a, b, tol) << what << " node=" << node;
  };
  for (int u = 0; u < 3; ++u) {
    close(event[u].sends, dense[u].sends, "sends", u);
    close(event[u].listens, dense[u].listens, "listens", u);
    close(event[u].clear, dense[u].clear, "clear", u);
    close(event[u].messages, dense[u].messages, "messages", u);
    close(event[u].noise, dense[u].noise, "noise", u);
  }
  close(event_jammed, dense_jammed, "jammed_slots", -1);
}

TEST(EngineCrosscheckRankTest, DistributionsAgreeUnderBonferroniFamily) {
  // Distribution-level crosscheck: instead of comparing means with ad-hoc
  // sigma tolerances, compare the per-run observation totals of the two
  // slotwise paths with Mann-Whitney rank gates.  The whole family of
  // (metric x node) comparisons shares one false-positive budget via
  // bonferroni_alpha, so this test's flake probability is bounded by
  // kFamilyAlpha by construction — the same decision rule the fuzz
  // harness's crosscheck oracle applies (src/rcb/testing/oracles.cpp).
  const SlotCount slots = 384;
  const int trials = 120;
  const CcaModel cca{0.1, 0.05};

  FaultConfig cfg;
  cfg.seed = 91;
  cfg.crash_rate = 0.002;
  cfg.restart_rate = 0.02;
  cfg.loss_rate = 0.1;
  cfg.corruption_rate = 0.05;

  const std::vector<NodeAction> actions = {
      NodeAction{0.05, Payload::kMessage, 0.2},
      NodeAction{0.02, Payload::kNoise, 0.3},
      NodeAction{0.0, Payload::kNoise, 0.5},
  };
  const std::size_t n = actions.size();

  // samples[engine][node * kMetrics + metric][trial]
  constexpr int kMetrics = 5;
  std::vector<std::vector<double>> event(n * kMetrics),
      dense(n * kMetrics);
  const auto record = [&](std::vector<std::vector<double>>& dst,
                          const RepetitionResult& rep) {
    for (std::size_t u = 0; u < n; ++u) {
      const NodeObservation& o = rep.obs[u];
      dst[u * kMetrics + 0].push_back(static_cast<double>(o.sends));
      dst[u * kMetrics + 1].push_back(static_cast<double>(o.listens));
      dst[u * kMetrics + 2].push_back(static_cast<double>(o.clear));
      dst[u * kMetrics + 3].push_back(static_cast<double>(o.messages));
      dst[u * kMetrics + 4].push_back(static_cast<double>(o.noise));
    }
  };

  for (int t = 0; t < trials; ++t) {
    {
      FaultPlan faults(cfg);
      Reactive adv;
      Rng rng = Rng::stream(41, t);
      record(event, run_repetition_slotwise_mc(slots, actions, kSingle, adv,
                                               rng, cca, &faults)
                        .rep);
    }
    {
      FaultPlan faults(cfg);
      Reactive adv;
      Rng rng = Rng::stream(42, t);
      record(dense, run_repetition_slotwise_mc_dense(slots, actions, kSingle,
                                                     adv, rng, cca, &faults)
                        .rep);
    }
  }

  const double kFamilyAlpha = 1e-4;
  const double alpha = bonferroni_alpha(kFamilyAlpha, n * kMetrics);
  const char* const kMetricNames[kMetrics] = {"sends", "listens", "clear",
                                              "messages", "noise"};
  for (std::size_t u = 0; u < n; ++u) {
    for (int m = 0; m < kMetrics; ++m) {
      const auto& xs = event[u * kMetrics + m];
      const auto& ys = dense[u * kMetrics + m];
      const MannWhitneyResult r = mann_whitney(xs, ys);
      EXPECT_FALSE(rank_gate_rejects(xs, ys, alpha))
          << "node " << u << " metric " << kMetricNames[m]
          << ": engines disagree (p=" << r.p_value
          << ", effect=" << r.effect << ", alpha=" << alpha << ")";
    }
  }
}

}  // namespace
}  // namespace rcb
