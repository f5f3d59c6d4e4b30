#include "rcb/protocols/one_to_one.hpp"

#include <array>
#include <cmath>

#include "rcb/common/contracts.hpp"
#include "rcb/common/mathutil.hpp"

namespace rcb {

OneToOneParams OneToOneParams::theory(double eps) {
  OneToOneParams p;
  p.eps = eps;
  p.first_epoch_offset = 11;
  return p;
}

OneToOneParams OneToOneParams::sim(double eps) {
  OneToOneParams p;
  p.eps = eps;
  p.first_epoch_offset = 2;
  return p;
}

std::uint32_t OneToOneParams::first_epoch() const {
  RCB_REQUIRE(eps > 0.0 && eps < 1.0);
  const double lg_ln = std::log2(std::log(8.0 / eps));
  const auto bump = static_cast<std::uint32_t>(std::ceil(std::max(0.0, lg_ln)));
  return first_epoch_offset + bump;
}

double OneToOneParams::slot_probability(std::uint32_t epoch) const {
  RCB_REQUIRE(epoch >= 1);
  const double ln8e = std::log(8.0 / eps);
  const double half_slots = static_cast<double>(pow2(epoch - 1));
  return clamp_probability(std::sqrt(ln8e / half_slots));
}

double OneToOneParams::halt_threshold(std::uint32_t epoch) const {
  const double half_slots = static_cast<double>(pow2(epoch - 1));
  return halt_threshold_factor * slot_probability(epoch) * half_slots;
}

RepetitionResult run_duel_phase(const DuelPhaseContext& ctx,
                                const NodeAction& alice,
                                const NodeAction& bob,
                                DuelAdversary& adversary, Rng& rng,
                                FaultPlan* faults, OneToOneResult& acc) {
  // The spoofer transmits into the shared channel and never listens; its
  // partition is immaterial.
  static constexpr std::array<std::uint32_t, 3> kPartition = {0, 1, 0};
  const DuelPlan plan = adversary.plan(ctx, rng);
  std::array<NodeAction, 3> actions = {alice, bob, NodeAction{}};
  if (plan.spoof_nack_prob > 0.0) {
    actions[kSpooferRow] =
        NodeAction{plan.spoof_nack_prob, Payload::kNack, 0.0};
  }
  const std::array<JamSchedule, 2> views = {plan.alice_view, plan.bob_view};
  RepetitionResult rep = run_repetition_luniform(
      ctx.num_slots, actions, kPartition, views, rng, nullptr, CcaModel{},
      faults);
  acc.latency += ctx.num_slots;
  acc.adversary_cost +=
      plan.alice_view.jammed_count() + plan.bob_view.jammed_count();
  // Spoofed transmissions cost the adversary one unit each.
  acc.adversary_cost += adversary.budget().take(rep.obs[kSpooferRow].sends);
  return rep;
}

void OneToOneStepper::step(DuelAdversary& adversary, Rng& rng,
                           OneToOneResult& acc, FaultPlan* faults) {
  const SlotCount num_slots = pow2(epoch);
  const double p = params->slot_probability(epoch);
  const double theta = params->halt_threshold(epoch);
  const NodeAction idle{};

  // ---- SEND phase: Alice transmits m, Bob listens. ---------------------
  {
    const RepetitionResult rep = run_duel_phase(
        {epoch, DuelPhase::kSend, num_slots, p, alice_running, bob_running},
        alice_running ? NodeAction{p, Payload::kMessage, 0.0} : idle,
        bob_running ? NodeAction{0.0, Payload::kNoise, p} : idle, adversary,
        rng, faults, acc);
    acc.alice_cost += rep.obs[kAliceRow].sends;
    if (bob_running) {
      const NodeObservation& bob = rep.obs[kBobRow];
      if (bob.messages > 0) {
        // Bob powers down the instant he receives m.
        acc.bob_cost += bob.listens_until_first_message;
        acc.delivered = true;
        bob_running = false;
      } else {
        acc.bob_cost += bob.listens;
        if (static_cast<double>(bob.noise) < theta) {
          // Little jamming and no message: Alice must have halted.
          bob_running = false;
        }
      }
    }
  }

  // ---- NACK phase: uninformed Bob transmits nacks, Alice listens. ------
  if (alice_running || bob_running) {
    const RepetitionResult rep = run_duel_phase(
        {epoch, DuelPhase::kNack, num_slots, p, alice_running, bob_running},
        alice_running ? NodeAction{0.0, Payload::kNoise, p} : idle,
        bob_running && !acc.delivered ? NodeAction{p, Payload::kNack, 0.0}
                                      : idle,
        adversary, rng, faults, acc);
    acc.bob_cost += rep.obs[kBobRow].sends;
    if (alice_running) {
      const NodeObservation& alice = rep.obs[kAliceRow];
      acc.alice_cost += alice.listens;
      if (alice.nacks == 0 && static_cast<double>(alice.noise) < theta) {
        // No nack and a quiet channel: Bob is informed or gone.
        alice_running = false;
      }
    }
  }
  ++epoch;
}

void finish_duel(OneToOneResult& r, bool alice_running, bool bob_running) {
  r.hit_epoch_cap = !r.aborted && (alice_running || bob_running);
  r.alice_halted = !alice_running;
  r.bob_halted = !bob_running;
}

OneToOneResult run_one_to_one(const OneToOneParams& params,
                              DuelAdversary& adversary, Rng& rng,
                              FaultPlan* faults) {
  if (faults != nullptr && !faults->active()) faults = nullptr;
  OneToOneResult result;
  OneToOneStepper fig1(params);
  while (fig1.running() && !fig1.exhausted()) {
    // Wall-clock abort: give up rather than escalate into the next epoch.
    if (params.timeout_slots > 0 && result.latency >= params.timeout_slots) {
      result.aborted = true;
      break;
    }
    result.final_epoch = fig1.epoch;
    fig1.step(adversary, rng, result, faults);
  }
  finish_duel(result, fig1.alice_running, fig1.bob_running);
  return result;
}

}  // namespace rcb
