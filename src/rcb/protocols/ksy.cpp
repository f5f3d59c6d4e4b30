#include "rcb/protocols/ksy.hpp"

#include <cmath>

#include "rcb/common/contracts.hpp"
#include "rcb/common/mathutil.hpp"

namespace rcb {

namespace {

double pow2_scaled(double exponent_per_epoch, std::uint32_t epoch) {
  return std::exp2(-exponent_per_epoch * static_cast<double>(epoch));
}

}  // namespace

double KsyParams::alice_send_prob(std::uint32_t epoch) const {
  return clamp_probability(c * pow2_scaled(2.0 - kGoldenRatio, epoch));
}

double KsyParams::alice_listen_prob(std::uint32_t epoch) const {
  return clamp_probability(pow2_scaled(kGoldenRatio - 1.0, epoch));
}

double KsyParams::bob_listen_prob(std::uint32_t epoch) const {
  return clamp_probability(pow2_scaled(kGoldenRatio - 1.0, epoch));
}

KsyStepper::KsyStepper(const KsyParams& p)
    : params(&p), epoch(p.first_epoch) {
  RCB_REQUIRE(p.first_epoch >= 1);
}

void KsyStepper::step(DuelAdversary& adversary, Rng& rng, OneToOneResult& acc,
                      FaultPlan* faults) {
  const SlotCount num_slots = pow2(epoch);
  const double pa = params->alice_send_prob(epoch);
  const double pl = params->alice_listen_prob(epoch);
  const double pb = params->bob_listen_prob(epoch);
  // Spoofed traffic in KSY's single phase can only add noise/collisions;
  // neither party's decisions read unauthenticated messages.
  const RepetitionResult rep = run_duel_phase(
      {epoch, DuelPhase::kSend, num_slots, pa, alice_running, bob_running},
      alice_running ? NodeAction{pa, Payload::kMessage, pl} : NodeAction{},
      bob_running ? NodeAction{0.0, Payload::kNoise, pb} : NodeAction{},
      adversary, rng, faults, acc);

  // A party halts at the end of an epoch whose noisy fraction, estimated
  // from its own listening sample, is below the threshold.  Spoofed nacks
  // count as noise because neither party trusts them.
  const auto quiet = [&](const NodeObservation& o) {
    const double heard = static_cast<double>(o.heard_total());
    const double noisy = static_cast<double>(o.noise + o.nacks);
    return heard == 0.0 || noisy / heard < params->noise_fraction_threshold;
  };
  if (alice_running) {
    const NodeObservation& alice = rep.obs[kAliceRow];
    acc.alice_cost += alice.sends + alice.listens;
    // Channel quiet: Bob got m w.h.p.
    if (quiet(alice)) alice_running = false;
  }
  if (bob_running) {
    const NodeObservation& bob = rep.obs[kBobRow];
    if (bob.messages > 0) {
      acc.bob_cost += bob.listens_until_first_message;
      acc.delivered = true;
      bob_running = false;
    } else {
      acc.bob_cost += bob.listens;
      // Quiet epoch with no m: Alice is gone.
      if (quiet(bob)) bob_running = false;
    }
  }
  ++epoch;
}

OneToOneResult run_ksy(const KsyParams& params, DuelAdversary& adversary,
                       Rng& rng, FaultPlan* faults) {
  if (faults != nullptr && !faults->active()) faults = nullptr;
  OneToOneResult result;
  KsyStepper ksy(params);
  while (ksy.running() && !ksy.exhausted()) {
    result.final_epoch = ksy.epoch;
    ksy.step(adversary, rng, result, faults);
  }
  // KSY never aborts, so this reports hit_epoch_cap = a party still runs.
  finish_duel(result, ksy.alice_running, ksy.bob_running);
  return result;
}

}  // namespace rcb
