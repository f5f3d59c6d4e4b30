// Golden-ratio 1-to-1 baseline after King, Saia & Young (PODC 2011).
//
// The paper compares Theorem 1 against KSY's Las Vegas protocol with
// expected cost O(T^(phi-1) + 1) ≈ O(T^0.62), which works even when Bob's
// messages cannot be authenticated (the adversary can spoof them).  KSY has
// no public implementation; this is a reconstruction that preserves the
// cost anatomy the comparison depends on:
//
//   Epoch i lasts 2^i slots.  Alice transmits m with per-slot probability
//   p_A = c * 2^(-(2-phi) i) and listens with p_L = 2^(-(phi-1) i); Bob
//   listens with p_B = 2^(-(phi-1) i).  Expected per-epoch costs are
//   ~c * 2^((phi-1) i) for Alice and ~2^((2-phi) i) for Bob, and the
//   expected number of successful deliveries in an unjammed epoch is
//   p_A * p_B * 2^i = c, a constant.
//
//   Bob halts upon receiving m.  Both parties estimate the jamming level
//   from their own listening samples; a party halts at the end of an epoch
//   whose observed noisy fraction is below 1/4 (Bob additionally requires
//   that he failed to receive m, which after an unjammed epoch has
//   probability e^-c).  Crucially, *no decision ever trusts a received
//   message other than the authenticated m*, which is why spoofed nacks—
//   fatal to the Figure-1 protocol's competitiveness — do nothing here.
//
// To force the protocol past epoch i the adversary must jam a constant
// fraction of its slots (cost Omega(2^i)), at which point the max per-party
// cost is Theta(2^((phi-1) i)) = Theta(T^(phi-1)); Theorem 5 shows this
// exponent is optimal against spoofing adversaries.
#pragma once

#include <cstdint>

#include "rcb/adversary/two_uniform.hpp"
#include "rcb/common/types.hpp"
#include "rcb/protocols/one_to_one.hpp"
#include "rcb/rng/rng.hpp"

namespace rcb {

struct KsyParams {
  /// Expected deliveries per unjammed epoch (failure e^-c per epoch).
  double c = 4.0;
  std::uint32_t first_epoch = 6;
  /// Epoch cap; the default is the last epoch whose 2^epoch-slot phases
  /// an engine call can run (see OneToOneParams::max_epoch).
  std::uint32_t max_epoch = event_key::kMaxPhaseEpoch;
  /// A party keeps running while its observed noisy fraction >= this.
  double noise_fraction_threshold = 0.25;

  double alice_send_prob(std::uint32_t epoch) const;
  double alice_listen_prob(std::uint32_t epoch) const;
  double bob_listen_prob(std::uint32_t epoch) const;
};

/// KSY advanced one epoch at a time; the counterpart of OneToOneStepper,
/// which run_combined interleaves it with.  KSY has no timeout.
struct KsyStepper {
  explicit KsyStepper(const KsyParams& p);
  explicit KsyStepper(KsyParams&&) = delete;  // keeps a pointer

  /// Runs epoch `epoch`, KSY's single phase, and advances it.  Adds costs,
  /// latency and adversary spend into `acc` and sets acc.delivered when
  /// Bob receives m.
  void step(DuelAdversary& adversary, Rng& rng, OneToOneResult& acc,
            FaultPlan* faults);

  bool running() const { return alice_running || bob_running; }
  /// True once `epoch` is past params->max_epoch.
  bool exhausted() const { return epoch > params->max_epoch; }

  const KsyParams* params;
  std::uint32_t epoch;
  bool alice_running = true;
  bool bob_running = true;
};

/// Runs the KSY-style protocol; reuses OneToOneResult for comparability.
/// `faults` (optional) applies the channel faults of sim/faults.hpp.
OneToOneResult run_ksy(const KsyParams& params, DuelAdversary& adversary,
                       Rng& rng, FaultPlan* faults = nullptr);

}  // namespace rcb
