// 1-to-1 BROADCAST — the paper's Figure 1 protocol (Theorem 1).
//
// Alice wants to deliver an authenticated message m to Bob across the
// jammed channel; both parties' transmissions can be authenticated, and the
// adversary is 2-uniform.  Expected cost is O(sqrt(T ln(1/eps)) +
// ln(1/eps)) with success probability >= 1 - eps, and latency O(T).
//
// The paper's pseudocode figure is an image in the available text, so the
// protocol is reconstructed from the prose and the Theorem 1 proof:
//
//   Epochs are indexed i >= 11 + lg ln(8/eps); epoch i consists of a SEND
//   phase and a NACK phase of 2^i slots each, with per-slot probability
//   p_i = sqrt(ln(8/eps) / 2^(i-1)).
//
//   SEND phase:  Alice transmits m w.p. p_i per slot.  Bob (uninformed)
//   listens w.p. p_i per slot; upon receiving m he is informed and halts
//   (stops listening immediately, never sends a nack).  If the phase ends
//   with Bob uninformed and his observed noisy-slot count below
//   theta_i = p_i * 2^(i-1) / 4, he concludes Alice has already halted and
//   halts too (the proof's "Alice has halted prematurely" case).
//
//   NACK phase:  Bob (still uninformed) transmits a nack w.p. p_i per
//   slot.  Alice listens w.p. p_i per slot.  At the phase end Alice halts
//   iff she heard no nack and her noisy-slot count is below theta_i
//   (either Bob was informed and silent, or Bob halted); otherwise she
//   proceeds to epoch i + 1.
//
// The threshold theta_i is 1/4 of the expected jam count when half the
// phase is jammed, exactly the constant used in the proof's Chernoff
// arguments.
#pragma once

#include <cstdint>

#include "rcb/adversary/two_uniform.hpp"
#include "rcb/common/types.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/engine_workspace.hpp"
#include "rcb/sim/faults.hpp"
#include "rcb/sim/repetition_engine.hpp"

namespace rcb {

struct OneToOneParams {
  /// Tunable failure bound (Theorem 1's eps).
  double eps = 0.01;
  /// The epoch index offset: first epoch is offset + ceil(lg ln(8/eps)).
  /// The paper uses 11; smaller values shrink the attack-free cost floor at
  /// the (empirically negligible at these scales) price of looser Chernoff
  /// slack in the earliest epochs.
  std::uint32_t first_epoch_offset = 11;
  /// Hard epoch cap so adversaries with huge budgets terminate the sim;
  /// a run still going at the cap ends with hit_epoch_cap.  The default is
  /// the last epoch whose 2^epoch-slot phases an engine call can run.
  std::uint32_t max_epoch = event_key::kMaxPhaseEpoch;
  /// Halting threshold as a fraction of p_i * 2^(i-1); the paper's proofs
  /// use 1/4.
  double halt_threshold_factor = 0.25;
  /// Wall-clock abort: when > 0 and the slots elapsed reach this bound with
  /// either party still running, the run is cut off and reported as
  /// aborted rather than looping toward max_epoch.  Deployments use this
  /// to bound the damage of a permanently-jammed channel; 0 disables.
  SlotCount timeout_slots = 0;

  /// Paper-faithful constants.
  static OneToOneParams theory(double eps);
  /// Simulation-scale constants: identical functional forms, first epoch
  /// pulled down so no-attack executions cost O(ln 1/eps) slots in practice.
  static OneToOneParams sim(double eps);

  /// First epoch index i0 implied by eps and first_epoch_offset.
  std::uint32_t first_epoch() const;
  /// Per-slot probability p_i (clamped to 1).
  double slot_probability(std::uint32_t epoch) const;
  /// Halting threshold theta_i.
  double halt_threshold(std::uint32_t epoch) const;
};

/// Outcome of one full execution.
struct OneToOneResult {
  bool delivered = false;      ///< Bob received m
  bool alice_halted = false;
  bool bob_halted = false;
  bool hit_epoch_cap = false;  ///< execution was truncated at max_epoch
  /// True when timeout_slots elapsed with a party still running; the
  /// protocol gave up rather than halting by its own rules.
  bool aborted = false;
  Cost alice_cost = 0;
  Cost bob_cost = 0;
  Cost adversary_cost = 0;     ///< T actually spent (jamming + spoofed sends)
  SlotCount latency = 0;       ///< slots elapsed until the last party halted
  std::uint32_t final_epoch = 0;

  Cost max_cost() const { return alice_cost > bob_cost ? alice_cost : bob_cost; }
};

/// Engine rows of a duel phase.  Crash churn uses the same node ids.
enum DuelRow : NodeId { kAliceRow = 0, kBobRow = 1, kSpooferRow = 2 };

/// Runs one duel phase: asks `adversary` for its plan, then runs the engine
/// on Alice's and Bob's actions plus the plan's spoofed nacks (partition 0
/// is Alice's channel view, partition 1 Bob's).  Charges the phase's slots
/// to acc.latency and the jamming and spoofing spend to acc.adversary_cost;
/// the parties' costs are left to the caller.  Rows of the result are
/// DuelRow.
RepetitionResult run_duel_phase(const DuelPhaseContext& ctx,
                                const NodeAction& alice,
                                const NodeAction& bob,
                                DuelAdversary& adversary, Rng& rng,
                                FaultPlan* faults, OneToOneResult& acc);

/// Fig. 1 advanced one epoch at a time.  run_one_to_one loops over it and
/// run_combined interleaves it with KsyStepper.  The caller owns the
/// epoch cap (exhausted()) and the timeout.
struct OneToOneStepper {
  explicit OneToOneStepper(const OneToOneParams& p)
      : params(&p), epoch(p.first_epoch()) {}
  explicit OneToOneStepper(OneToOneParams&&) = delete;  // keeps a pointer

  /// Runs epoch `epoch` and advances it: the send phase, then the nack
  /// phase unless both parties halted.  Adds costs, latency and adversary
  /// spend into `acc`.  acc.delivered is Bob's informed flag: the step sets
  /// it when Bob receives m, and an informed Bob never nacks.
  void step(DuelAdversary& adversary, Rng& rng, OneToOneResult& acc,
            FaultPlan* faults);

  bool running() const { return alice_running || bob_running; }
  /// True once `epoch` is past params->max_epoch.
  bool exhausted() const { return epoch > params->max_epoch; }

  const OneToOneParams* params;
  std::uint32_t epoch;
  bool alice_running = true;
  bool bob_running = true;
};

/// Records how a duel ended: each party's halt, and hit_epoch_cap when
/// the run stopped without an abort while a party still ran.
void finish_duel(OneToOneResult& r, bool alice_running, bool bob_running);

/// Runs the protocol to completion against `adversary`.  `faults`
/// (optional) applies the channel faults of sim/faults.hpp to every phase;
/// crash churn uses node ids 0 = Alice, 1 = Bob.
OneToOneResult run_one_to_one(const OneToOneParams& params,
                              DuelAdversary& adversary, Rng& rng,
                              FaultPlan* faults = nullptr);

}  // namespace rcb
