// 2-uniform adversaries for the 1-to-1 (Alice/Bob) protocols.
//
// A 2-uniform adversary (paper section 1.2) may jam Alice's and Bob's
// channel views independently; each jammed (slot, view) pair costs one
// unit.  In addition, the Theorem-5 adversary may transmit spoofed nack
// messages indistinguishable from Bob's — modelled here as an extra
// transmitter with a per-slot spoof probability whose sends are charged to
// the adversary.
//
// The DuelPhaseContext deliberately exposes more than a physical adversary
// could observe (whether each party is still running).  Our adversaries are
// used to stress *upper bound* claims, and a strictly stronger adversary
// only makes those measurements conservative.
#pragma once

#include "rcb/adversary/budget.hpp"
#include "rcb/common/types.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/jam_schedule.hpp"

namespace rcb {

/// Which half of a 1-to-1 epoch is being planned.
enum class DuelPhase : std::uint8_t { kSend, kNack };

/// Public context for planning one phase of the 1-to-1 protocol.
struct DuelPhaseContext {
  std::uint32_t epoch = 0;
  DuelPhase phase = DuelPhase::kSend;
  SlotCount num_slots = 0;
  /// The protocol's per-slot send/listen probability p_i for this epoch.
  /// The protocol is public knowledge, so the adversary may use it.
  double protocol_prob = 0.0;
  bool alice_running = true;
  bool bob_running = true;
};

/// The adversary's commitment for one phase.
struct DuelPlan {
  JamSchedule alice_view = JamSchedule::none();  ///< jams Alice's partition
  JamSchedule bob_view = JamSchedule::none();    ///< jams Bob's partition
  /// Per-slot probability of transmitting a spoofed nack (Theorem 5 power).
  /// run_duel_phase transmits it in any phase; it fools only Fig. 1's nack
  /// phase.  Spoofed sends cost the adversary one unit each.
  double spoof_nack_prob = 0.0;
};

/// Interface for budgeted 2-uniform adversaries.
///
/// A planner reads its budget only through the grants of budget().take()
/// and through budget().exhausted(), never through remaining() or limit().
/// So a run in which no take() is clamped plays out identically under any
/// larger budget; the fuzz oracle for budget monotonicity relies on this
/// to skip comparisons whose budget never binds.
class DuelAdversary {
 public:
  explicit DuelAdversary(Budget budget) : budget_(budget) {}
  virtual ~DuelAdversary() = default;

  virtual DuelPlan plan(const DuelPhaseContext& ctx, Rng& rng) = 0;

  Budget& budget() { return budget_; }
  const Budget& budget() const { return budget_; }

 private:
  Budget budget_;
};

/// No interference at all.
class DuelNoJam final : public DuelAdversary {
 public:
  DuelNoJam() : DuelAdversary(Budget(0)) {}
  DuelPlan plan(const DuelPhaseContext& ctx, Rng& rng) override;
};

/// q-blocks Bob's view of every send phase (stops m) until broke.
class SendPhaseBlocker final : public DuelAdversary {
 public:
  SendPhaseBlocker(Budget budget, double q);
  DuelPlan plan(const DuelPhaseContext& ctx, Rng& rng) override;

 private:
  double q_;
};

/// q-blocks Alice's view of every nack phase (stops the nack and keeps
/// Alice running) until broke.
class NackPhaseBlocker final : public DuelAdversary {
 public:
  NackPhaseBlocker(Budget budget, double q);
  DuelPlan plan(const DuelPhaseContext& ctx, Rng& rng) override;

 private:
  double q_;
};

/// The canonical maximal attack: q-blocks Bob's view in send phases *and*
/// Alice's view in nack phases, so neither m nor the nack gets through and
/// both parties observe enough jamming to keep running.  Spends ~2q slots
/// per epoch slot-pair; forces both parties into epoch after epoch until
/// the budget dies.
class FullDuelBlocker final : public DuelAdversary {
 public:
  FullDuelBlocker(Budget budget, double q);
  DuelPlan plan(const DuelPhaseContext& ctx, Rng& rng) override;

 private:
  double q_;
};

/// q-blocks both views of every phase until broke.  Against protocols with
/// a single phase per epoch (the KSY baseline) this is the canonical
/// "force them into the next epoch" attack; against Fig. 1 it spends twice
/// what FullDuelBlocker does for the same effect.
class BothViewsSuffixBlocker final : public DuelAdversary {
 public:
  BothViewsSuffixBlocker(Budget budget, double q);
  DuelPlan plan(const DuelPhaseContext& ctx, Rng& rng) override;

 private:
  double q_;
};

/// Jams both views of all phases at rate q (symmetric noise floor).
class SymmetricRandomDuelJammer final : public DuelAdversary {
 public:
  SymmetricRandomDuelJammer(Budget budget, double rate);
  DuelPlan plan(const DuelPhaseContext& ctx, Rng& rng) override;

 private:
  double rate_;
};

}  // namespace rcb
