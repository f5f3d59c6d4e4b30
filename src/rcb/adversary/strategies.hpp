// 1-uniform jamming strategies for the 1-to-n broadcast protocol.
//
// Per Lemma 1, an adaptive adversary is WLOG one that commits, at the start
// of each repetition, to jamming a suffix of its slots — it may pick the
// suffix length using everything publicly observable so far.  The
// RepetitionAdversary interface captures exactly that power: plan() is
// called once per repetition with the public context and returns a
// JamSchedule.  Genuinely reactive (slot-by-slot) adversaries implement
// McSlotAdversary (adversary/slot_adversary.hpp), run by the slotwise
// engine in sim/mc_slot_engine.hpp, and are compared against these in
// bench E10.
#pragma once

#include <memory>

#include "rcb/adversary/budget.hpp"
#include "rcb/common/types.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/jam_schedule.hpp"

namespace rcb {

/// Public information available to the adversary when planning a repetition.
struct RepetitionContext {
  std::uint32_t epoch = 0;       ///< epoch index i
  std::uint64_t repetition = 0;  ///< repetition index within the epoch
  std::uint64_t repetitions_in_epoch = 0;
  SlotCount num_slots = 0;       ///< 2^i
};

/// Interface for budgeted repetition-level adversaries.
class RepetitionAdversary {
 public:
  explicit RepetitionAdversary(Budget budget) : budget_(budget) {}
  virtual ~RepetitionAdversary() = default;

  /// Commits to the jam schedule for the coming repetition.  The strategy
  /// must draw its spend from budget() — the returned schedule's
  /// jammed_count() is what the driver charges to the adversary ledger.
  virtual JamSchedule plan(const RepetitionContext& ctx, Rng& rng) = 0;

  Budget& budget() { return budget_; }
  const Budget& budget() const { return budget_; }

 private:
  Budget budget_;
};

/// Never jams (the T = 0 efficiency-function scenario).
class NoJamAdversary final : public RepetitionAdversary {
 public:
  NoJamAdversary() : RepetitionAdversary(Budget(0)) {}
  JamSchedule plan(const RepetitionContext& ctx, Rng& rng) override;
};

/// q-blocks every repetition (Definition 1) until the budget runs out:
/// jams the last ceil(q * num_slots) slots of each repetition.  This is the
/// canonical Lemma-1 adversary the upper-bound proofs reason about.
class SuffixBlockerAdversary final : public RepetitionAdversary {
 public:
  SuffixBlockerAdversary(Budget budget, double q);
  JamSchedule plan(const RepetitionContext& ctx, Rng& rng) override;

 private:
  double q_;
};

/// q-blocks a fixed fraction of the repetitions in each epoch (chosen
/// uniformly at random), leaving the rest untouched — the "1/10-block a
/// constant fraction of repetitions" shape from the Theorem 3 analysis.
class EpochFractionBlockerAdversary final : public RepetitionAdversary {
 public:
  EpochFractionBlockerAdversary(Budget budget, double q,
                                double repetition_fraction);
  JamSchedule plan(const RepetitionContext& ctx, Rng& rng) override;

 private:
  double q_;
  double fraction_;
};

/// Jams each slot independently with a fixed rate (non-adaptive noise; also
/// a model for environmental interference).
class RandomJammerAdversary final : public RepetitionAdversary {
 public:
  RandomJammerAdversary(Budget budget, double rate);
  JamSchedule plan(const RepetitionContext& ctx, Rng& rng) override;

 private:
  double rate_;
};

/// Jams periodic bursts: `burst_len` consecutive slots every `period` slots.
class BurstJammerAdversary final : public RepetitionAdversary {
 public:
  BurstJammerAdversary(Budget budget, SlotCount burst_len, SlotCount period);
  JamSchedule plan(const RepetitionContext& ctx, Rng& rng) override;

 private:
  SlotCount burst_len_;
  SlotCount period_;
};

}  // namespace rcb
