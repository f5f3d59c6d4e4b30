// Multi-channel jamming strategies (Chen–Zheng budget-split model).
//
// A McSlotAdversary returns a per-slot channel mask; every jammed
// (slot, channel) pair costs one budget unit, so the strategy space is how
// to *split* the budget across channels: spread it thin (uniform), bet it
// all on one channel (focus), or chase the hoppers (sweep).  Every strategy
// here draws its spend from a Budget and never sets a bit it could not pay
// for, so an engine's jam_charges equals the strategy's budget spend — the
// invariant the per-channel energy-conservation oracle checks.
//
// Strategies that randomize own a private Rng (seeded by the caller, e.g.
// from (scenario seed, trial)) so a trial replays deterministically; the
// engines' trial Rng stream is never touched by adversary decisions.  No
// output reads that Rng once the Budget is dry (a Budget never refills), so
// a dry strategy stops drawing.
#pragma once

#include <cstdint>
#include <vector>

#include "rcb/adversary/budget.hpp"
#include "rcb/adversary/slot_adversary.hpp"
#include "rcb/common/types.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/channel_plan.hpp"
#include "rcb/sim/jam_schedule.hpp"

namespace rcb {

/// Never jams (T = 0).
class McNoJam final : public McSlotAdversary {
 public:
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t num_channels,
                         std::span<const McSlotActivity> history) override;
  bool jam_run_masks(SlotIndex begin, SlotIndex end,
                     std::uint32_t num_channels,
                     std::span<const McSlotActivity> history,
                     McJamRunSink& sink) override;
  SlotCount history_window() const override { return 0; }
};

/// Uniform split: each slot, each channel is jammed independently with
/// probability `rate` while the budget lasts — the multi-channel analogue
/// of RandomJammerAdversary, spending ~rate * C per slot.
class McUniformSplitJammer final : public McSlotAdversary {
 public:
  McUniformSplitJammer(Budget budget, double rate, Rng rng);
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t num_channels,
                         std::span<const McSlotActivity> history) override;
  bool jam_run_masks(SlotIndex begin, SlotIndex end,
                     std::uint32_t num_channels,
                     std::span<const McSlotActivity> history,
                     McJamRunSink& sink) override;
  SlotCount history_window() const override { return 0; }
  const Budget& budget() const { return budget_; }

 private:
  Budget budget_;
  std::uint64_t threshold_;  ///< Rng::bernoulli_threshold(rate)
  Rng rng_;
};

/// Concentrate on one: the whole budget goes to a single channel, jammed
/// with probability min(1, rate * C) per slot — the same expected spend as
/// the uniform split, but all on `target`.  Against non-hopping nodes this
/// is the strongest split; against uniform hoppers it blocks an expected
/// 1/C of the traffic.
class McFocusJammer final : public McSlotAdversary {
 public:
  McFocusJammer(Budget budget, double rate, std::uint32_t target, Rng rng);
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t num_channels,
                         std::span<const McSlotActivity> history) override;
  bool jam_run_masks(SlotIndex begin, SlotIndex end,
                     std::uint32_t num_channels,
                     std::span<const McSlotActivity> history,
                     McJamRunSink& sink) override;
  SlotCount history_window() const override { return 0; }
  const Budget& budget() const { return budget_; }

 private:
  Budget budget_;
  double rate_;
  std::uint32_t target_;
  Rng rng_;
};

/// Sweep: jams channel (slot / dwell) mod C, dwelling `dwell` slots on each
/// channel before moving on, while the budget lasts.  Deterministic; the
/// classic scanning jammer multi-channel protocols must beat.
class McSweepJammer final : public McSlotAdversary {
 public:
  McSweepJammer(Budget budget, SlotCount dwell);
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t num_channels,
                         std::span<const McSlotActivity> history) override;
  bool jam_run_masks(SlotIndex begin, SlotIndex end,
                     std::uint32_t num_channels,
                     std::span<const McSlotActivity> history,
                     McJamRunSink& sink) override;
  SlotCount history_window() const override { return 0; }
  const Budget& budget() const { return budget_; }

 private:
  Budget budget_;
  SlotCount dwell_;
};

/// Replays one committed JamSchedule per channel — the deterministic
/// adversary the engine crosscheck drives both engines with (its decisions
/// are a pure function of the slot index, so event and dense consultations
/// agree exactly).  With one schedule it is the Lemma-1 committed jammer of
/// the single-channel model.  Unbudgeted: charges are whatever the
/// schedules say.
class McScheduleAdversary final : public McSlotAdversary {
 public:
  explicit McScheduleAdversary(std::vector<JamSchedule> per_channel);
  std::uint64_t jam_mask(SlotIndex slot, std::uint32_t num_channels,
                         std::span<const McSlotActivity> history) override;
  bool jam_run_masks(SlotIndex begin, SlotIndex end,
                     std::uint32_t num_channels,
                     std::span<const McSlotActivity> history,
                     McJamRunSink& sink) override;
  SlotCount history_window() const override { return 0; }

 private:
  std::vector<JamSchedule> per_channel_;
};

}  // namespace rcb
