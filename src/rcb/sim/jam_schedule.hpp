// Jam schedules: which slots of a phase/repetition the adversary disrupts.
//
// Lemma 1 of the paper shows that, within one phase, an adaptive adversary
// is WLOG one that leaves a prefix unjammed and jams a contiguous suffix.
// The suffix form is therefore first-class here; explicit slot lists and
// full/none schedules cover the other strategies (random, burst, ...).
#pragma once

#include <vector>

#include "rcb/common/types.hpp"

namespace rcb {

/// An immutable description of the jammed slots within one phase of
/// `num_slots` slots.
class JamSchedule {
 public:
  /// No jamming at all.
  static JamSchedule none();

  /// Every slot jammed.
  static JamSchedule all(SlotCount num_slots);

  /// Jams slots [start, num_slots) — the canonical adaptive form (Lemma 1).
  static JamSchedule suffix(SlotCount num_slots, SlotIndex start);

  /// Jams the last ceil(q * num_slots) slots; q in [0, 1].  A phase jammed
  /// this way is exactly "q-blocked" in the sense of Definition 1.
  static JamSchedule blocking_fraction(SlotCount num_slots, double q);

  /// Jams an explicit set of slots. `slots` must be sorted ascending and
  /// duplicate-free; all entries must be < num_slots.
  static JamSchedule slots(SlotCount num_slots, std::vector<SlotIndex> slots);

  /// True if `slot` is jammed.  Inline, since the engines ask it once per
  /// listen: kNone holds no slots and kAll is the suffix from slot 0, so
  /// one interval test settles every kind but an explicit slot list, whose
  /// binary search stays out of line.
  bool is_jammed(SlotIndex slot) const {
    if (kind_ == Kind::kSlots) return is_listed(slot);
    return slot >= suffix_start_ && slot < num_slots_;
  }

  /// Total number of jammed slots (the adversary's cost for this phase if
  /// it runs to completion).
  SlotCount jammed_count() const;

  /// Number of jammed slots among [0, end) — used to charge the adversary
  /// only for slots that actually elapsed before every party halted.
  SlotCount jammed_before(SlotIndex end) const;

  SlotCount num_slots() const { return num_slots_; }

 private:
  enum class Kind { kNone, kAll, kSuffix, kSlots };

  JamSchedule(Kind kind, SlotCount num_slots) : kind_(kind), num_slots_(num_slots) {}

  /// is_jammed for an explicit slot list.
  bool is_listed(SlotIndex slot) const;

  Kind kind_ = Kind::kNone;
  SlotCount num_slots_ = 0;
  SlotIndex suffix_start_ = 0;
  std::vector<SlotIndex> slots_;
};

}  // namespace rcb
