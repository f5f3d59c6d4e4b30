#include "rcb/sim/jam_schedule.hpp"

#include <algorithm>
#include <cmath>

#include "rcb/common/contracts.hpp"

namespace rcb {

JamSchedule JamSchedule::none() { return JamSchedule(Kind::kNone, 0); }

JamSchedule JamSchedule::all(SlotCount num_slots) {
  JamSchedule js(Kind::kAll, num_slots);
  return js;
}

JamSchedule JamSchedule::suffix(SlotCount num_slots, SlotIndex start) {
  RCB_REQUIRE(start <= num_slots);
  JamSchedule js(Kind::kSuffix, num_slots);
  js.suffix_start_ = start;
  return js;
}

JamSchedule JamSchedule::blocking_fraction(SlotCount num_slots, double q) {
  RCB_REQUIRE(q >= 0.0 && q <= 1.0);
  const auto jam = static_cast<SlotCount>(
      std::ceil(q * static_cast<double>(num_slots)));
  return suffix(num_slots, num_slots - std::min(jam, num_slots));
}

JamSchedule JamSchedule::slots(SlotCount num_slots,
                               std::vector<SlotIndex> slots) {
  RCB_REQUIRE(std::is_sorted(slots.begin(), slots.end()));
  RCB_REQUIRE(std::adjacent_find(slots.begin(), slots.end()) == slots.end());
  RCB_REQUIRE(slots.empty() || slots.back() < num_slots);
  JamSchedule js(Kind::kSlots, num_slots);
  js.slots_ = std::move(slots);
  return js;
}

bool JamSchedule::is_listed(SlotIndex slot) const {
  return std::binary_search(slots_.begin(), slots_.end(), slot);
}

SlotCount JamSchedule::jammed_count() const {
  switch (kind_) {
    case Kind::kNone:
      return 0;
    case Kind::kAll:
      return num_slots_;
    case Kind::kSuffix:
      return num_slots_ - suffix_start_;
    case Kind::kSlots:
      return slots_.size();
  }
  return 0;
}

SlotCount JamSchedule::jammed_before(SlotIndex end) const {
  const SlotIndex e = std::min<SlotIndex>(end, num_slots_);
  switch (kind_) {
    case Kind::kNone:
      return 0;
    case Kind::kAll:
      return e;
    case Kind::kSuffix:
      return e > suffix_start_ ? e - suffix_start_ : 0;
    case Kind::kSlots: {
      const auto it = std::lower_bound(slots_.begin(), slots_.end(), e);
      return static_cast<SlotCount>(it - slots_.begin());
    }
  }
  return 0;
}

}  // namespace rcb
