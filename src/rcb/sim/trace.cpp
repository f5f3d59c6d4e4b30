#include "rcb/sim/trace.hpp"

namespace rcb {

void Trace::record(SlotIndex slot, std::uint32_t senders,
                   std::uint32_t listeners, bool jammed) {
  if (events_.size() >= capacity_) {
    truncated_ = true;
    return;
  }
  events_.push_back(TraceEvent{phase_, slot, senders, listeners, jammed});
}

}  // namespace rcb
