// Optional per-slot tracing of channel activity.
//
// Tracing exists for debugging and for the example programs that visualise
// executions; the engines skip all trace work when no Trace is attached.
// Only slots with activity (a sender, a listener, or jamming observed by a
// listener) are recorded, and recording stops silently at `capacity` events
// so a runaway configuration cannot exhaust memory.
#pragma once

#include <cstdint>
#include <vector>

#include "rcb/common/types.hpp"

namespace rcb {

/// One traced slot.
struct TraceEvent {
  std::uint64_t phase = 0;   ///< phase sequence number (set by set_phase)
  SlotIndex slot = 0;        ///< slot within the phase
  std::uint32_t senders = 0;
  std::uint32_t listeners = 0;
  bool jammed = false;       ///< jammed for at least one partition
};

/// Bounded event recorder.
class Trace {
 public:
  explicit Trace(std::size_t capacity = 1 << 20) : capacity_(capacity) {}

  /// Marks the start of a new phase; subsequent events carry this number.
  void begin_phase(std::uint64_t phase) { phase_ = phase; }

  void record(SlotIndex slot, std::uint32_t senders, std::uint32_t listeners,
              bool jammed);

  const std::vector<TraceEvent>& events() const { return events_; }
  bool truncated() const { return truncated_; }

 private:
  std::size_t capacity_;
  std::uint64_t phase_ = 0;
  bool truncated_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace rcb
