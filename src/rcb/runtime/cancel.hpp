// Cooperative cancellation for long-running trials.
//
// A CancelToken is a small shared flag that a supervisor — watchdog
// thread, signal handler, or the token's own slot-budget accounting — can
// raise.  Simulation engines poll the thread's installed token at every
// repetition boundary via poll_cancellation(), which throws TrialCancelled
// out of the engine; the supervising runner catches it and records the
// trial as timed out instead of letting it stall the sweep.
//
// Installation is thread-local and RAII-scoped (CancelScope), mirroring
// ReproScope in common/contracts.hpp: no engine or protocol signature
// changes, and trials running on different pool workers carry independent
// tokens.  Code that never installs a token pays one thread-local load per
// repetition.
#pragma once

#include <atomic>
#include <stdexcept>
#include <string>

#include "rcb/common/types.hpp"

namespace rcb {

/// Shared cancellation flag with an optional cooperative slot budget.
/// `request` may be called from any thread (including a signal-adjacent
/// watchdog); `charge_slots` is called by the owning trial's engines.
class CancelToken {
 public:
  CancelToken() = default;
  /// `slot_budget` caps the total simulated slots this token's trial may
  /// run (0 = unlimited).  Because engines charge at repetition boundaries
  /// the cap is deterministic: the same trial always cancels at the same
  /// boundary, independent of wall-clock speed.
  explicit CancelToken(SlotCount slot_budget) : slot_budget_(slot_budget) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Raises the flag.  `reason` must have static storage duration (it is
  /// stored, not copied).  The first request's reason wins.
  void request(const char* reason) {
    const char* expected = nullptr;
    reason_.compare_exchange_strong(expected, reason,
                                    std::memory_order_acq_rel);
    requested_.store(true, std::memory_order_release);
  }

  bool requested() const { return requested_.load(std::memory_order_acquire); }

  /// Why cancellation was requested, or "" when it was not.
  const char* reason() const {
    const char* r = reason_.load(std::memory_order_acquire);
    return r == nullptr ? "" : r;
  }

  /// Charges `slots` against the budget; self-requests once exceeded.
  void charge_slots(SlotCount slots) {
    const SlotCount total =
        slots_.fetch_add(slots, std::memory_order_relaxed) + slots;
    if (slot_budget_ != 0 && total > slot_budget_) request("slot_budget");
  }

  SlotCount slots_charged() const {
    return slots_.load(std::memory_order_relaxed);
  }
  SlotCount slot_budget() const { return slot_budget_; }

 private:
  std::atomic<bool> requested_{false};
  std::atomic<const char*> reason_{nullptr};
  std::atomic<SlotCount> slots_{0};
  SlotCount slot_budget_ = 0;  ///< 0 = unlimited
};

/// Thrown by poll_cancellation out of an engine when the installed token
/// has been requested.  Supervising runners catch it at trial granularity.
class TrialCancelled : public std::runtime_error {
 public:
  explicit TrialCancelled(std::string reason)
      : std::runtime_error("trial cancelled: " + reason),
        reason_(std::move(reason)) {}

  const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

/// RAII installer for the calling thread's cancel token; nests.
class CancelScope {
 public:
  explicit CancelScope(CancelToken* token);
  ~CancelScope();
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  CancelToken* previous_;
};

/// Engines call this at each repetition boundary with the phase length
/// about to be simulated.  Charges the slots to the installed token (if
/// any) and throws TrialCancelled once cancellation has been requested or
/// the token's slot budget is exhausted.  No-op without a token.
void poll_cancellation(SlotCount upcoming_slots);

}  // namespace rcb
