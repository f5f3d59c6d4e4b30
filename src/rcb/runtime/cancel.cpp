#include "rcb/runtime/cancel.hpp"

namespace rcb {
namespace {

thread_local CancelToken* t_cancel_token = nullptr;

}  // namespace

CancelScope::CancelScope(CancelToken* token) : previous_(t_cancel_token) {
  t_cancel_token = token;
}

CancelScope::~CancelScope() { t_cancel_token = previous_; }

void poll_cancellation(SlotCount upcoming_slots) {
  CancelToken* token = t_cancel_token;
  if (token == nullptr) return;
  token->charge_slots(upcoming_slots);
  if (token->requested()) throw TrialCancelled(token->reason());
}

}  // namespace rcb
