#include "rcb/sim/repetition_engine.hpp"

#include "rcb/common/contracts.hpp"
#include "rcb/rng/sampling.hpp"
#include "rcb/runtime/cancel.hpp"
#include "rcb/sim/engine_kernels.hpp"
#include "rcb/sim/engine_workspace.hpp"

namespace rcb {
namespace {

Reception resolve(std::uint32_t sender_count, Payload single_payload,
                  bool jammed) {
  if (jammed) return Reception::kNoise;
  if (sender_count == 0) return Reception::kClear;
  if (sender_count > 1) return Reception::kNoise;
  switch (single_payload) {
    case Payload::kMessage:
      return Reception::kMessage;
    case Payload::kNack:
      return Reception::kNack;
    case Payload::kNoise:
      return Reception::kNoise;
  }
  return Reception::kNoise;
}

}  // namespace

RepetitionResult run_repetition_luniform(
    SlotCount num_slots, std::span<const NodeAction> actions,
    std::span<const std::uint32_t> partition,
    std::span<const JamSchedule> schedules, Rng& rng, Trace* trace,
    const CcaModel& cca, FaultPlan* faults) {
  RCB_REQUIRE(actions.size() == partition.size());
  RCB_REQUIRE(!schedules.empty());
  for (std::uint32_t p : partition) RCB_REQUIRE(p < schedules.size());
  RCB_REQUIRE(actions.size() <= event_key::kMaxNodes);
  RCB_REQUIRE(num_slots <= event_key::kMaxSlots);

  // Cooperative cancellation checkpoint: one poll per repetition keeps a
  // watchdogged or slot-budgeted trial from stalling a sweep for more than
  // one phase, at no per-slot cost.
  poll_cancellation(num_slots);

  if (faults != nullptr && !faults->active()) faults = nullptr;
  if (faults != nullptr) {
    faults->begin_phase(static_cast<std::uint32_t>(actions.size()), num_slots);
  }

  RepetitionResult result;
  result.obs.resize(actions.size());

  EngineWorkspace& ws = engine_workspace();
  const EngineWorkspace::PhaseScope scope(ws);
  engine_kernels::presample_phase(num_slots, actions, rng, ws, faults);

  // Sweep slot groups: count senders, then deliver receptions to listeners.
  const std::uint64_t* keys = ws.events.data();
  const std::size_t num_events = ws.events.size();
  std::size_t i = 0;
  while (i < num_events) {
    const SlotIndex slot = event_key::slot(keys[i]);
    const std::size_t group_end =
        engine_kernels::slot_group_end(keys, i, num_events, slot);
    const std::size_t senders_end =
        i + engine_kernels::count_keys_below(
                keys + i, group_end - i, event_key::pack(slot, 0, true, 0));

    const auto sender_count = static_cast<std::uint32_t>(senders_end - i);
    Payload single_payload = Payload::kNoise;
    for (std::size_t j = i; j < senders_end; ++j) {
      const NodeId u = event_key::node(keys[j]);
      // A clock-skewed transmitter straddles slot boundaries: its signal is
      // energy without a decodable payload (folded into ws.payloads).
      single_payload = static_cast<Payload>(ws.payloads[u]);
      ++result.obs[u].sends;
    }

    std::uint32_t listener_count = 0;
    bool any_jam_seen = false;
    for (std::size_t j = senders_end; j < group_end; ++j) {
      const NodeId u = event_key::node(keys[j]);
      NodeObservation& o = result.obs[u];
      ++o.listens;
      ++listener_count;
      const bool jammed = schedules[partition[u]].is_jammed(slot);
      any_jam_seen = any_jam_seen || jammed;
      Reception heard = resolve(sender_count, single_payload, jammed);
      if (!cca.perfect()) heard = cca.apply(heard, rng);
      if (faults != nullptr) {
        // A skewed listener samples the channel off the slot grid: it can
        // still detect energy but cannot decode a payload.
        if (faults->node_skewed(u) && (heard == Reception::kMessage ||
                                       heard == Reception::kNack)) {
          heard = Reception::kNoise;
        }
        heard = faults->degrade(heard, slot, rng);
      }
      switch (heard) {
        case Reception::kClear:
          ++o.clear;
          break;
        case Reception::kMessage:
          ++o.messages;
          if (o.first_message_slot == kNoSlot) {
            o.first_message_slot = slot;
            o.listens_until_first_message = o.listens;
          }
          break;
        case Reception::kNack:
          ++o.nacks;
          break;
        case Reception::kNoise:
          ++o.noise;
          break;
      }
    }
    if (trace != nullptr) {
      trace->record(slot, sender_count, listener_count, any_jam_seen);
    }
    i = group_end;
  }

  // Nodes that never heard m listened for the whole phase.
  for (auto& o : result.obs) {
    if (o.first_message_slot == kNoSlot) o.listens_until_first_message = o.listens;
  }
  return result;
}

RepetitionResult run_repetition(SlotCount num_slots,
                                std::span<const NodeAction> actions,
                                const JamSchedule& jam, Rng& rng,
                                Trace* trace, const CcaModel& cca,
                                FaultPlan* faults) {
  thread_local std::vector<std::uint32_t> partition;
  partition.assign(actions.size(), 0);
  return run_repetition_luniform(num_slots, actions, partition,
                                 std::span<const JamSchedule>(&jam, 1), rng,
                                 trace, cca, faults);
}

}  // namespace rcb
