#include "rcb/sim/repetition_engine.hpp"

#include <cstring>

#include "rcb/common/contracts.hpp"
#include "rcb/rng/sampling.hpp"
#include "rcb/runtime/cancel.hpp"
#include "rcb/sim/engine_kernels.hpp"
#include "rcb/sim/engine_workspace.hpp"

namespace rcb {
namespace {

// One TraceEvent per slot with events, from the sorted keys.
void record_trace(Trace& trace, const std::uint64_t* keys,
                  std::size_t num_events,
                  std::span<const std::uint32_t> partition,
                  std::span<const JamSchedule> schedules) {
  std::size_t i = 0;
  while (i < num_events) {
    const SlotIndex slot = event_key::slot(keys[i]);
    std::uint32_t senders = 0;
    std::uint32_t listeners = 0;
    bool jammed = false;
    for (; i < num_events && event_key::slot(keys[i]) == slot; ++i) {
      if (!event_key::is_listen(keys[i])) {
        ++senders;
        continue;
      }
      ++listeners;
      jammed = jammed ||
               schedules[partition[event_key::node(keys[i])]].is_jammed(slot);
    }
    trace.record(slot, senders, listeners, jammed);
  }
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

  const std::size_t n = actions.size();
  RepetitionResult result;
  result.obs.resize(n);
  NodeObservation* obs = result.obs.data();

  EngineWorkspace& ws = engine_workspace();
  const EngineWorkspace::PhaseScope scope(ws);
  engine_kernels::presample_phase(num_slots, actions, rng, ws, faults);

  // heard_as[4 * u + r]: node u's listens that heard Reception r.  Indexing
  // by the reception keeps the per-listen accounting free of branches.
  auto* heard_as = ws.arena.allocate_array<std::uint64_t>(4 * n);
  std::memset(heard_as, 0, 4 * n * sizeof(std::uint64_t));

  // One pass over the sorted keys.  A slot's senders sort before its
  // listeners, so a listener's sender count is the running count of send
  // keys if the last send key was in its slot, and 0 otherwise.
  const std::uint64_t* keys = ws.events.data();
  const std::size_t num_events = ws.events.size();
  SlotIndex send_slot = kNoSlot;
  std::uint32_t send_count = 0;
  Payload single_payload = Payload::kNoise;
  for (std::size_t i = 0; i < num_events; ++i) {
    const std::uint64_t key = keys[i];
    const SlotIndex slot = event_key::slot(key);
    const NodeId u = event_key::node(key);
    if (!event_key::is_listen(key)) {
      send_count = slot == send_slot ? send_count + 1 : 1;
      send_slot = slot;
      // A clock-skewed transmitter straddles slot boundaries: its signal is
      // energy without a decodable payload (folded into ws.payloads).
      single_payload = static_cast<Payload>(ws.payloads[u]);
      ++obs[u].sends;
      continue;
    }
    const bool jammed = schedules[partition[u]].is_jammed(slot);
    Reception heard =
        engine_kernels::resolve(slot == send_slot ? send_count : 0,
                                single_payload, jammed);
    if (!cca.perfect()) heard = cca.apply(heard, rng);
    if (faults != nullptr) {
      // A skewed listener samples the channel off the slot grid: it can
      // still detect energy but cannot decode a payload.
      if (faults->node_skewed(u) &&
          (heard == Reception::kMessage || heard == Reception::kNack)) {
        heard = Reception::kNoise;
      }
      heard = faults->degrade(heard, slot, rng);
    }
    std::uint64_t* row = heard_as + 4 * static_cast<std::size_t>(u);
    const auto ri = static_cast<std::size_t>(heard);
    if (heard == Reception::kMessage && row[ri] == 0) {
      obs[u].first_message_slot = slot;
      obs[u].listens_until_first_message =
          row[0] + row[1] + row[2] + row[3] + 1;
    }
    ++row[ri];
  }
  if (trace != nullptr) {
    record_trace(*trace, keys, num_events, partition, schedules);
  }

  for (std::size_t u = 0; u < n; ++u) {
    NodeObservation& o = obs[u];
    const std::uint64_t* row = heard_as + 4 * u;
    o.clear = row[static_cast<std::size_t>(Reception::kClear)];
    o.messages = row[static_cast<std::size_t>(Reception::kMessage)];
    o.nacks = row[static_cast<std::size_t>(Reception::kNack)];
    o.noise = row[static_cast<std::size_t>(Reception::kNoise)];
    o.listens = o.heard_total();
    // Nodes that never heard m listened for the whole phase.
    if (o.first_message_slot == kNoSlot) {
      o.listens_until_first_message = o.listens;
    }
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
