#include "rcb/sim/slot_engine.hpp"

#include <algorithm>
#include <cmath>

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

void record(NodeObservation& o, Reception heard, SlotIndex slot) {
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

// Materializes the history of an accepted jam_run: `sink` covers the
// eventless run starting at `first_slot`.  Only the trailing `window`
// records of a bounded buffer can ever be observed again, so a run at least
// that long replaces the buffer with just its own tail — this is what makes
// long eventless runs O(segments) instead of O(slots) for the O(1)-lookback
// adversaries the fast path exists for.
void append_run_history(ArenaVector<SlotActivity>& history,
                        SlotIndex first_slot, const JamRunSink& sink,
                        SlotCount window, bool bounded) {
  if (window == 0) return;
  const SlotCount len = sink.total();
  if (bounded && len >= window) {
    history.clear();
    const SlotIndex start = first_slot + len - window;
    SlotIndex cur = first_slot;
    for (const JamRunSink::Segment& seg : sink.segments()) {
      const SlotIndex seg_end = cur + seg.length;
      if (seg_end > start) {
        const SlotIndex lo = cur > start ? cur : start;
        engine_kernels::fill_history_records(
            history.append_uninitialized(seg_end - lo), lo, seg_end - lo,
            seg.decision);
      }
      cur = seg_end;
    }
    return;
  }
  SlotIndex cur = first_slot;
  for (const JamRunSink::Segment& seg : sink.segments()) {
    engine_kernels::fill_history_records(
        history.append_uninitialized(seg.length), cur, seg.length,
        seg.decision);
    cur += seg.length;
  }
  if (bounded && history.size() >= 2 * static_cast<std::size_t>(window)) {
    history.erase_prefix(history.size() - static_cast<std::size_t>(window));
  }
}

}  // namespace

SlotwiseResult run_repetition_slotwise(SlotCount num_slots,
                                       std::span<const NodeAction> actions,
                                       SlotAdversary& adversary, Rng& rng,
                                       const CcaModel& cca, FaultPlan* faults) {
  poll_cancellation(num_slots);
  RCB_REQUIRE(actions.size() <= event_key::kMaxNodes);
  RCB_REQUIRE(num_slots <= event_key::kMaxSlots);
  if (faults != nullptr && !faults->active()) faults = nullptr;
  if (faults != nullptr) {
    faults->begin_phase(static_cast<std::uint32_t>(actions.size()), num_slots);
  }

  SlotwiseResult result;
  result.rep.obs.resize(actions.size());

  // Presample every node's activity into packed event keys.  Node action
  // draws are independent of jamming, so committing them up front leaves
  // the adversary's adaptivity intact: it still decides each slot knowing
  // everything it could have physically observed up to that slot.
  EngineWorkspace& ws = engine_workspace();
  const EngineWorkspace::PhaseScope scope(ws);
  engine_kernels::presample_phase(num_slots, actions, rng, ws, faults);
  result.event_count = ws.events.size();

  // History buffer.  When the adversary declares a finite lookback window
  // we keep only a bounded suffix, compacting amortized-O(1); otherwise
  // every elapsed slot is materialized (empty slots as zero-sender
  // records).
  const SlotCount window = adversary.history_window();
  // A window covering the whole phase is equivalent to unbounded (and never
  // needs compaction, so 2 * window below cannot overflow).
  const bool bounded =
      window != SlotAdversary::kUnboundedHistory && window < num_slots;
  ArenaVector<SlotActivity>& history = ws.history;
  if (!bounded) history.reserve(num_slots);

  const auto history_view = [&]() -> std::span<const SlotActivity> {
    if (!bounded) return history.view();
    const std::size_t keep =
        std::min<std::size_t>(history.size(), static_cast<std::size_t>(window));
    return {history.data() + (history.size() - keep), keep};
  };

  const std::uint64_t* keys = ws.events.data();
  const std::size_t num_events = ws.events.size();
  JamRunSink sink;

  std::size_t i = 0;  // cursor into the sorted keys
  SlotIndex slot = 0;
  while (slot < num_slots) {
    const SlotIndex next_event_slot =
        i < num_events ? event_key::slot(keys[i]) : num_slots;
    if (slot < next_event_slot) {
      // Maximal eventless run [slot, next_event_slot): every record is a
      // zero-sender record, so the adversary may answer it in bulk.
      sink.reset();
      if (adversary.jam_run(slot, next_event_slot, history_view(), sink)) {
        RCB_REQUIRE(sink.total() == next_event_slot - slot);
        for (const JamRunSink::Segment& seg : sink.segments()) {
          if (seg.decision) result.jammed_slots += seg.length;
        }
        append_run_history(history, slot, sink, window, bounded);
      } else {
        // Declined: per-slot consultation, bit-identical to the pre-SoA
        // engine's every-slot loop.
        for (SlotIndex s = slot; s < next_event_slot; ++s) {
          const bool jammed = adversary.jam(s, history_view());
          if (jammed) ++result.jammed_slots;
          if (window > 0) {
            engine_kernels::push_history_compacted(
                history, SlotActivity{s, 0, jammed}, window, bounded);
          }
        }
      }
      slot = next_event_slot;
      continue;
    }

    // Event slot: consult the adversary, then settle senders and listeners.
    const bool jammed = adversary.jam(slot, history_view());
    if (jammed) ++result.jammed_slots;

    const std::size_t group_end =
        engine_kernels::slot_group_end(keys, i, num_events, slot);
    const std::size_t senders_end =
        i + engine_kernels::count_keys_below(
                keys + i, group_end - i, event_key::pack(slot, 0, true, 0));

    const auto sender_count = static_cast<std::uint32_t>(senders_end - i);
    Payload single_payload = Payload::kNoise;
    for (std::size_t j = i; j < senders_end; ++j) {
      const NodeId u = event_key::node(keys[j]);
      single_payload = static_cast<Payload>(ws.payloads[u]);
      ++result.rep.obs[u].sends;
    }
    for (std::size_t j = senders_end; j < group_end; ++j) {
      const NodeId u = event_key::node(keys[j]);
      NodeObservation& o = result.rep.obs[u];
      ++o.listens;
      Reception heard = resolve(sender_count, single_payload, jammed);
      if (!cca.perfect()) heard = cca.apply(heard, rng);
      if (faults != nullptr) {
        if (faults->node_skewed(u) && (heard == Reception::kMessage ||
                                       heard == Reception::kNack)) {
          heard = Reception::kNoise;
        }
        heard = faults->degrade(heard, slot, rng);
      }
      record(o, heard, slot);
    }
    i = group_end;

    if (window > 0) {
      engine_kernels::push_history_compacted(
          history, SlotActivity{slot, sender_count, jammed}, window, bounded);
    }
    ++slot;
  }

  for (auto& o : result.rep.obs) {
    if (o.first_message_slot == kNoSlot) {
      o.listens_until_first_message = o.listens;
    }
  }
  return result;
}

SlotwiseResult run_repetition_slotwise_dense(
    SlotCount num_slots, std::span<const NodeAction> actions,
    SlotAdversary& adversary, Rng& rng, const CcaModel& cca,
    FaultPlan* faults) {
  poll_cancellation(num_slots);
  if (faults != nullptr && !faults->active()) faults = nullptr;
  if (faults != nullptr) {
    faults->begin_phase(static_cast<std::uint32_t>(actions.size()), num_slots);
  }

  SlotwiseResult result;
  result.rep.obs.resize(actions.size());

  std::vector<SlotActivity> history;
  history.reserve(num_slots);
  std::vector<NodeId> listeners;
  listeners.reserve(actions.size());

  for (SlotIndex slot = 0; slot < num_slots; ++slot) {
    const bool jammed = adversary.jam(slot, history);
    if (jammed) ++result.jammed_slots;

    std::uint32_t sender_count = 0;
    Payload single_payload = Payload::kNoise;
    listeners.clear();
    for (NodeId u = 0; u < actions.size(); ++u) {
      const NodeAction& a = actions[u];
      NodeObservation& o = result.rep.obs[u];
      if (faults != nullptr && faults->node_down(u, slot)) continue;
      if (rng.bernoulli(a.send_prob)) {
        ++o.sends;
        ++result.event_count;
        ++sender_count;
        single_payload = a.payload;
        if (faults != nullptr && faults->node_skewed(u)) {
          single_payload = Payload::kNoise;
        }
      } else if (rng.bernoulli(a.listen_prob)) {
        ++o.listens;
        ++result.event_count;
        listeners.push_back(u);
      }
    }

    for (NodeId u : listeners) {
      NodeObservation& o = result.rep.obs[u];
      Reception heard = resolve(sender_count, single_payload, jammed);
      if (!cca.perfect()) heard = cca.apply(heard, rng);
      if (faults != nullptr) {
        if (faults->node_skewed(u) && (heard == Reception::kMessage ||
                                       heard == Reception::kNack)) {
          heard = Reception::kNoise;
        }
        heard = faults->degrade(heard, slot, rng);
      }
      record(o, heard, slot);
    }

    history.push_back(SlotActivity{slot, sender_count, jammed});
  }

  for (auto& o : result.rep.obs) {
    if (o.first_message_slot == kNoSlot) {
      o.listens_until_first_message = o.listens;
    }
  }
  return result;
}

}  // namespace rcb
