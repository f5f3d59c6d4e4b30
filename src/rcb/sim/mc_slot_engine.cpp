#include "rcb/sim/mc_slot_engine.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "rcb/common/contracts.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/rng/sampling.hpp"
#include "rcb/runtime/cancel.hpp"
#include "rcb/sim/engine_kernels.hpp"
#include "rcb/sim/engine_workspace.hpp"

namespace rcb {
namespace {

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

// Materializes the history of an accepted jam_run_masks: `sink` covers the
// answered prefix of the eventless run starting at `first_slot`, with each
// segment's mask clipped to the valid-channel set here.  A bounded buffer
// can only ever expose its trailing `window` records, so a run at least
// that long replaces the buffer with just its own tail — this is what makes
// long eventless runs O(segments) instead of O(slots) for the O(1)-lookback
// adversaries the fast path exists for.
void append_run_history(ArenaVector<McSlotActivity>& history,
                        SlotIndex first_slot, const McJamRunSink& sink,
                        std::uint64_t valid, SlotCount window, bool bounded) {
  if (window == 0) return;
  const SlotCount len = sink.total();
  if (bounded && len >= window) {
    history.clear();
    const SlotIndex start = first_slot + len - window;
    SlotIndex cur = first_slot;
    for (const McJamRunSink::Segment& seg : sink.segments()) {
      const SlotIndex seg_end = cur + seg.length;
      if (seg_end > start) {
        const SlotIndex lo = cur > start ? cur : start;
        engine_kernels::fill_mc_history_records(
            history.append_uninitialized(seg_end - lo), lo, seg_end - lo,
            seg.decision & valid);
      }
      cur = seg_end;
    }
    return;
  }
  SlotIndex cur = first_slot;
  for (const McJamRunSink::Segment& seg : sink.segments()) {
    engine_kernels::fill_mc_history_records(
        history.append_uninitialized(seg.length), cur, seg.length,
        seg.decision & valid);
    cur += seg.length;
  }
  if (bounded && history.size() >= 2 * static_cast<std::size_t>(window)) {
    history.erase_prefix(history.size() - static_cast<std::size_t>(window));
  }
}

}  // namespace

McSlotwiseResult run_repetition_slotwise_mc(
    SlotCount num_slots, std::span<const NodeAction> actions,
    const ChannelPlan& channels, McSlotAdversary& adversary, Rng& rng,
    const CcaModel& cca, FaultPlan* faults) {
  poll_cancellation(num_slots);
  RCB_REQUIRE(channels.num_channels >= 1 &&
              channels.num_channels <= kMaxChannels);
  RCB_REQUIRE(channels.hops.empty() || channels.hops.size() >= actions.size());
  RCB_REQUIRE(actions.size() <= event_key::kMaxNodes);
  RCB_REQUIRE(num_slots <= event_key::kMaxSlots);
  if (faults != nullptr && !faults->active()) faults = nullptr;
  if (faults != nullptr) {
    faults->begin_phase(static_cast<std::uint32_t>(actions.size()), num_slots);
  }
  const std::uint64_t valid = channels.valid_mask();

  McSlotwiseResult result;
  result.rep.obs.resize(actions.size());

  // Presample every node's activity into packed event keys.  Node action
  // draws are independent of jamming, so committing them up front leaves
  // the adversary's adaptivity intact: it still decides each slot knowing
  // everything it could have physically observed up to that slot.  The
  // channel plan only stamps channel bits into the keys; it never touches
  // the Rng stream.
  EngineWorkspace& ws = engine_workspace();
  const EngineWorkspace::PhaseScope scope(ws);
  engine_kernels::presample_phase(num_slots, actions, rng, ws, faults,
                                  &channels);
  result.event_count = ws.events.size();

  // History buffer.  When the adversary declares a finite lookback window
  // we keep only a bounded suffix, compacting amortized-O(1); otherwise
  // every elapsed slot is materialized (empty slots as zero-sender
  // records).  A window covering the whole phase is equivalent to
  // unbounded (and never needs compaction, so 2 * window cannot overflow).
  const SlotCount window = adversary.history_window();
  const bool bounded =
      window != McSlotAdversary::kUnboundedHistory && window < num_slots;
  ArenaVector<McSlotActivity>& history = ws.mc_history;
  if (!bounded && window > 0) history.reserve(num_slots);

  const auto history_view = [&]() -> std::span<const McSlotActivity> {
    if (!bounded) return history.view();
    const std::size_t keep =
        std::min<std::size_t>(history.size(), static_cast<std::size_t>(window));
    return {history.data() + (history.size() - keep), keep};
  };

  // Budget accounting: one unit per jammed (slot, channel) pair.  Most
  // masks are 0, so the popcount is only paid for the others.
  const auto charge = [&](std::uint64_t mask, SlotCount len) {
    if (mask == 0) return;
    result.jam_charges += static_cast<Cost>(popcount64(mask)) * len;
    result.jammed_slots += len;
  };

  const std::uint64_t* keys = ws.events.data();
  const std::size_t num_events = ws.events.size();
  McJamRunSink sink;

  std::size_t i = 0;  // cursor into the sorted keys
  SlotIndex slot = 0;
  while (slot < num_slots) {
    const SlotIndex next_event_slot =
        i < num_events ? event_key::slot(keys[i]) : num_slots;
    if (slot < next_event_slot) {
      // Eventless run [slot, next_event_slot): every record is a zero-sender
      // record, so the adversary may answer it in bulk.  An answer covers a
      // non-empty prefix of the run; the rest is offered again next round.
      sink.reset();
      if (adversary.jam_run_masks(slot, next_event_slot, channels.num_channels,
                                  history_view(), sink)) {
        RCB_REQUIRE(sink.total() >= 1 &&
                    sink.total() <= next_event_slot - slot);
        for (const McJamRunSink::Segment& seg : sink.segments()) {
          charge(seg.decision & valid, seg.length);
        }
        append_run_history(history, slot, sink, valid, window, bounded);
        slot += sink.total();
        continue;
      }
      // Declined: per-slot consultation, bit-identical to the every-slot
      // loop this fast path replaced.
      for (SlotIndex s = slot; s < next_event_slot; ++s) {
        const std::uint64_t mask =
            adversary.jam_mask(s, channels.num_channels, history_view()) &
            valid;
        charge(mask, 1);
        if (window > 0) {
          engine_kernels::push_history_compacted(
              history, McSlotActivity{s, 0, mask, 0}, window, bounded);
        }
      }
      slot = next_event_slot;
      continue;
    }

    // Event slot: consult the adversary, then settle the per-channel groups.
    const std::uint64_t mask =
        adversary.jam_mask(slot, channels.num_channels, history_view()) & valid;
    charge(mask, 1);

    std::uint64_t sender_channels = 0;
    std::uint32_t senders_total = 0;
    const std::size_t slot_end =
        engine_kernels::slot_group_end(keys, i, num_events, slot);
    // Per-channel groups: keys sort by (slot, channel, is_listen, node),
    // so each channel's senders and listeners are contiguous.
    while (i < slot_end) {
      const std::uint32_t ch = event_key::channel(keys[i]);
      // The top used channel's group ends with the slot group: channel_of
      // is always below num_channels, and num_channels <= kMaxChannels
      // keeps pack(slot, ch + 1, ...) inside the 6-bit channel field.  At
      // C = 1 the only group is the slot group.
      const std::size_t ch_end =
          ch + 1 < channels.num_channels
              ? i + engine_kernels::count_keys_below(
                        keys + i, slot_end - i,
                        event_key::pack(slot, ch + 1, false, 0))
              : slot_end;
      const std::size_t senders_end =
          i + engine_kernels::count_keys_below(
                  keys + i, ch_end - i, event_key::pack(slot, ch, true, 0));

      const auto sender_count = static_cast<std::uint32_t>(senders_end - i);
      Payload single_payload = Payload::kNoise;
      for (std::size_t j = i; j < senders_end; ++j) {
        const NodeId u = event_key::node(keys[j]);
        single_payload = static_cast<Payload>(ws.payloads[u]);
        ++result.rep.obs[u].sends;
      }
      if (sender_count > 0) {
        sender_channels |= std::uint64_t{1} << ch;
        senders_total += sender_count;
      }
      const bool jammed = ((mask >> ch) & 1) != 0;
      for (std::size_t j = senders_end; j < ch_end; ++j) {
        const NodeId u = event_key::node(keys[j]);
        NodeObservation& o = result.rep.obs[u];
        ++o.listens;
        Reception heard =
            engine_kernels::resolve(sender_count, single_payload, jammed);
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
      i = ch_end;
    }

    if (window > 0) {
      engine_kernels::push_history_compacted(
          history,
          McSlotActivity{slot, sender_channels, mask, senders_total}, window,
          bounded);
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

McSlotwiseResult run_repetition_slotwise_mc_dense(
    SlotCount num_slots, std::span<const NodeAction> actions,
    const ChannelPlan& channels, McSlotAdversary& adversary, Rng& rng,
    const CcaModel& cca, FaultPlan* faults) {
  poll_cancellation(num_slots);
  RCB_REQUIRE(channels.num_channels >= 1 &&
              channels.num_channels <= kMaxChannels);
  RCB_REQUIRE(channels.hops.empty() || channels.hops.size() >= actions.size());
  if (faults != nullptr && !faults->active()) faults = nullptr;
  if (faults != nullptr) {
    faults->begin_phase(static_cast<std::uint32_t>(actions.size()), num_slots);
  }
  const std::uint64_t valid = channels.valid_mask();

  McSlotwiseResult result;
  result.rep.obs.resize(actions.size());

  std::vector<McSlotActivity> history;
  history.reserve(num_slots);
  std::vector<NodeId> listeners;
  listeners.reserve(actions.size());
  std::array<std::uint32_t, kMaxChannels> count{};
  std::array<Payload, kMaxChannels> payload{};

  for (SlotIndex slot = 0; slot < num_slots; ++slot) {
    const std::uint64_t mask =
        adversary.jam_mask(slot, channels.num_channels, history) & valid;
    result.jam_charges += popcount64(mask);
    if (mask != 0) ++result.jammed_slots;

    std::uint64_t sender_channels = 0;
    std::uint32_t senders_total = 0;
    listeners.clear();
    // Dense reference: two Bernoullis per node per slot, in node order.
    for (NodeId u = 0; u < actions.size(); ++u) {
      const NodeAction& a = actions[u];
      NodeObservation& o = result.rep.obs[u];
      if (faults != nullptr && faults->node_down(u, slot)) continue;
      if (rng.bernoulli(a.send_prob)) {
        ++o.sends;
        ++result.event_count;
        const std::uint32_t ch = channels.channel_of(u, slot);
        if ((sender_channels >> ch & 1) == 0) count[ch] = 0;
        sender_channels |= std::uint64_t{1} << ch;
        ++count[ch];
        ++senders_total;
        payload[ch] = a.payload;
        if (faults != nullptr && faults->node_skewed(u)) {
          payload[ch] = Payload::kNoise;
        }
      } else if (rng.bernoulli(a.listen_prob)) {
        ++o.listens;
        ++result.event_count;
        listeners.push_back(u);
      }
    }

    for (NodeId u : listeners) {
      NodeObservation& o = result.rep.obs[u];
      const std::uint32_t ch = channels.channel_of(u, slot);
      const std::uint32_t sender_count =
          (sender_channels >> ch & 1) != 0 ? count[ch] : 0;
      Reception heard = engine_kernels::resolve(sender_count, payload[ch],
                                                ((mask >> ch) & 1) != 0);
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

    history.push_back(
        McSlotActivity{slot, sender_channels, mask, senders_total});
  }

  for (auto& o : result.rep.obs) {
    if (o.first_message_slot == kNoSlot) {
      o.listens_until_first_message = o.listens;
    }
  }
  return result;
}

}  // namespace rcb
