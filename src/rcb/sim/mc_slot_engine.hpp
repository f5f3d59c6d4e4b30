// The slotwise engine: a reactive adversary consulted before every slot,
// over C parallel channels with per-(slot, channel) winner resolution, and
// an adversary that splits its budget across channels
// (adversary/slot_adversary.hpp, McSlotAdversary).  At C = 1 this is the
// paper's single-channel reactive model; there is no other slotwise engine.
//
// Model.  Each slot, every node occupies exactly one channel, given by its
// deterministic hop sequence (sim/channel_plan.hpp); sends and listens land
// on that channel only.  Reception on channel c of a slot follows the
// single-channel rules applied to c alone: jammed (bit c of the adversary's
// mask) => noise; two or more senders => collision noise; exactly one
// sender => its payload; none => clear.  The adversary is consulted once
// per slot, in order, and returns a 64-bit jam mask; each jammed
// (slot, channel) pair is charged one budget unit, so concentrating on one
// channel costs 1 per slot while flooding all C channels costs C — the
// Chen–Zheng budget-split accounting.
//
// Node behaviour is i.i.d. per slot and independent of jamming (jamming
// affects what listeners *hear*, never whether nodes act).  The event
// engine therefore presamples each node's send/listen slots with the same
// geometric skip sampling the batch engine uses, sweeps the slots in
// order, and touches nodes only on their event slots.  Over maximal
// eventless runs it offers the adversary the bulk
// McSlotAdversary::jam_run_masks consultation (RLE mask segments);
// declining falls back to per-slot jam_mask calls, bit-identically.  Cost:
// O(num_slots + events) with per-slot adversaries, O(events + runs) with
// bulk-answering ones, instead of the dense O(num_slots * num_nodes).
//
// run_repetition_slotwise_mc_dense keeps the per-node-per-slot loop as a
// semantic reference: tests and the fuzz crosscheck oracle pin the event
// path against it, and bench M2 measures the gap.  The two paths implement
// identical per-slot marginals but consume the Rng stream in different
// orders; on randomness-free action profiles (all probabilities 0 or 1,
// perfect CCA, no faults) they are exactly equal.  Their C = 1 output is
// pinned by digest literals in tests/mc_engine_test.cpp.
#pragma once

#include <span>

#include "rcb/adversary/slot_adversary.hpp"
#include "rcb/common/types.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/channel_plan.hpp"
#include "rcb/sim/repetition_engine.hpp"

namespace rcb {

/// Result of a slotwise phase: node observations plus the adversary's spend.
struct McSlotwiseResult {
  RepetitionResult rep;
  /// Total jammed (slot, channel) pairs — the adversary's budget spend for
  /// the phase under the per-channel accounting.
  Cost jam_charges = 0;
  /// Slots with at least one jammed channel.
  SlotCount jammed_slots = 0;
  /// Send + listen events the sweep actually touched (bench observability).
  std::uint64_t event_count = 0;
};

/// Runs one phase slot by slot, event-driven (the production path).
/// `cca` and `faults` mirror the batch engine's parameters.
McSlotwiseResult run_repetition_slotwise_mc(
    SlotCount num_slots, std::span<const NodeAction> actions,
    const ChannelPlan& channels, McSlotAdversary& adversary, Rng& rng,
    const CcaModel& cca = CcaModel{}, FaultPlan* faults = nullptr);

/// Reference implementation: dense O(num_slots * num_nodes) loop drawing
/// two Bernoullis per node per slot, the semantic oracle the crosscheck
/// tests pin the event path against.
McSlotwiseResult run_repetition_slotwise_mc_dense(
    SlotCount num_slots, std::span<const NodeAction> actions,
    const ChannelPlan& channels, McSlotAdversary& adversary, Rng& rng,
    const CcaModel& cca = CcaModel{}, FaultPlan* faults = nullptr);

}  // namespace rcb
