#include "rcb/protocols/mc_broadcast.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "rcb/common/contracts.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/sim/channel_plan.hpp"
#include "rcb/sim/mc_slot_engine.hpp"

namespace rcb {
namespace {

// Per-phase epoch-based random hopping: every node draws a fresh cyclic
// hop sequence from the trial RNG.  With C == 1 no draws are made — the
// C=1 execution must not consume RNG the single-channel structure wouldn't.
void draw_hops(std::vector<ChannelHop>& hops, std::uint32_t num_channels,
               Rng& rng) {
  if (num_channels <= 1) return;
  for (ChannelHop& h : hops) {
    h.start = static_cast<std::uint32_t>(rng.uniform_u64(num_channels));
    h.stride = static_cast<std::uint32_t>(rng.uniform_u64(num_channels));
  }
}

// Hop redraw cadence within a phase.  Affine hop pairs with equal strides
// are parallel sequences: if the starts differ they never share a channel
// for the entire block, so one draw per phase leaves a Θ(1/C) chance that
// a receiver cannot meet the sender at all, no matter how long the phase
// is.  Redrawing the hop family a few times per phase makes the no-meet
// probability decay geometrically in the number of blocks.
constexpr SlotCount kHopBlocksPerPhase = 8;

// Runs one protocol phase as a sequence of hop blocks: each block draws a
// fresh hop family from the trial RNG and simulates its slice of the phase.
// Observations accumulate across blocks (first_message_slot is rebased to
// the phase-local slot index).  With C == 1 the phase is a single block and
// draw_hops is a no-op, so the degenerate case runs exactly one engine call.
McSlotwiseResult run_phase_hopping(SlotCount num_slots,
                                   std::span<const NodeAction> actions,
                                   std::vector<ChannelHop>& hops,
                                   const ChannelPlan& plan,
                                   McSlotAdversary& adversary, Rng& rng,
                                   FaultPlan* faults) {
  const SlotCount blocks =
      plan.num_channels <= 1
          ? 1
          : std::min<SlotCount>(kHopBlocksPerPhase, num_slots);
  McSlotwiseResult acc;
  acc.rep.obs.resize(actions.size());
  SlotCount done = 0;
  for (SlotCount b = 0; b < blocks; ++b) {
    const SlotCount len = num_slots / blocks + (b < num_slots % blocks ? 1 : 0);
    if (len == 0) continue;
    draw_hops(hops, plan.num_channels, rng);
    const McSlotwiseResult r = run_repetition_slotwise_mc(
        len, actions, plan, adversary, rng, CcaModel{}, faults);
    acc.jam_charges += r.jam_charges;
    acc.jammed_slots += r.jammed_slots;
    acc.event_count += r.event_count;
    for (std::size_t u = 0; u < actions.size(); ++u) {
      NodeObservation& a = acc.rep.obs[u];
      const NodeObservation& o = r.rep.obs[u];
      if (a.first_message_slot == kNoSlot && o.first_message_slot != kNoSlot) {
        a.first_message_slot = done + o.first_message_slot;
        a.listens_until_first_message =
            a.listens + o.listens_until_first_message;
      }
      a.sends += o.sends;
      a.listens += o.listens;
      a.clear += o.clear;
      a.messages += o.messages;
      a.nacks += o.nacks;
      a.noise += o.noise;
    }
    done += len;
  }
  for (NodeObservation& o : acc.rep.obs) {
    if (o.first_message_slot == kNoSlot) {
      o.listens_until_first_message = o.listens;
    }
  }
  return acc;
}

}  // namespace

std::uint32_t mc_broadcast_max_epoch(std::uint32_t num_channels) {
  static_assert(std::has_single_bit(kHopBlocksPerPhase));
  return num_channels <= 1 ? event_key::kMaxPhaseEpoch
                           : event_key::kMaxPhaseEpoch +
                                 std::countr_zero(kHopBlocksPerPhase);
}

BroadcastNResult run_mc_broadcast(std::uint32_t n, std::uint32_t num_channels,
                                  const OneToOneParams& params,
                                  McSlotAdversary& adversary, Rng& rng,
                                  FaultPlan* faults) {
  RCB_REQUIRE(n >= 1);
  RCB_REQUIRE(num_channels >= 1 && num_channels <= kMaxChannels);
  if (faults != nullptr && !faults->active()) faults = nullptr;

  BroadcastNResult result;
  result.n = n;
  result.nodes.resize(n);
  result.nodes[0].informed = true;
  result.nodes[0].informed_epoch = params.first_epoch();
  result.nodes[0].final_status = BroadcastStatus::kInformed;

  bool sender_running = true;
  std::vector<bool> receiver_running(n, true);
  receiver_running[0] = false;  // the sender is not a receiver
  std::uint32_t active_receivers = n - 1;
  std::uint64_t informed = 1;

  std::vector<NodeAction> actions(n);
  std::vector<ChannelHop> hops(n);
  ChannelPlan plan;
  plan.num_channels = num_channels;
  plan.hops = {hops.data(), hops.size()};

  std::uint32_t epoch = params.first_epoch();
  for (; epoch <= params.max_epoch && (sender_running || active_receivers > 0);
       ++epoch) {
    result.final_epoch = epoch;
    const SlotCount num_slots = pow2(epoch);
    const double p = params.slot_probability(epoch);
    const double listen_p =
        std::min(1.0, p * static_cast<double>(num_channels));
    const double theta = params.halt_threshold(epoch);

    // ---- SEND phase ------------------------------------------------------
    {
      for (NodeId u = 0; u < n; ++u) actions[u] = NodeAction{};
      if (sender_running) actions[0] = NodeAction{p, Payload::kMessage, 0.0};
      for (NodeId u = 1; u < n; ++u) {
        if (receiver_running[u]) {
          actions[u] = NodeAction{0.0, Payload::kNoise, listen_p};
        }
      }
      const McSlotwiseResult r = run_phase_hopping(
          num_slots, actions, hops, plan, adversary, rng, faults);
      result.adversary_cost += r.jam_charges;
      result.latency += num_slots;
      result.nodes[0].cost += r.rep.obs[0].sends;

      for (NodeId u = 1; u < n; ++u) {
        if (!receiver_running[u]) continue;
        const NodeObservation& obs = r.rep.obs[u];
        if (obs.messages > 0) {
          result.nodes[u].cost += obs.listens_until_first_message;
          result.nodes[u].informed = true;
          result.nodes[u].informed_epoch = epoch;
          result.nodes[u].terminated_epoch = epoch;
          result.nodes[u].final_status = BroadcastStatus::kTerminated;
          receiver_running[u] = false;
          --active_receivers;
          if (++informed == n) result.informed_latency = result.latency;
        } else {
          result.nodes[u].cost += obs.listens;
          if (static_cast<double>(obs.noise) < theta) {
            // Quiet channel, no m: the sender must have halted.
            result.nodes[u].terminated_epoch = epoch;
            result.nodes[u].final_status = BroadcastStatus::kTerminated;
            receiver_running[u] = false;
            --active_receivers;
          }
        }
      }
    }

    if (!sender_running && active_receivers == 0) break;

    // ---- NACK phase ------------------------------------------------------
    {
      for (NodeId u = 0; u < n; ++u) actions[u] = NodeAction{};
      if (sender_running) actions[0] = NodeAction{0.0, Payload::kNoise, listen_p};
      for (NodeId u = 1; u < n; ++u) {
        if (receiver_running[u]) actions[u] = NodeAction{p, Payload::kNack, 0.0};
      }
      const McSlotwiseResult r = run_phase_hopping(
          num_slots, actions, hops, plan, adversary, rng, faults);
      result.adversary_cost += r.jam_charges;
      result.latency += num_slots;

      for (NodeId u = 1; u < n; ++u) {
        if (receiver_running[u]) result.nodes[u].cost += r.rep.obs[u].sends;
      }
      if (sender_running) {
        const NodeObservation& obs = r.rep.obs[0];
        result.nodes[0].cost += obs.listens;
        // Colliding nacks arrive as noise — equally a reason to continue.
        if (obs.nacks == 0 && static_cast<double>(obs.noise) < theta) {
          result.nodes[0].terminated_epoch = epoch;
          result.nodes[0].final_status = BroadcastStatus::kTerminated;
          sender_running = false;
        }
      }
    }
  }

  result.hit_epoch_cap = sender_running || active_receivers > 0;
  for (NodeId u = 0; u < n; ++u) {
    if (result.nodes[u].informed) ++result.informed_count;
    result.max_cost = std::max(result.max_cost, result.nodes[u].cost);
  }
  double total = 0.0;
  for (const auto& node : result.nodes) total += static_cast<double>(node.cost);
  result.mean_cost = total / static_cast<double>(n);
  result.all_informed = (result.informed_count == n);
  result.all_terminated = (!sender_running && active_receivers == 0);
  return result;
}

}  // namespace rcb
