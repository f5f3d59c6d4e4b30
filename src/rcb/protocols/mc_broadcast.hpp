// Multi-channel 1-to-n broadcast with epoch-based random hopping — the
// Chen–Zheng-style extension of the paper's single-channel broadcast
// (PAPERS.md: arXiv 2001.03936, arXiv 1904.06328).
//
// The network has C channels (sim/channel_plan.hpp); the adversary splits
// its jamming budget across them per slot (McSlotAdversary).  The protocol
// is the epoch/phase structure of run_sqrt_broadcast lifted onto the
// multi-channel slotwise engine:
//
//   Epoch i has a SEND phase and a NACK phase of 2^i slots each, with
//   per-slot probability p_i and halting threshold theta_i from
//   OneToOneParams.  At the start of each phase every node draws a fresh
//   cyclic hop sequence (start, stride) uniformly from the trial RNG —
//   epoch-based random hopping, so a jammer that concentrates on one
//   channel blocks only an expected 1/C of the traffic.
//
//   SEND phase:  the sender transmits m w.p. p_i on its hop channel; an
//   uninformed receiver listens w.p. min(1, C * p_i) on its own hop
//   channel.  Independent uniform hops coincide w.p. 1/C per slot, so the
//   expected receptions per phase match the single-channel protocol while
//   the listening cost scales by C — the price Chen–Zheng show to be
//   near-optimal up to polylog factors.  A receiver that heard m halts
//   informed; one that heard a quiet channel (noise below theta_i)
//   concludes the sender has halted and halts too.
//
//   NACK phase:  roles swap — still-uninformed receivers nack w.p. p_i,
//   the sender listens w.p. min(1, C * p_i), and halts only on a quiet,
//   nack-free phase.
//
// With C=1 the hop draws are skipped entirely, so the execution is the
// sqrt protocol's structure driven by the slotwise engine's single-channel
// case.
#pragma once

#include <cstdint>

#include "rcb/adversary/slot_adversary.hpp"
#include "rcb/common/types.hpp"
#include "rcb/protocols/broadcast_n.hpp"
#include "rcb/protocols/one_to_one.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/faults.hpp"

namespace rcb {

/// Runs the multi-channel broadcast with n nodes (node 0 the sender) over
/// `num_channels` channels against a budget-splitting slot adversary.
/// `params` supplies the epoch schedule (slot_probability, halt_threshold,
/// first/max epoch) exactly as for run_sqrt_broadcast.
BroadcastNResult run_mc_broadcast(std::uint32_t n, std::uint32_t num_channels,
                                  const OneToOneParams& params,
                                  McSlotAdversary& adversary, Rng& rng,
                                  FaultPlan* faults = nullptr);

/// Last epoch run_mc_broadcast can run over `num_channels` channels.  With
/// C > 1 a phase is several hop blocks, one engine call each, so it may
/// outgrow event_key::kMaxSlots by the block count.
std::uint32_t mc_broadcast_max_epoch(std::uint32_t num_channels);

}  // namespace rcb
