// Composable fault injection for the channel engines and protocols.
//
// The paper's model assumes ideal devices: nodes never crash, clocks never
// drift, and receptions are classified perfectly (modulo the optional CCA
// error model).  A FaultPlan layers deterministic, RNG-stream-driven device
// and environment faults on top of that ideal channel so that every
// protocol and adversary in the library can be exercised under degraded
// conditions without modification:
//
//   * crash/restart churn   — nodes go dark for stretches of (global) slots
//     following per-node geometric up/down timelines; a down node neither
//     sends nor listens.  Eligibility can be restricted to a deterministic
//     fraction of the fleet (`crash_fraction`).
//   * message loss          — a decodable reception (m or a nack) fades
//     below the detection threshold and is heard as *clear*.
//   * message corruption    — a decodable reception is garbled and heard as
//     *noise* (energy detected, payload lost).
//   * clock skew            — a node may desynchronise for a whole phase:
//     its transmissions straddle slot boundaries (heard as noise) and it
//     cannot decode messages (m/nack receptions degrade to noise).
//   * battery brownout      — from a given global slot on, a deterministic
//     fraction of nodes has its battery capacity scaled down (protocols
//     with a `node_energy_budget` apply the factor; see broadcast_engine).
//   * time-varying CCA degradation — extra false-busy / missed-detection
//     probability that ramps in linearly over `cca_ramp_slots` global slots
//     (e.g. a rising interference floor), applied after the protocol's own
//     CcaModel.
//
// Determinism contract: all *node-level* fault decisions (crash timelines,
// brownout eligibility, per-phase skew) are pure functions of the fault
// seed and are identical across engines — the batch and slotwise engines
// see the same nodes down in the same slots.  *Per-reception* decisions
// (loss, corruption, CCA degradation) draw from the engine's main Rng, so
// they are deterministic per run but consume the stream in engine-specific
// order.  A FaultPlan is stateful (it tracks the global slot origin across
// phases); use one plan per execution, and never share a plan across
// threads.
#pragma once

#include <cstdint>
#include <vector>

#include "rcb/common/types.hpp"
#include "rcb/rng/rng.hpp"

namespace rcb {

/// Tunable fault model; all rates default to 0 (no faults).
struct FaultConfig {
  std::uint64_t seed = 0;    ///< master seed for the fault RNG streams

  // -- crash/restart churn ------------------------------------------------
  double crash_rate = 0.0;    ///< per-slot P(an up, eligible node crashes)
  double restart_rate = 0.0;  ///< per-slot P(a crashed node restarts); 0 = never
  double crash_fraction = 1.0;  ///< deterministic fraction of nodes eligible

  // -- channel faults -------------------------------------------------------
  double loss_rate = 0.0;        ///< P(m/nack reception fades to clear)
  double corruption_rate = 0.0;  ///< P(m/nack reception garbles to noise)
  double clock_skew_rate = 0.0;  ///< per-phase P(a node is desynchronised)

  // -- battery brownout -----------------------------------------------------
  SlotIndex brownout_slot = kNoSlot;  ///< global slot the brownout begins
  double brownout_fraction = 0.0;     ///< fraction of nodes affected
  double brownout_factor = 0.5;       ///< battery capacity multiplier

  // -- time-varying CCA degradation ----------------------------------------
  double cca_false_busy = 0.0;        ///< added P(clear read as noise) at full ramp
  double cca_missed_detection = 0.0;  ///< added P(noise read as clear) at full ramp
  SlotCount cca_ramp_slots = 0;       ///< slots to reach full degradation (0 = immediate)

  /// True if any fault channel is switched on.
  bool any_active() const;
};

/// Deterministic fault injector threaded through the channel engines.
class FaultPlan {
 public:
  /// Inactive plan: every query is a no-op.
  FaultPlan() = default;
  explicit FaultPlan(const FaultConfig& config);

  bool active() const { return active_; }
  const FaultConfig& config() const { return config_; }

  // -- phase lifecycle (called by the engines) ------------------------------

  /// Registers the start of a phase of `num_slots` slots involving
  /// `node_count` nodes.  Advances the global slot origin past the previous
  /// phase and draws this phase's per-node clock-skew flags.
  void begin_phase(std::uint32_t node_count, SlotCount num_slots);

  /// Global slot index at which the current phase begins.
  SlotIndex phase_origin() const { return origin_; }

  // -- node-level queries ---------------------------------------------------

  /// True if node u is crashed during `slot_in_phase` of the current phase.
  bool node_down(NodeId u, SlotIndex slot_in_phase) {
    return node_down_at(u, origin_ + slot_in_phase);
  }

  /// True if node u is crashed at an absolute global slot.  Timelines are
  /// engine-independent: identical for every engine sharing the fault seed.
  bool node_down_at(NodeId u, SlotIndex global_slot);

  /// True if node u is desynchronised for the current phase.
  bool node_skewed(NodeId u) const {
    return u < skewed_.size() && skewed_[u];
  }

  /// Battery capacity multiplier for node u at a global slot: 1.0 before
  /// the brownout (or for unaffected nodes), `brownout_factor` after.
  double battery_factor(NodeId u, SlotIndex global_slot) const;

  // -- channel-level queries ------------------------------------------------

  /// Applies loss/corruption/CCA-degradation to an ideal reception in
  /// `slot_in_phase` of the current phase.  Draws from `rng` (the engine's
  /// main stream).  Skew is NOT applied here — engines handle the sender
  /// and listener sides of skew separately.
  Reception degrade(Reception ideal, SlotIndex slot_in_phase, Rng& rng);

 private:
  /// Per-node crash/restart timeline: `toggles[k]` is the global slot at
  /// which the node's state flips (up at slot 0; even index = goes down).
  struct Timeline {
    std::vector<SlotIndex> toggles;
    Rng rng{0};
    bool eligible = false;
    bool exhausted = false;  ///< no further toggles will ever occur
    bool initialized = false;
  };

  void init_timeline(NodeId u);
  void extend_timeline(Timeline& tl, SlotIndex global_slot);
  double cca_ramp(SlotIndex global_slot) const;

  FaultConfig config_;
  bool active_ = false;
  SlotIndex origin_ = 0;
  SlotCount phase_slots_ = 0;
  std::uint64_t phase_index_ = 0;
  std::vector<bool> skewed_;
  std::vector<Timeline> timelines_;
};

}  // namespace rcb
