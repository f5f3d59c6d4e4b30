// 1-to-n BROADCAST — the paper's Figure 2 protocol (Theorem 3).
//
// A single sender must deliver an authenticated message m to all n nodes;
// n and the adversary budget T are unknown.  Per-node cost is
// O(sqrt(T/n) log^4 T + log^6 n) w.h.p. and latency O(T + n log^2 n).
//
// Epoch i consists of b*i^2 repetitions of 2^i slots.  Every node carries a
// rate variable S_u (reset to 16 at each epoch start).  Per slot of a
// repetition, an informed/helper node sends m with probability S_u/2^i, an
// uninformed node sends *noise* with the same probability (so everyone can
// gauge n against 2^i), and every node listens with probability
// S_u*d*i^3/2^i.  At the repetition end, with C_u the clear slots heard and
// C'_u = max(0, C_u - S_u*d*i^3/2), the node updates
// S_u <- S_u * 2^(C'_u / (S_u*d*i^4)), then executes at most one of:
//   1. S_u > 360*2^(i/2)                        -> terminate (safety valve)
//   2. uninformed and m heard                   -> informed
//   3. informed and m heard > d*i^3/200 times   -> helper, n_u = 2^i/S_u^2
//   4. helper and S_u >= 360*sqrt(2^i/n_u)      -> terminate
//
// Parameterisation.  The paper's constants (b >= 10, d ~ 80, exponent-3
// listening, growth damping i) need epoch ~25 (33M-slot repetitions) before
// per-slot probabilities are even well formed — far beyond laptop scale.
// BroadcastNParams keeps every functional form but exposes the constants
// and polylog exponents; theory() is paper-faithful, sim() is the
// calibrated laptop-scale preset used by the benches (see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <vector>

#include "rcb/adversary/strategies.hpp"
#include "rcb/common/types.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/cca.hpp"
#include "rcb/sim/faults.hpp"

namespace rcb {

/// Node status, in the order of Figure 2's case analysis.  kDead is the
/// battery-exhaustion state of the optional node_energy_budget extension —
/// unlike kTerminated it is a failure, not a decision.  kCrashed is the
/// fault-injection state (sim/faults.hpp): the node is down and may later
/// restart with its volatile state (S_u, informedness) wiped.
enum class BroadcastStatus : std::uint8_t {
  kUninformed,
  kInformed,
  kHelper,
  kTerminated,
  kDead,
  kCrashed,
};

struct BroadcastNParams {
  std::uint32_t first_epoch = 6;
  std::uint32_t max_epoch = 30;  ///< safety cap for simulation
  double b = 10.0;               ///< repetitions multiplier
  double d = 80.0;               ///< listen-rate multiplier
  double initial_S = 16.0;
  double rep_exponent = 2.0;     ///< repetitions = ceil(b * i^rep_exponent)
  double listen_exponent = 3.0;  ///< listen factor = d * i^listen_exponent
  /// Growth damping gamma: S_u multiplies by 2^(C'_u / (S_u * LF * gamma))
  /// where LF = d * i^listen_exponent and
  /// gamma = growth_damping_const * i^growth_damping_exp.
  /// The paper has gamma = i (divisor S_u d i^4).
  double growth_damping_const = 1.0;
  double growth_damping_exp = 1.0;
  /// Clear-slot baseline beta: C'_u = max(0, C_u - beta * E[listens]).
  /// The paper uses 1/2; the sim preset lowers it so that S_u growth does
  /// not stall at the channel-equilibrium point before reaching the
  /// helper-halt threshold (see DESIGN.md §2).
  double clear_baseline = 0.5;
  /// Helper promotion: m heard more than LF / helper_threshold_div times.
  double helper_threshold_div = 200.0;
  double term1_mult = 360.0;  ///< Case 1: S_u > term1_mult * 2^(i/2)
  double term4_mult = 360.0;  ///< Case 4: S_u >= term4_mult * sqrt(2^i/n_u)
  /// Clear-channel-assessment error model for every listener (environment
  /// property rather than a protocol knob; kept here so a single params
  /// struct fully describes a run).  Bench E12 sweeps it.
  CcaModel cca;
  /// Per-node battery capacity in slot-units; 0 means unlimited.  A node
  /// whose spend reaches the capacity dies (stops participating, counted
  /// in BroadcastNResult::dead_count).  This models the paper's motivating
  /// scenario — resource-competitiveness is exactly the property that the
  /// adversary goes bankrupt before the fleet does (section 1.1).
  Cost node_energy_budget = 0;
  /// Sim-mode extension (see DESIGN.md §2): helpers that keep crossing the
  /// hearing threshold update n_u to max(n_u, 2^i/S_u^2).  At laptop scale
  /// the first promotion can fire in the dense regime where S_u is far
  /// above sqrt(2^i/n), making n_u a gross underestimate of n and the halt
  /// threshold unreachable; re-estimation adopts the sparse-regime crossing
  /// (S_u ~ sqrt(2^i/n)), which is the estimate the paper's analysis is
  /// actually about.  The paper's constants make early promotion impossible
  /// (Lemma 4), so theory() disables this.
  bool helper_reestimate = false;

  /// Paper-faithful constants (use only at tiny scale in structural tests;
  /// broadcast_n_test is the only caller).
  static BroadcastNParams theory();
  /// Laptop-scale preset: same forms, constants calibrated so that with no
  /// jamming all nodes terminate within ~lg n + O(1) epochs.
  static BroadcastNParams sim();

  std::uint64_t repetitions(std::uint32_t epoch) const;
  double listen_factor(std::uint32_t epoch) const;
  double growth_damping(std::uint32_t epoch) const;
  double helper_threshold(std::uint32_t epoch) const;
};

/// Per-node summary of an execution.
struct BroadcastNodeOutcome {
  BroadcastStatus final_status = BroadcastStatus::kUninformed;
  bool informed = false;          ///< ever heard m
  Cost cost = 0;
  double final_S = 0.0;
  double n_estimate = 0.0;        ///< n_u if it became a helper, else 0
  std::uint32_t informed_epoch = 0;
  std::uint32_t terminated_epoch = 0;
};

struct BroadcastNResult {
  std::uint32_t n = 0;
  bool all_informed = false;
  bool all_terminated = false;  ///< every node terminated *by choice*
  /// True when the run was cut off at max_epoch with nodes still active —
  /// the graceful-degradation signal that the protocol did not converge.
  bool hit_epoch_cap = false;
  std::uint64_t informed_count = 0;
  std::uint64_t dead_count = 0;  ///< battery-exhausted nodes (extension)
  std::uint64_t crashed_count = 0;  ///< fault-injected nodes down at the end
  Cost max_cost = 0;
  double mean_cost = 0.0;
  Cost adversary_cost = 0;
  SlotCount latency = 0;          ///< slots until the last node terminated
  /// Slots elapsed when the last node became informed (0 if never, or n=1).
  SlotCount informed_latency = 0;
  std::uint32_t final_epoch = 0;
  std::vector<BroadcastNodeOutcome> nodes;
};

/// Runs Figure 2 with n nodes (node 0 is the sender and starts informed)
/// against a 1-uniform repetition adversary.  `faults` (optional) injects
/// the device/environment faults of sim/faults.hpp: the engine additionally
/// tracks crash/restart churn at repetition granularity (crashed nodes stop
/// holding up termination; a restarted node rejoins uninformed with a fresh
/// S_u — the sender re-reads m from stable storage) and applies battery
/// brownouts to node_energy_budget.
BroadcastNResult run_broadcast_n(std::uint32_t n,
                                 const BroadcastNParams& params,
                                 RepetitionAdversary& adversary, Rng& rng,
                                 FaultPlan* faults = nullptr);

}  // namespace rcb
