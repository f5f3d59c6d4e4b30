// Deterministic scenario-space sampler for the fuzzing harness.
//
// The paper's guarantees are distributional and hold against *any*
// budget-T adversary, so correctness of this reproduction lives in the
// cross product protocol x adversary x engine x faults x CCA x battery —
// far larger than any hand-written test matrix.  generate_scenario(seed, i)
// maps a point of that space to a valid Scenario, bit-identically: the
// same (seed, index) always yields the same scenario, so every fuzz run is
// replayable from two integers and a shrunk failure stays tied to its
// generating coordinates.
//
// Sampled dimensions: all six protocols, every compatible adversary,
// log-uniform budgets, fleet size, eps, faults on/off (crash churn, loss,
// corruption, clock skew, brownout), CCA drift on/off, and battery mode
// (broadcast/naive).  Bounds are tuned so one scenario's full oracle pass
// (runtime/testing/oracles.hpp) stays in the low-millisecond range — the
// harness's throughput is what buys coverage.  The exception is a rare
// default-cap axis (~1.5% of cases): one duel trial at the default epoch
// caps with a budget that reaches them, whose oracle pass can take
// seconds.
#pragma once

#include <cstdint>

#include "rcb/runtime/scenario.hpp"

namespace rcb {

/// Size knobs for the sampler; defaults keep single-scenario oracle time
/// low enough for ~500-case CI sweeps.
struct ScenarioGenOptions {
  Cost max_budget = 1u << 14;      ///< budgets are log-uniform in [0, max]
  std::uint32_t max_n = 48;        ///< broadcast fleet size cap
  std::size_t max_trials = 6;      ///< trials per generated scenario
  bool allow_faults = true;
  bool allow_cca = true;
  bool allow_battery = true;
  /// Multi-channel axis: a fraction of cases become mc_broadcast scenarios
  /// with a channels draw weighted toward C in {1, 2, 4}.
  bool allow_multichannel = true;
};

/// Deterministically samples scenario `index` of fuzz stream `seed`.
/// Postcondition: validate_scenario(result) is empty.
Scenario generate_scenario(std::uint64_t seed, std::uint64_t index,
                           const ScenarioGenOptions& opt = {});

}  // namespace rcb
