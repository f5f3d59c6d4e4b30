// Pluggable differential oracles for fuzzed scenarios.
//
// check_scenario runs one scenario through four oracle families and
// returns every violation found:
//
//   "determinism"  — the same (scenario, trial) executed twice yields the
//                    same trajectory digest (the bit-identical-replay
//                    contract everything else builds on).
//   "ledger"       — energy-ledger conservation and adversary budget
//                    accounting: costs are finite and non-negative,
//                    mean <= max, the adversary never spends beyond T,
//                    dead/crashed counts stay within the fleet and only
//                    appear when their causes (battery / crash faults) are
//                    configured; at engine level, every NodeObservation
//                    satisfies sends + listens <= slots and
//                    clear + messages + nacks + noise == listens.
//   "crosscheck"   — event-driven vs dense slotwise engine on an action
//                    profile derived from the scenario: exact equality on
//                    randomness-free profiles, a Bonferroni-corrected
//                    Mann-Whitney gate (stats/rank_test.hpp) otherwise;
//                    and, at C = 1, the batch engine vs the event engine on
//                    the same Rng stream: exact equality of every
//                    observation and of the final stream position.
//   "metamorphic"  — monotonicity relations the theory implies: larger eps
//                    never increases Fig.1's cost thresholds
//                    (deterministic), and more adversary budget never
//                    *decreases* 1-to-1 delivery latency (rank-gated; the
//                    naive baseline is exempt — the §3.1 halving attack
//                    makes it halt early under jamming by design).
//
// Statistical oracles reject at bonferroni_alpha(family_alpha, comparisons
// counted per scenario), so the per-scenario false-positive probability is
// bounded by family_alpha; across a C-case fuzz run the expected number of
// spurious violations is ~C * family_alpha.  The default 1e-6 makes a
// 500-case sweep effectively deterministic while still flagging gross
// engine disagreement (the calibration is itself under test in
// tests/rank_gate_test.cpp).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "rcb/runtime/scenario.hpp"

namespace rcb {

/// One oracle violation: which oracle fired and a human-readable detail.
struct Violation {
  std::string oracle;  ///< "determinism" | "ledger" | "crosscheck" | ...
  std::string detail;
};

struct OracleOptions {
  /// Per-scenario trials examined by the determinism/ledger oracles
  /// (capped, so huge-trial scenarios don't dominate harness time).
  std::size_t trials_cap = 3;
  /// Paired engine runs per statistical crosscheck comparison.
  std::size_t crosscheck_trials = 60;
  /// Trials per arm of the budget-monotonicity comparison.
  std::size_t metamorphic_trials = 12;
  /// Family-wise false-positive bound for the statistical gates of ONE
  /// scenario (split over its comparisons via bonferroni_alpha).
  double family_alpha = 1e-6;
  /// Canary / fault-injection hook: applied to every TrialOutcome before
  /// the oracles see it.  rcb_fuzz --canary installs a known
  /// ledger-accounting mutation here and asserts the harness catches it;
  /// an empty function is the production configuration.
  std::function<void(TrialOutcome&)> outcome_tamper;
};

/// Runs every oracle against `s`; empty result = scenario passed.
std::vector<Violation> check_scenario(const Scenario& s,
                                      const OracleOptions& opt = {});

}  // namespace rcb
