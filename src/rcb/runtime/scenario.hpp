// Self-describing experiment scenarios and deterministic trial replay.
//
// A Scenario is the complete recipe for one Monte-Carlo experiment:
// protocol, adversary, their knobs, the fault model, and the master seed.
// Because every run in the library is a pure function of (scenario, trial
// index), a scenario plus a trial index identifies one execution
// bit-identically — that is the contract the crash-repro machinery builds
// on:
//
//   1. run_scenario_trial installs a ReproScope (common/contracts.hpp)
//      carrying the scenario JSON, so any contract failure inside the trial
//      emits a machine-readable "RCB_REPRO {...}" record naming the exact
//      scenario, seed and trial that crashed.
//   2. repro_record_from_json parses such a record back.
//   3. tools/replay re-executes the named trial; the TrialOutcome digest
//      (FNV-1a over every per-node observable) certifies bit-identical
//      reproduction.
//
// The JSON codec round-trips: scenario_from_json(scenario_to_json(s)) == s.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "rcb/adversary/slot_adversary.hpp"
#include "rcb/adversary/strategies.hpp"
#include "rcb/adversary/two_uniform.hpp"
#include "rcb/common/types.hpp"
#include "rcb/sim/faults.hpp"

namespace rcb {

/// Complete description of one Monte-Carlo experiment.
struct Scenario {
  std::string protocol = "one_to_one";  ///< one_to_one|ksy|combined|broadcast|naive|sqrt|mc_broadcast
  std::string adversary = "none";
  Cost budget = 16384;       ///< adversary budget T
  double q = 0.6;            ///< blocker jam intensity
  double rate = 0.3;         ///< random-jammer per-slot rate
  std::uint32_t n = 32;      ///< broadcast fleet size
  double eps = 0.01;         ///< 1-to-1 failure bound
  std::size_t trials = 100;
  std::uint64_t seed = 1;    ///< master seed; trial t uses Rng::stream(seed, t)
  std::uint32_t max_epoch_extra = 0;  ///< 0 = protocol default cap
  SlotCount timeout_slots = 0;        ///< 1-to-1 wall-clock abort (0 = off)
  /// Per-node battery capacity in slot-units (broadcast/naive protocols
  /// only; 0 = unlimited).  Maps to BroadcastNParams::node_energy_budget.
  Cost battery = 0;
  /// Channel count C of the multi-channel slot model (mc_broadcast only;
  /// 1..64).  Serialised only when != 1, so single-channel scenarios keep
  /// their pre-multi-channel canonical JSON and digest.
  std::uint32_t channels = 1;
  FaultConfig faults;                 ///< fault-injection model (defaults off)

  bool is_broadcast() const {
    return protocol == "broadcast" || protocol == "naive" || protocol == "sqrt";
  }
  bool is_duel() const {
    return protocol == "one_to_one" || protocol == "ksy" ||
           protocol == "combined";
  }
  bool is_multichannel() const { return protocol == "mc_broadcast"; }
};

/// Serialises a scenario as a single-line JSON object (stable key order).
///
/// Memoized per thread: each thread keeps the last scenario it rendered
/// and that rendering, and returns a copy of the stored string when `s`
/// equals it in every field of Scenario and FaultConfig, doubles compared
/// by bit pattern (0.0 and -0.0 render differently).  A hit costs the
/// field comparison plus one string copy, ~40 ns; a miss renders afresh
/// and replaces the memo, ~2 us (bench_m1_micro BM_ScenarioToJson rows,
/// 4-vCPU Xeon VM).  run_scenario_trial renders
/// its scenario for the ReproScope on every trial, so a sweep's trials pay
/// for one rendering per thread, not one per trial.
std::string scenario_to_json(const Scenario& s);

/// FNV-1a fingerprint of the canonical scenario JSON.  Because the codec
/// round-trip is a fixed point (scenario_to_json(parse(j)) == j), two
/// scenarios have equal digests iff they are field-for-field identical —
/// the identity the checkpoint manifest and repro records are keyed on.
std::uint64_t scenario_digest(const Scenario& s);

struct ScenarioParseResult {
  bool ok = false;
  Scenario scenario;
  std::string error;
};

/// Parses a scenario from JSON text.  Unknown keys are rejected (they would
/// silently change the meaning of a repro record); absent keys keep their
/// defaults.
ScenarioParseResult scenario_from_json(std::string_view text);

/// Empty string when the scenario names a valid protocol/adversary
/// combination with in-range parameters; a diagnostic otherwise.
std::string validate_scenario(const Scenario& s);

/// Adversary factories (nullptr for an unknown name).
std::unique_ptr<RepetitionAdversary> make_broadcast_adversary(
    const Scenario& s);
std::unique_ptr<DuelAdversary> make_duel_adversary(const Scenario& s);
/// Multi-channel adversary factory (none|mc_uniform|mc_focus|mc_sweep).
/// Randomized strategies seed their private Rng from (s.seed, trial) so a
/// trial replays deterministically.
std::unique_ptr<McSlotAdversary> make_mc_adversary(const Scenario& s,
                                                   std::uint64_t trial = 0);

/// Everything observable about one trial, plus a digest certifying it.
struct TrialOutcome {
  double max_cost = 0.0;
  double mean_cost = 0.0;
  double adversary_cost = 0.0;
  double latency = 0.0;
  bool success = false;
  bool aborted = false;
  std::uint64_t dead_count = 0;
  std::uint64_t crashed_count = 0;
  /// FNV-1a over every field above plus all per-node observables (costs,
  /// statuses, epochs) — two executions with equal digests took the same
  /// per-node trajectory.
  std::uint64_t digest = 0;
};

/// Executes trial `trial` of `s` (precondition: validate_scenario(s) is
/// empty).  Installs a ReproScope for the duration so contract failures
/// inside the trial are attributable.
TrialOutcome run_scenario_trial(const Scenario& s, std::uint64_t trial);

/// A parsed crash-repro record (the "RCB_REPRO {...}" stderr line).
struct ReproRecord {
  std::string kind;   ///< "precondition" or "assertion"
  std::string expr;
  std::string file;
  int line = 0;
  std::uint64_t master_seed = 0;
  std::uint64_t trial = 0;
  bool has_scenario = false;
  Scenario scenario;
  /// FNV-1a digest of the scenario JSON as recorded at emission time
  /// ("scenario_digest" field); lets tools detect a record whose embedded
  /// scenario was edited after the fact.
  bool has_scenario_digest = false;
  std::uint64_t scenario_digest = 0;
};

struct ReproParseResult {
  bool ok = false;
  ReproRecord record;
  std::string error;
};

/// Parses a repro record; tolerates a leading "RCB_REPRO " prefix and
/// surrounding whitespace, so a line grabbed from a crash log works as-is.
ReproParseResult repro_record_from_json(std::string_view text);

}  // namespace rcb
