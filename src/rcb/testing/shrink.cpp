#include "rcb/testing/shrink.hpp"

#include <algorithm>

#include "rcb/common/mathutil.hpp"

namespace rcb {
namespace {

bool faults_enabled(const FaultConfig& f) {
  return f.crash_rate > 0.0 || f.restart_rate > 0.0 || f.loss_rate > 0.0 ||
         f.corruption_rate > 0.0 || f.clock_skew_rate > 0.0 ||
         f.brownout_slot != kNoSlot;
}

bool cca_enabled(const FaultConfig& f) {
  return f.cca_false_busy > 0.0 || f.cca_missed_detection > 0.0 ||
         f.cca_ramp_slots != 0;
}

/// One size-reducing rewrite; returns false when it does not apply (the
/// dimension is already minimal), so the pass can skip a wasted eval.
using Transform = bool (*)(Scenario&);

bool drop_trials(Scenario& s) {
  if (s.trials <= 1) return false;
  s.trials = 1;
  return true;
}
bool halve_trials(Scenario& s) {
  if (s.trials <= 1) return false;
  s.trials /= 2;
  return true;
}
bool drop_nodes(Scenario& s) {
  if ((!s.is_broadcast() && !s.is_multichannel()) || s.n <= 2) return false;
  s.n = 2;
  return true;
}
bool halve_nodes(Scenario& s) {
  if ((!s.is_broadcast() && !s.is_multichannel()) || s.n <= 2) return false;
  s.n /= 2;
  return true;
}
bool drop_channels(Scenario& s) {
  // C=1 is the single-channel model: an mc failure that survives this
  // rewrite is a single-channel bug wearing multi-channel clothes.
  if (s.channels <= 1) return false;
  s.channels = 1;
  return true;
}
bool halve_channels(Scenario& s) {
  if (s.channels <= 1) return false;
  s.channels /= 2;
  return true;
}
bool zero_budget(Scenario& s) {
  if (s.budget == 0) return false;
  s.budget = 0;
  return true;
}
bool halve_budget(Scenario& s) {
  if (s.budget == 0) return false;
  s.budget /= 2;
  return true;
}
bool null_adversary(Scenario& s) {
  if (s.adversary == "none") return false;
  s.adversary = "none";
  return true;
}
bool zero_jam_knobs(Scenario& s) {
  if (s.q == 0.0 && s.rate == 0.0) return false;
  s.q = 0.0;
  s.rate = 0.0;
  return true;
}
bool disable_faults(Scenario& s) {
  if (!faults_enabled(s.faults)) return false;
  const FaultConfig keep_cca = s.faults;
  s.faults = FaultConfig{};
  s.faults.cca_false_busy = keep_cca.cca_false_busy;
  s.faults.cca_missed_detection = keep_cca.cca_missed_detection;
  s.faults.cca_ramp_slots = keep_cca.cca_ramp_slots;
  return true;
}
bool disable_cca(Scenario& s) {
  if (!cca_enabled(s.faults)) return false;
  s.faults.cca_false_busy = 0.0;
  s.faults.cca_missed_detection = 0.0;
  s.faults.cca_ramp_slots = 0;
  return true;
}
bool disable_battery(Scenario& s) {
  if (s.battery == 0) return false;
  s.battery = 0;
  return true;
}
bool drop_timeout(Scenario& s) {
  // Never unbound a spoofing duel: without a timeout it only stops at the
  // (huge) default epoch cap, so the "smaller" scenario would be slower.
  if (s.timeout_slots == 0 || s.adversary == "spoof") return false;
  s.timeout_slots = 0;
  return true;
}
bool drop_epoch_extra(Scenario& s) {
  // Floor at 1, not 0: extra == 0 means the protocol's DEFAULT epoch cap
  // (~2^26 slots), so "smaller" would mean vastly slower to replay.
  if (s.max_epoch_extra <= 1) return false;
  s.max_epoch_extra = 1;
  return true;
}

// Aggressive rewrites first: a successful "trials=1" saves every later
// candidate evaluation more time than "trials/=2" would.
constexpr Transform kTransforms[] = {
    drop_trials,   drop_nodes,    drop_channels,   zero_budget,
    null_adversary, disable_faults, disable_cca,   disable_battery,
    drop_timeout,  drop_epoch_extra, zero_jam_knobs, halve_trials,
    halve_nodes,   halve_channels, halve_budget,
};

}  // namespace

std::uint64_t scenario_size(const Scenario& s) {
  const std::uint64_t fleet =
      s.is_broadcast() || s.is_multichannel() ? s.n : 2;
  std::uint64_t size = static_cast<std::uint64_t>(s.trials) * fleet;
  size += s.channels - 1;
  size += s.budget == 0 ? 0 : ceil_log2(s.budget + 1);
  size += s.adversary == "none" ? 0 : 2;
  size += faults_enabled(s.faults) ? 8 : 0;
  size += cca_enabled(s.faults) ? 4 : 0;
  size += s.battery > 0 ? 4 : 0;
  size += s.timeout_slots > 0 ? 2 : 0;
  size += s.max_epoch_extra;
  return size;
}

ShrinkResult shrink_scenario(
    const Scenario& failing, const std::string& oracle,
    const std::function<std::vector<Violation>(const Scenario&)>& check,
    std::size_t max_evaluations) {
  ShrinkResult result;
  result.scenario = failing;
  result.oracle = oracle;

  const auto still_fails = [&](const Scenario& candidate) {
    if (!validate_scenario(candidate).empty()) return false;
    ++result.evaluations;
    const std::vector<Violation> vs = check(candidate);
    return std::any_of(vs.begin(), vs.end(), [&](const Violation& v) {
      return v.oracle == oracle;
    });
  };

  // Greedy fixed point: restart the pass after every accepted rewrite so
  // transforms can compound (e.g. drop_nodes enables a smaller budget to
  // still reproduce).
  bool progressed = true;
  while (progressed && result.evaluations < max_evaluations) {
    progressed = false;
    for (const Transform t : kTransforms) {
      if (result.evaluations >= max_evaluations) break;
      Scenario candidate = result.scenario;
      if (!t(candidate)) continue;
      if (scenario_size(candidate) >= scenario_size(result.scenario)) continue;
      if (still_fails(candidate)) {
        result.scenario = candidate;
        progressed = true;
      }
    }
  }
  return result;
}

}  // namespace rcb
