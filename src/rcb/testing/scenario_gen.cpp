#include "rcb/testing/scenario_gen.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "rcb/common/contracts.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/channel_plan.hpp"

namespace rcb {
namespace {

// Stream salt so fuzz scenario streams never collide with the trial
// streams the scenarios themselves consume (Rng::stream(scenario.seed, t)).
constexpr std::uint64_t kGenSalt = 0x5cef77a9u;

const char* const kProtocols[] = {"one_to_one", "ksy",   "combined",
                                  "broadcast",  "naive", "sqrt"};
const char* const kBroadcastAdvs[] = {"none", "suffix", "fraction", "random",
                                      "burst"};
const char* const kDuelAdvs[] = {"none",       "send_phase", "nack_phase",
                                 "full_duel",  "both_views", "sym_random",
                                 "spoof"};
const char* const kMcAdvs[] = {"none", "mc_uniform", "mc_focus", "mc_sweep"};
// Duel planners whose cost per phase is O(1), so a trial at the default
// caps costs only its engine events (sym_random draws per slot).
const char* const kCapDuelAdvs[] = {"full_duel", "send_phase", "nack_phase",
                                    "both_views", "spoof"};

/// Log-uniform budget in [0, max]: pick a magnitude first so small and
/// huge budgets are equally likely (uniform sampling would almost never
/// produce the tiny budgets where off-by-one accounting bugs live).
Cost log_uniform_budget(Rng& rng, Cost max_budget) {
  if (max_budget == 0 || rng.bernoulli(0.1)) return 0;
  const std::uint32_t max_bits = floor_log2(max_budget) + 1;
  const std::uint32_t bits = 1 + static_cast<std::uint32_t>(
                                     rng.uniform_u64(max_bits));
  const Cost hi = std::min<Cost>(max_budget, pow2(bits) - 1);
  const Cost lo = pow2(bits - 1) - 1;
  return lo + rng.uniform_u64(hi - lo + 1);
}

}  // namespace

Scenario generate_scenario(std::uint64_t seed, std::uint64_t index,
                           const ScenarioGenOptions& opt) {
  Rng rng = Rng::stream(seed ^ kGenSalt, index);
  Scenario s;
  s.protocol = kProtocols[rng.uniform_u64(std::size(kProtocols))];
  if (s.is_broadcast()) {
    s.adversary = kBroadcastAdvs[rng.uniform_u64(std::size(kBroadcastAdvs))];
    s.n = 1 + static_cast<std::uint32_t>(rng.uniform_u64(opt.max_n));
  } else {
    s.adversary = kDuelAdvs[rng.uniform_u64(std::size(kDuelAdvs))];
  }
  s.budget = log_uniform_budget(rng, opt.max_budget);
  s.q = rng.uniform_double();
  s.rate = rng.uniform_double();
  // eps log-uniform over the E9 sweep range [0.003, 0.3].
  s.eps = 0.003 * std::pow(100.0, rng.uniform_double());
  s.trials = 1 + rng.uniform_u64(opt.max_trials);
  s.seed = rng.next_u64() >> 12;  // stay in the 2^53 exact-JSON-int range
  // Never 0 here (= the protocol's default cap, epoch 34): a fault-laden
  // run whose halt condition stalls would then grind through 2^34-slot
  // epochs.  Capping at first_epoch + [1, 4] bounds every trial while still
  // exercising the epoch-cap (hit_epoch_cap / aborted) code paths.  The
  // default-cap axis at the end reaches the default caps on purpose.
  s.max_epoch_extra = 1 + static_cast<std::uint32_t>(rng.uniform_u64(4));
  if (s.is_duel()) {
    // The spoofing adversary keeps Fig.1 alive until its budget runs dry;
    // always bound it so a generated case cannot stall the harness.
    if (s.adversary == "spoof" || rng.bernoulli(0.3)) {
      s.timeout_slots = 1u << (10 + rng.uniform_u64(6));
    }
  }
  if (opt.allow_battery && rng.bernoulli(0.25) &&
      (s.protocol == "broadcast" || s.protocol == "naive")) {
    s.battery = 128 + rng.uniform_u64(1u << 14);
  }
  if (opt.allow_faults && rng.bernoulli(0.5)) {
    FaultConfig& f = s.faults;
    f.seed = rng.next_u64() >> 12;
    f.crash_rate = rng.bernoulli(0.5) ? 0.002 * rng.uniform_double() : 0.0;
    f.restart_rate = f.crash_rate > 0.0 ? 0.05 * rng.uniform_double() : 0.0;
    f.crash_fraction = rng.uniform_double();
    f.loss_rate = 0.3 * rng.uniform_double();
    f.corruption_rate = 0.2 * rng.uniform_double();
    f.clock_skew_rate = 0.2 * rng.uniform_double();
    if (rng.bernoulli(0.3)) {
      f.brownout_slot = rng.uniform_u64(1u << 16);
      f.brownout_fraction = rng.uniform_double();
      f.brownout_factor = rng.uniform_double();
    }
  }
  if (opt.allow_cca && rng.bernoulli(0.5)) {
    s.faults.cca_false_busy = 0.2 * rng.uniform_double();
    s.faults.cca_missed_detection = 0.2 * rng.uniform_double();
    s.faults.cca_ramp_slots = rng.uniform_u64(1u << 12);
  }
  // Multi-channel axis, decided last so the single-channel draw sequence
  // above is untouched.  Channels are weighted toward C in {1, 2, 4} — the
  // single-channel model, the smallest genuine split, and the acceptance
  // cell — with a thin tail over the full 1..64 range.
  if (opt.allow_multichannel && rng.bernoulli(0.25)) {
    s.protocol = "mc_broadcast";
    s.adversary = kMcAdvs[rng.uniform_u64(std::size(kMcAdvs))];
    s.n = 1 + static_cast<std::uint32_t>(rng.uniform_u64(opt.max_n));
    const double w = rng.uniform_double();
    if (w < 0.25) {
      s.channels = 1;
    } else if (w < 0.55) {
      s.channels = 2;
    } else if (w < 0.80) {
      s.channels = 4;
    } else {
      s.channels = 1 + static_cast<std::uint32_t>(rng.uniform_u64(kMaxChannels));
    }
    s.battery = 0;        // broadcast/naive-only knob
    s.timeout_slots = 0;  // duel-only knob
  }
  // Default-cap axis, drawn last so every other case is unchanged: a rare
  // duel keeps the protocols' default epoch caps, with no timeout and a
  // budget of at least 2^37, which a full-intensity jammer needs to reach
  // them.
  if (s.is_duel() && rng.bernoulli(0.04)) {
    s.adversary = kCapDuelAdvs[rng.uniform_u64(std::size(kCapDuelAdvs))];
    s.budget = pow2(37) + rng.uniform_u64(pow2(37));
    s.max_epoch_extra = 0;
    s.trials = 1;
    s.timeout_slots = 0;
  }
  RCB_ASSERT(validate_scenario(s).empty());
  return s;
}

}  // namespace rcb
