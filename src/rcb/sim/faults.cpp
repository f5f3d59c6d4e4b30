#include "rcb/sim/faults.hpp"

#include <algorithm>
#include <cmath>

#include "rcb/common/contracts.hpp"

namespace rcb {
namespace {

// Distinct stream salts so crash timelines, skew draws and eligibility
// hashes never alias even for small seeds.
constexpr std::uint64_t kCrashSalt = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kSkewSalt = 0xD1B54A32D192ED03ull;
constexpr std::uint64_t kEligibleSalt = 0x8BB84B93962EEFCDull;
constexpr std::uint64_t kBrownoutSalt = 0x2545F4914F6CDD1Dull;

// Toggle cap per node: beyond this the node freezes in its current state.
// At plausible churn rates (<= 1e-2 per slot) this covers hundreds of
// thousands of slots per node while bounding memory at ~32 KiB per node.
constexpr std::size_t kMaxToggles = 4096;

/// Deterministic per-node uniform in [0,1) from (seed, salt, node).
double node_hash01(std::uint64_t seed, std::uint64_t salt, NodeId u) {
  std::uint64_t s = seed ^ salt ^ (static_cast<std::uint64_t>(u) + 1) * kCrashSalt;
  const std::uint64_t x = splitmix64_next(s);
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Geometric-ish waiting time (in slots, >= 1) for a per-slot event rate.
/// Returns kNoSlot when the event never fires.
SlotIndex waiting_slots(double rate, Rng& rng) {
  if (rate <= 0.0) return kNoSlot;
  if (rate >= 1.0) return 1;
  const double w = rng.exponential() / rate;
  if (!(w < 1e18)) return kNoSlot;  // beyond any simulated horizon
  return 1 + static_cast<SlotIndex>(w);
}

}  // namespace

bool FaultConfig::any_active() const {
  return crash_rate > 0.0 || loss_rate > 0.0 || corruption_rate > 0.0 ||
         clock_skew_rate > 0.0 ||
         (brownout_slot != kNoSlot && brownout_fraction > 0.0) ||
         cca_false_busy > 0.0 || cca_missed_detection > 0.0;
}

FaultPlan::FaultPlan(const FaultConfig& config)
    : config_(config), active_(config.any_active()) {
  RCB_REQUIRE(config.crash_rate >= 0.0 && config.crash_rate <= 1.0);
  RCB_REQUIRE(config.restart_rate >= 0.0 && config.restart_rate <= 1.0);
  RCB_REQUIRE(config.crash_fraction >= 0.0 && config.crash_fraction <= 1.0);
  RCB_REQUIRE(config.loss_rate >= 0.0 && config.loss_rate <= 1.0);
  RCB_REQUIRE(config.corruption_rate >= 0.0 && config.corruption_rate <= 1.0);
  RCB_REQUIRE(config.clock_skew_rate >= 0.0 && config.clock_skew_rate <= 1.0);
  RCB_REQUIRE(config.brownout_fraction >= 0.0 && config.brownout_fraction <= 1.0);
  RCB_REQUIRE(config.brownout_factor >= 0.0 && config.brownout_factor <= 1.0);
  RCB_REQUIRE(config.cca_false_busy >= 0.0 && config.cca_false_busy <= 1.0);
  RCB_REQUIRE(config.cca_missed_detection >= 0.0 &&
              config.cca_missed_detection <= 1.0);
}

void FaultPlan::begin_phase(std::uint32_t node_count, SlotCount num_slots) {
  if (!active_) return;
  origin_ += phase_slots_;
  phase_slots_ = num_slots;

  skewed_.assign(node_count, false);
  if (config_.clock_skew_rate > 0.0) {
    // One dedicated stream per phase keeps the draws independent of how
    // many receptions the engines process.
    Rng rng = Rng::stream(config_.seed ^ kSkewSalt, phase_index_);
    for (std::uint32_t u = 0; u < node_count; ++u) {
      skewed_[u] = rng.bernoulli(config_.clock_skew_rate);
    }
  }
  ++phase_index_;
}

void FaultPlan::init_timeline(NodeId u) {
  if (timelines_.size() <= u) timelines_.resize(u + 1);
  Timeline& tl = timelines_[u];
  if (tl.initialized) return;
  tl.initialized = true;
  tl.rng = Rng::stream(config_.seed ^ kCrashSalt, u);
  tl.eligible = config_.crash_rate > 0.0 &&
                node_hash01(config_.seed, kEligibleSalt, u) <
                    config_.crash_fraction;
  tl.exhausted = !tl.eligible;
}

void FaultPlan::extend_timeline(Timeline& tl, SlotIndex global_slot) {
  while (!tl.exhausted &&
         (tl.toggles.empty() || tl.toggles.back() <= global_slot)) {
    if (tl.toggles.size() >= kMaxToggles) {
      tl.exhausted = true;
      break;
    }
    const bool currently_up = tl.toggles.size() % 2 == 0;
    const double rate = currently_up ? config_.crash_rate : config_.restart_rate;
    const SlotIndex wait = waiting_slots(rate, tl.rng);
    if (wait == kNoSlot) {
      tl.exhausted = true;
      break;
    }
    const SlotIndex base = tl.toggles.empty() ? 0 : tl.toggles.back();
    if (base > kNoSlot - wait) {  // saturate instead of wrapping
      tl.exhausted = true;
      break;
    }
    tl.toggles.push_back(base + wait);
  }
}

bool FaultPlan::node_down_at(NodeId u, SlotIndex global_slot) {
  if (!active_ || config_.crash_rate <= 0.0) return false;
  init_timeline(u);
  Timeline& tl = timelines_[u];
  extend_timeline(tl, global_slot);
  const auto it =
      std::upper_bound(tl.toggles.begin(), tl.toggles.end(), global_slot);
  return (it - tl.toggles.begin()) % 2 == 1;
}

double FaultPlan::battery_factor(NodeId u, SlotIndex global_slot) const {
  if (!active_ || config_.brownout_slot == kNoSlot ||
      config_.brownout_fraction <= 0.0 || global_slot < config_.brownout_slot) {
    return 1.0;
  }
  return node_hash01(config_.seed, kBrownoutSalt, u) < config_.brownout_fraction
             ? config_.brownout_factor
             : 1.0;
}

double FaultPlan::cca_ramp(SlotIndex global_slot) const {
  if (config_.cca_ramp_slots == 0) return 1.0;
  if (global_slot >= config_.cca_ramp_slots) return 1.0;
  return static_cast<double>(global_slot) /
         static_cast<double>(config_.cca_ramp_slots);
}

Reception FaultPlan::degrade(Reception ideal, SlotIndex slot_in_phase,
                             Rng& rng) {
  if (!active_) return ideal;
  const SlotIndex t = origin_ + slot_in_phase;
  switch (ideal) {
    case Reception::kMessage:
    case Reception::kNack:
      if (config_.corruption_rate > 0.0 &&
          rng.bernoulli(config_.corruption_rate)) {
        return Reception::kNoise;
      }
      if (config_.loss_rate > 0.0 && rng.bernoulli(config_.loss_rate)) {
        return Reception::kClear;
      }
      return ideal;
    case Reception::kClear:
      if (config_.cca_false_busy > 0.0 &&
          rng.bernoulli(config_.cca_false_busy * cca_ramp(t))) {
        return Reception::kNoise;
      }
      return ideal;
    case Reception::kNoise:
      if (config_.cca_missed_detection > 0.0 &&
          rng.bernoulli(config_.cca_missed_detection * cca_ramp(t))) {
        return Reception::kClear;
      }
      return ideal;
  }
  return ideal;
}

}  // namespace rcb
