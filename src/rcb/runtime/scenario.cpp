#include "rcb/runtime/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "rcb/adversary/mc_strategies.hpp"
#include "rcb/adversary/spoofing.hpp"
#include "rcb/cli/json.hpp"
#include "rcb/cli/json_parse.hpp"
#include "rcb/common/contracts.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/protocols/broadcast_n.hpp"
#include "rcb/protocols/combined.hpp"
#include "rcb/protocols/ksy.hpp"
#include "rcb/protocols/mc_broadcast.hpp"
#include "rcb/protocols/naive_broadcast.hpp"
#include "rcb/protocols/one_to_one.hpp"
#include "rcb/protocols/sqrt_broadcast.hpp"
#include "rcb/sim/engine_workspace.hpp"

namespace rcb {
namespace {

// FNV-1a 64-bit, folded over the canonical little-endian encoding of each
// observable.  Doubles are hashed by bit pattern, so the digest certifies
// bit-identical (not merely approximately equal) trajectories.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(bool v) { mix(static_cast<std::uint64_t>(v)); }
};

/// brownout_slot uses kNoSlot as the "never" sentinel, which is not
/// representable as a JSON double; it is encoded as -1.
double encode_slot(SlotIndex s) {
  return s == kNoSlot ? -1.0 : static_cast<double>(s);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// How the codec writes a field beyond what its C++ type says.
enum class Wire {
  kPlain,
  /// Written only when != 1: every pre-multi-channel scenario keeps its
  /// canonical JSON byte-for-byte, so scenario digests (checkpoint
  /// manifests, committed repro records) survive the channels field.
  kOmitAtOne,
  /// kNoSlot is written as -1 (encode_slot).
  kSlot,
};

// The scenario codec's one field list: every field of Scenario and
// FaultConfig, once, in canonical key order, with its JSON key.  `faults`
// opens the nested object that the FaultConfig fields after it fill.  The
// memo comparison, the renderer, the decoder and validate_scenario's rate
// checks all walk it.  A field added to either struct must join it, or the
// codec would drop the field and the memo below would hand out a stale
// rendering; the LP64 size checks make an addition that grows a struct
// fail to compile until it is looked at here.
static_assert(sizeof(void*) != 8 || sizeof(FaultConfig) == 104);
static_assert(sizeof(void*) != 8 ||
              sizeof(Scenario) ==
                  2 * sizeof(std::string) + 88 + sizeof(FaultConfig));

template <typename Visit>
void visit_fields(Visit&& visit) {
  visit("protocol", &Scenario::protocol);
  visit("adversary", &Scenario::adversary);
  visit("budget", &Scenario::budget);
  visit("q", &Scenario::q);
  visit("rate", &Scenario::rate);
  visit("n", &Scenario::n);
  visit("eps", &Scenario::eps);
  visit("trials", &Scenario::trials);
  visit("seed", &Scenario::seed);
  visit("max_epoch_extra", &Scenario::max_epoch_extra);
  visit("timeout_slots", &Scenario::timeout_slots);
  visit("battery", &Scenario::battery);
  visit("channels", &Scenario::channels, Wire::kOmitAtOne);
  visit("faults", &Scenario::faults);
  visit("seed", &FaultConfig::seed);
  visit("crash_rate", &FaultConfig::crash_rate);
  visit("restart_rate", &FaultConfig::restart_rate);
  visit("crash_fraction", &FaultConfig::crash_fraction);
  visit("loss_rate", &FaultConfig::loss_rate);
  visit("corruption_rate", &FaultConfig::corruption_rate);
  visit("clock_skew_rate", &FaultConfig::clock_skew_rate);
  visit("brownout_slot", &FaultConfig::brownout_slot, Wire::kSlot);
  visit("brownout_fraction", &FaultConfig::brownout_fraction);
  visit("brownout_factor", &FaultConfig::brownout_factor);
  visit("cca_false_busy", &FaultConfig::cca_false_busy);
  visit("cca_missed_detection", &FaultConfig::cca_missed_detection);
  visit("cca_ramp_slots", &FaultConfig::cca_ramp_slots);
}

/// The object a field of class C lives in: the scenario or its faults.
template <typename C, typename S>
auto& owner(S& s) {
  if constexpr (std::is_same_v<C, FaultConfig>) {
    return s.faults;
  } else {
    return s;
  }
}

// Doubles compare by bit pattern: 0.0 and -0.0 compare equal as values but
// render "0" and "-0".
bool same_scenario(const Scenario& a, const Scenario& b) {
  bool same = true;
  visit_fields([&]<typename C, typename T>(const char*, T C::*field,
                                           Wire = Wire::kPlain) {
    if constexpr (std::is_same_v<T, double>) {
      same = same && same_bits(owner<C>(a).*field, owner<C>(b).*field);
    } else if constexpr (!std::is_same_v<T, FaultConfig>) {
      same = same && owner<C>(a).*field == owner<C>(b).*field;
    }
  });
  return same;
}

std::string render_scenario_json(const Scenario& s) {
  std::string out;
  out.reserve(640);  // a scenario is ~500 bytes: no regrowth while writing
  JsonWriter w(out);
  w.begin_object();
  visit_fields([&]<typename C, typename T>(const char* key, T C::*field,
                                           Wire wire = Wire::kPlain) {
    const T& v = owner<C>(s).*field;
    if constexpr (std::is_same_v<T, FaultConfig>) {
      w.key(key).begin_object();
    } else if constexpr (std::is_same_v<T, std::string> ||
                         std::is_same_v<T, double>) {
      w.key(key).value(v);
    } else if (wire == Wire::kSlot) {
      w.key(key).value(encode_slot(v));
    } else if (wire != Wire::kOmitAtOne || v != 1) {
      w.key(key).value(static_cast<std::uint64_t>(v));
    }
  });
  w.end_object();  // faults, the last field
  w.end_object();
  return out;
}

}  // namespace

std::string scenario_to_json(const Scenario& s) {
  // Last (scenario, rendering) pair of this thread: a sweep's trials
  // render the same scenario back to back.
  struct Memo {
    bool valid = false;
    Scenario scenario;
    std::string json;
  };
  thread_local Memo memo;
  if (!memo.valid || !same_scenario(memo.scenario, s)) {
    memo.valid = false;  // stays false if a copy below throws
    memo.json = render_scenario_json(s);
    memo.scenario = s;
    memo.valid = true;
  }
  return memo.json;
}

std::uint64_t scenario_digest(const Scenario& s) {
  return fnv1a64(scenario_to_json(s));
}

namespace {

/// Decodes visit_fields' fields from a parsed object into a scenario;
/// absent keys keep their defaults.  The first failure wins and decoding
/// short-circuits on it.  Keys found are counted per object, so only an
/// object holding a key no field names is scanned for it.
struct Decoder {
  Decoder(Scenario& scenario, const JsonObject& object)
      : s(scenario), top(object) {}

  Scenario& s;
  const JsonObject& top;
  const JsonObject* faults = nullptr;  ///< once the faults key is an object
  std::size_t top_found = 0;
  std::size_t faults_found = 0;
  std::string error;

  bool ok() const { return error.empty(); }
  void fail(std::string msg) {
    if (ok()) error = std::move(msg);
  }
  /// A key as errors name it: fault keys sit under "faults.".
  template <typename C>
  static std::string path(const std::string& key) {
    return (std::is_same_v<C, FaultConfig> ? "faults." : "") + key;
  }

  template <typename C, typename T>
  void operator()(const char* key, T C::*field, Wire wire = Wire::kPlain) {
    constexpr bool nested = std::is_same_v<C, FaultConfig>;
    const JsonObject* obj = nested ? faults : &top;
    if (obj == nullptr || !ok()) return;
    const auto it = obj->find(key);
    if (it == obj->end()) return;
    ++(nested ? faults_found : top_found);
    const JsonValue& v = it->second;
    const auto bad = [&](const char* why) {
      fail(path<C>(key) + ": " + why);
    };
    if constexpr (std::is_same_v<T, FaultConfig>) {
      if (!v.is_object()) return bad("expected object");
      faults = &v.as_object();
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (!v.is_string()) return bad("expected string");
      owner<C>(s).*field = v.as_string();
    } else if (!v.is_number()) {
      return bad("expected number");
    } else if constexpr (std::is_same_v<T, double>) {
      owner<C>(s).*field = v.as_number();
    } else if (wire == Wire::kSlot && v.as_number() == -1.0) {
      owner<C>(s).*field = static_cast<T>(kNoSlot);
    } else {
      std::uint64_t u = 0;
      if (!json_exact_u64(v.as_number(), u)) {
        return bad("expected exact non-negative integer");
      }
      if (u > std::numeric_limits<T>::max()) return bad("out of range");
      owner<C>(s).*field = static_cast<T>(u);
    }
  }

  /// Fails on the first key, in object order, that names no field: in the
  /// faults object first, then at the top level.
  void reject_unknown_keys() {
    if (faults != nullptr && faults_found != faults->size()) {
      reject_unknown<FaultConfig>(*faults);
    }
    if (top_found != top.size()) reject_unknown<Scenario>(top);
  }

  template <typename Owner>
  void reject_unknown(const JsonObject& obj) {
    for (const auto& [key, value] : obj) {
      (void)value;
      bool known = false;
      visit_fields([&]<typename C, typename T>(const char* name, T C::*,
                                               Wire = Wire::kPlain) {
        known = known || (std::is_same_v<C, Owner> && key == name);
      });
      if (!known) return fail(path<Owner>(key) + ": unknown key");
    }
  }
};

}  // namespace

ScenarioParseResult scenario_from_json(std::string_view text) {
  ScenarioParseResult r;
  const JsonParseResult parsed = json_parse(text);
  if (!parsed.ok) {
    r.error = "invalid JSON: " + parsed.error;
    return r;
  }
  if (!parsed.value.is_object()) {
    r.error = "scenario must be a JSON object";
    return r;
  }
  Decoder d{r.scenario, parsed.value.as_object()};
  visit_fields(d);
  d.reject_unknown_keys();
  if (!d.ok()) {
    r.error = d.error;
    return r;
  }
  r.ok = true;
  return r;
}

std::unique_ptr<RepetitionAdversary> make_broadcast_adversary(
    const Scenario& s) {
  if (s.adversary == "none") return std::make_unique<NoJamAdversary>();
  if (s.adversary == "suffix") {
    return std::make_unique<SuffixBlockerAdversary>(Budget(s.budget), s.q);
  }
  if (s.adversary == "fraction") {
    return std::make_unique<EpochFractionBlockerAdversary>(Budget(s.budget),
                                                           s.q, 0.5);
  }
  if (s.adversary == "random") {
    return std::make_unique<RandomJammerAdversary>(Budget(s.budget), s.rate);
  }
  if (s.adversary == "burst") {
    return std::make_unique<BurstJammerAdversary>(Budget(s.budget), 8, 16);
  }
  return nullptr;
}

std::unique_ptr<DuelAdversary> make_duel_adversary(const Scenario& s) {
  if (s.adversary == "none") return std::make_unique<DuelNoJam>();
  if (s.adversary == "send_phase") {
    return std::make_unique<SendPhaseBlocker>(Budget(s.budget), s.q);
  }
  if (s.adversary == "nack_phase") {
    return std::make_unique<NackPhaseBlocker>(Budget(s.budget), s.q);
  }
  if (s.adversary == "full_duel") {
    return std::make_unique<FullDuelBlocker>(Budget(s.budget), s.q);
  }
  if (s.adversary == "both_views") {
    return std::make_unique<BothViewsSuffixBlocker>(Budget(s.budget), s.q);
  }
  if (s.adversary == "sym_random") {
    return std::make_unique<SymmetricRandomDuelJammer>(Budget(s.budget),
                                                       s.rate);
  }
  if (s.adversary == "spoof") {
    return std::make_unique<SpoofingNackAdversary>(Budget(s.budget));
  }
  return nullptr;
}

std::unique_ptr<McSlotAdversary> make_mc_adversary(const Scenario& s,
                                                   std::uint64_t trial) {
  // Private adversary stream, salted away from the trial's protocol stream.
  constexpr std::uint64_t kMcAdversarySalt = 0x6d634a616d212121ull;
  const auto rng = Rng::stream(s.seed ^ kMcAdversarySalt, trial);
  if (s.adversary == "none") return std::make_unique<McNoJam>();
  if (s.adversary == "mc_uniform") {
    return std::make_unique<McUniformSplitJammer>(Budget(s.budget), s.rate,
                                                  rng);
  }
  if (s.adversary == "mc_focus") {
    return std::make_unique<McFocusJammer>(Budget(s.budget), s.rate, 0, rng);
  }
  if (s.adversary == "mc_sweep") {
    // Dwell scales with q: q ~ 0 hops every slot, q ~ 1 parks for 64 slots.
    const auto dwell =
        static_cast<SlotCount>(1.0 + s.q * 63.0);
    return std::make_unique<McSweepJammer>(Budget(s.budget), dwell);
  }
  return nullptr;
}

namespace {

// The epoch cap run_scenario_trial derives from a non-zero
// max_epoch_extra: the protocol's first epoch plus the extra (for
// combined, the later of its two shards' caps).
std::uint64_t explicit_epoch_cap(const Scenario& s) {
  const std::uint64_t extra = s.max_epoch_extra;
  if (s.protocol == "broadcast" || s.protocol == "naive") {
    return BroadcastNParams::sim().first_epoch + extra;
  }
  const std::uint64_t ksy = KsyParams{}.first_epoch + extra;
  if (s.protocol == "ksy") return ksy;
  const std::uint64_t fig1 = OneToOneParams::sim(s.eps).first_epoch() + extra;
  return s.protocol == "combined" ? std::max(fig1, ksy) : fig1;
}

}  // namespace

std::string validate_scenario(const Scenario& s) {
  if (s.is_broadcast()) {
    if (!make_broadcast_adversary(s)) {
      return "unknown broadcast adversary '" + s.adversary + "'";
    }
    if (s.n < 1) return "n must be >= 1";
  } else if (s.is_duel()) {
    if (!make_duel_adversary(s)) {
      return "unknown 1-to-1 adversary '" + s.adversary + "'";
    }
  } else if (s.is_multichannel()) {
    if (!make_mc_adversary(s)) {
      return "unknown multi-channel adversary '" + s.adversary + "'";
    }
    if (s.n < 1) return "n must be >= 1";
  } else {
    return "unknown protocol '" + s.protocol + "'";
  }
  if (s.channels < 1) return "channels must be >= 1";
  if (s.channels > kMaxChannels) return "channels must be <= 64";
  if (s.channels > 1 && !s.is_multichannel()) {
    return "channels > 1 requires protocol mc_broadcast";
  }
  if (!(s.eps > 0.0 && s.eps < 1.0)) return "eps must be in (0, 1)";
  if (s.trials < 1) return "trials must be >= 1";
  if ((s.is_broadcast() || s.is_multichannel()) &&
      s.n > event_key::kMaxNodes) {
    return "n must be <= " + std::to_string(event_key::kMaxNodes);
  }
  // An explicit epoch cap must leave every phase runnable, or the trial
  // would abort on the engines' slot cap mid-sweep.  The default caps are
  // clamped to the last runnable epoch instead.
  if (s.max_epoch_extra > 0) {
    const std::uint32_t last = s.is_multichannel()
                                   ? mc_broadcast_max_epoch(s.channels)
                                   : event_key::kMaxPhaseEpoch;
    if (explicit_epoch_cap(s) > last) {
      return "max_epoch_extra " + std::to_string(s.max_epoch_extra) +
             " puts the epoch cap past epoch " + std::to_string(last) +
             ", the last whose phases fit the engines";
    }
  }
  // Battery mode exists only where BroadcastNParams does; accepting it
  // elsewhere would create scenarios whose digest differs but whose
  // execution is identical — a replay-identity trap.
  if (s.battery > 0 && s.protocol != "broadcast" && s.protocol != "naive") {
    return "battery requires protocol broadcast|naive";
  }
  // Catch out-of-range fault knobs here, where callers can print a clean
  // diagnostic, instead of letting the FaultPlan constructor's contract
  // abort trial 0.  Every FaultConfig double is a rate, fraction or factor
  // in [0, 1].
  std::string bad_rate;
  visit_fields([&]<typename C, typename T>(const char* key, T C::*field,
                                           Wire = Wire::kPlain) {
    if constexpr (std::is_same_v<C, FaultConfig> && std::is_same_v<T, double>) {
      const double v = s.faults.*field;
      if (bad_rate.empty() && !(v >= 0.0 && v <= 1.0)) {
        bad_rate = std::string(key) + " must be in [0, 1]";
      }
    }
  });
  return bad_rate;
}

TrialOutcome run_scenario_trial(const Scenario& s, std::uint64_t trial) {
  RCB_REQUIRE(validate_scenario(s).empty());
  // Attribute any contract failure inside this trial to (scenario, trial).
  ReproScope repro(s.seed, trial, scenario_to_json(s));

  Rng rng = Rng::stream(s.seed, trial);
  // Trial boundary: rewind this thread's engine arena so the trial's
  // scratch state replays from the same addresses.
  engine_workspace_begin_trial();
  FaultPlan faults(s.faults);
  FaultPlan* fp = faults.active() ? &faults : nullptr;

  TrialOutcome out;
  Digest dig;
  if (s.is_broadcast() || s.is_multichannel()) {
    BroadcastNResult r;
    if (s.is_multichannel()) {
      auto adv = make_mc_adversary(s, trial);
      OneToOneParams params = OneToOneParams::sim(s.eps);
      params.max_epoch = s.max_epoch_extra > 0
                             ? params.first_epoch() + s.max_epoch_extra
                             : mc_broadcast_max_epoch(s.channels);
      r = run_mc_broadcast(s.n, s.channels, params, *adv, rng, fp);
    } else if (s.protocol == "sqrt") {
      auto adv = make_broadcast_adversary(s);
      OneToOneParams params = OneToOneParams::sim(s.eps);
      if (s.max_epoch_extra > 0) {
        params.max_epoch = params.first_epoch() + s.max_epoch_extra;
      }
      r = run_sqrt_broadcast(s.n, params, *adv, rng, fp);
    } else {
      auto adv = make_broadcast_adversary(s);
      BroadcastNParams params = BroadcastNParams::sim();
      if (s.max_epoch_extra > 0) {
        params.max_epoch = params.first_epoch + s.max_epoch_extra;
      }
      params.node_energy_budget = s.battery;
      r = s.protocol == "broadcast"
              ? run_broadcast_n(s.n, params, *adv, rng, fp)
              : run_naive_broadcast(s.n, params, *adv, rng, fp);
    }
    out.max_cost = static_cast<double>(r.max_cost);
    out.mean_cost = r.mean_cost;
    out.adversary_cost = static_cast<double>(r.adversary_cost);
    out.latency = static_cast<double>(r.latency);
    out.success = r.all_informed;
    out.dead_count = r.dead_count;
    out.crashed_count = r.crashed_count;
    for (const BroadcastNodeOutcome& node : r.nodes) {
      dig.mix(static_cast<std::uint64_t>(node.final_status));
      dig.mix(node.informed);
      dig.mix(node.cost);
      dig.mix(node.final_S);
      dig.mix(node.n_estimate);
      dig.mix(static_cast<std::uint64_t>(node.informed_epoch));
      dig.mix(static_cast<std::uint64_t>(node.terminated_epoch));
    }
    dig.mix(static_cast<std::uint64_t>(r.final_epoch));
    dig.mix(static_cast<std::uint64_t>(r.informed_latency));
  } else {
    auto adv = make_duel_adversary(s);
    OneToOneResult r;
    if (s.protocol == "one_to_one") {
      OneToOneParams params = OneToOneParams::sim(s.eps);
      if (s.max_epoch_extra > 0) {
        params.max_epoch = params.first_epoch() + s.max_epoch_extra;
      }
      params.timeout_slots = s.timeout_slots;
      r = run_one_to_one(params, *adv, rng, fp);
    } else if (s.protocol == "ksy") {
      KsyParams params;
      if (s.max_epoch_extra > 0) {
        params.max_epoch = params.first_epoch + s.max_epoch_extra;
      }
      r = run_ksy(params, *adv, rng, fp);
    } else {
      CombinedParams params;
      params.fig1 = OneToOneParams::sim(s.eps);
      if (s.max_epoch_extra > 0) {
        params.fig1.max_epoch = params.fig1.first_epoch() + s.max_epoch_extra;
        params.ksy.max_epoch = params.ksy.first_epoch + s.max_epoch_extra;
      }
      params.timeout_slots = s.timeout_slots;
      r = run_combined(params, *adv, rng, fp);
    }
    out.max_cost = static_cast<double>(r.max_cost());
    out.mean_cost = static_cast<double>(r.alice_cost + r.bob_cost) / 2.0;
    out.adversary_cost = static_cast<double>(r.adversary_cost);
    out.latency = static_cast<double>(r.latency);
    out.success = r.delivered;
    out.aborted = r.aborted;
    dig.mix(r.alice_cost);
    dig.mix(r.bob_cost);
    dig.mix(r.alice_halted);
    dig.mix(r.bob_halted);
    dig.mix(r.hit_epoch_cap);
    dig.mix(static_cast<std::uint64_t>(r.final_epoch));
  }

  dig.mix(out.max_cost);
  dig.mix(out.mean_cost);
  dig.mix(out.adversary_cost);
  dig.mix(out.latency);
  dig.mix(out.success);
  dig.mix(out.aborted);
  dig.mix(out.dead_count);
  dig.mix(out.crashed_count);
  out.digest = dig.h;
  return out;
}

ReproParseResult repro_record_from_json(std::string_view text) {
  ReproParseResult r;
  // Tolerate the stderr framing: optional "RCB_REPRO " prefix, whitespace.
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t' ||
                           text.front() == '\n' || text.front() == '\r')) {
    text.remove_prefix(1);
  }
  constexpr std::string_view kPrefix = "RCB_REPRO ";
  if (text.substr(0, kPrefix.size()) == kPrefix) {
    text.remove_prefix(kPrefix.size());
  }

  const JsonParseResult parsed = json_parse(text);
  if (!parsed.ok) {
    r.error = "invalid JSON: " + parsed.error;
    return r;
  }
  const JsonValue& v = parsed.value;
  const JsonValue* marker = v.find("rcb_repro");
  if (marker == nullptr || !marker->is_number() ||
      marker->as_number() != 1.0) {
    r.error = "not an RCB repro record (missing rcb_repro:1)";
    return r;
  }

  ReproRecord& rec = r.record;
  if (const JsonValue* f = v.find("kind"); f != nullptr && f->is_string()) {
    rec.kind = f->as_string();
  }
  if (const JsonValue* f = v.find("expr"); f != nullptr && f->is_string()) {
    rec.expr = f->as_string();
  }
  if (const JsonValue* f = v.find("file"); f != nullptr && f->is_string()) {
    rec.file = f->as_string();
  }
  if (const JsonValue* f = v.find("line"); f != nullptr && f->is_number()) {
    std::uint64_t line = 0;
    if (!json_exact_u64(f->as_number(), line) ||
        line > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      r.error = "line: not an exact integer";
      return r;
    }
    rec.line = static_cast<int>(line);
  }
  if (const JsonValue* f = v.find("master_seed");
      f != nullptr && f->is_number()) {
    if (!json_exact_u64(f->as_number(), rec.master_seed)) {
      r.error = "master_seed: not an exact integer";
      return r;
    }
  }
  if (const JsonValue* f = v.find("trial"); f != nullptr && f->is_number()) {
    if (!json_exact_u64(f->as_number(), rec.trial)) {
      r.error = "trial: not an exact integer";
      return r;
    }
  }
  if (const JsonValue* f = v.find("scenario_digest");
      f != nullptr && f->is_string()) {
    if (!parse_hex_u64(f->as_string(), rec.scenario_digest)) {
      r.error = "scenario_digest: not a hex u64";
      return r;
    }
    rec.has_scenario_digest = true;
  }
  if (const JsonValue* f = v.find("scenario");
      f != nullptr && f->is_object()) {
    // Re-serialise the sub-object through the scenario codec; going via the
    // parsed DOM would need a JsonValue writer, and the record embeds the
    // scenario verbatim anyway, so reparsing the slice is exact.  Locate
    // the slice by decoding from the original text.
    const std::size_t pos = text.find("\"scenario\":");
    if (pos != std::string_view::npos) {
      std::string_view slice = text.substr(pos + 11);
      // The scenario object is the suffix minus the record's closing brace.
      std::size_t depth = 0;
      for (std::size_t i = 0; i < slice.size(); ++i) {
        if (slice[i] == '{') ++depth;
        if (slice[i] == '}') {
          if (--depth == 0) {
            slice = slice.substr(0, i + 1);
            break;
          }
        }
      }
      ScenarioParseResult sp = scenario_from_json(slice);
      if (!sp.ok) {
        r.error = "scenario: " + sp.error;
        return r;
      }
      rec.scenario = sp.scenario;
      rec.has_scenario = true;
    }
  }
  r.ok = true;
  return r;
}

}  // namespace rcb
