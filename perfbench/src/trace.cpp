#include "trace.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>

#include "rcb/adversary/slot_adversary.hpp"
#include "rcb/adversary/strategies.hpp"
#include "rcb/adversary/two_uniform.hpp"
#include "rcb/common/contracts.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/protocols/broadcast_engine.hpp"
#include "rcb/protocols/mc_broadcast.hpp"
#include "rcb/protocols/one_to_one.hpp"
#include "rcb/sim/engine_workspace.hpp"
#include "rcb/sim/faults.hpp"
#include "rcb/sim/repetition_engine.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::mutex g_fsync_mutex;
std::vector<Interval> g_fsyncs;

}  // namespace

std::vector<Interval> fsync_log() {
  std::lock_guard<std::mutex> lock(g_fsync_mutex);
  return g_fsyncs;
}

void clear_fsync_log() {
  std::lock_guard<std::mutex> lock(g_fsync_mutex);
  g_fsyncs.clear();
}

std::int64_t timer_overhead_ns() {
  static const std::int64_t cost = [] {
    constexpr int kSpans = 20000;
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (int round = 0; round < 5; ++round) {
      std::int64_t total = 0;
      for (int i = 0; i < kSpans; ++i) {
        const std::int64_t t0 = now_ns();
        total += now_ns() - t0;
      }
      best = std::min(best, total / kSpans);
    }
    return best;
  }();
  return cost;
}

void LayerCounters::add(const LayerCounters& o) {
  trials += o.trials;
  retries += o.retries;
  trial_ns += o.trial_ns;
  protocol_ns += o.protocol_ns;
  repetitions += o.repetitions;
  plan_calls += o.plan_calls;
  plan_ns += o.plan_ns;
  mask_calls += o.mask_calls;
  mask_timed += o.mask_timed;
  mask_timed_ns += o.mask_timed_ns;
  mask_control += o.mask_control;
  mask_control_ns += o.mask_control_ns;
  bulk_calls += o.bulk_calls;
  bulk_answered += o.bulk_answered;
  bulk_slots += o.bulk_slots;
  bulk_slots_answered += o.bulk_slots_answered;
  bulk_timed += o.bulk_timed;
  bulk_timed_ns += o.bulk_timed_ns;
  bulk_control += o.bulk_control;
  bulk_control_ns += o.bulk_control_ns;
  sim_calls += o.sim_calls;
  sim_slots += o.sim_slots;
  sim_events += o.sim_events;
  sim_replay_ns += o.sim_replay_ns;
  probe_ns += o.probe_ns;
  clock_ns += o.clock_ns;
  replay_mismatches += o.replay_mismatches;
}

void RecorderData::merge(const RecorderData& other) {
  std::uint32_t offset = 0;
  for (const Span& s : spans) offset = std::max(offset, s.thread + 1);
  for (Span s : other.spans) {
    s.thread += offset;
    spans.push_back(s);
  }
  if (other.first_start_ns != 0 &&
      (first_start_ns == 0 || other.first_start_ns < first_start_ns)) {
    first_start_ns = other.first_start_ns;
    setup_fsyncs = other.setup_fsyncs;
  }
  counters.add(other.counters);
  windows.insert(windows.end(), other.windows.begin(), other.windows.end());
}

bool layers_supported(const rcb::Scenario& s) {
  return (s.protocol == "broadcast" || s.protocol == "mc_broadcast" ||
          s.protocol == "one_to_one") &&
         !rcb::FaultPlan(s.faults).active();
}

namespace {

constexpr std::int64_t kMaskSample = 64;
constexpr std::int64_t kBulkSample = 8;
/// A sampled call that took longer than its cap was descheduled or
/// interrupted mid-call, and one such sample, scaled by the sampling period,
/// would swamp the estimate: it is dropped from the sample.  Real calls stay
/// far below the caps: jam_mask draws for at most 64 channels, and
/// jam_run_masks costs a few ns per slot and channel offered.
constexpr std::int64_t kMaskCapNs = 20'000;
constexpr std::int64_t kBulkCapNs = 20'000;
constexpr std::int64_t kBulkCapPerCellNs = 50;

/// What a sampled call site does for one call.  About one call number in
/// `period` (a power of two) is timed; as many others get an empty control
/// span at the same site just before the call, which measures what the
/// clock pair itself adds there.  The pick hashes the call number, so a
/// cost pattern that repeats with the slot structure (hop blocks, phases)
/// cannot alias with the sample.
enum class Sample { kNone, kTimed, kControl };

Sample pick(std::int64_t call, std::int64_t period) {
  const std::uint64_t h =
      static_cast<std::uint64_t>(call) * 0x9E3779B97F4A7C15ull;
  const std::uint64_t r = (h >> 40) % static_cast<std::uint64_t>(period);
  return r == 0 ? Sample::kTimed : r == 1 ? Sample::kControl : Sample::kNone;
}

/// Adds one empty clock span to a control sample unless it ran past `cap`.
void control_span(std::int64_t cap, std::int64_t& control_ns,
                  std::int64_t& control) {
  const std::int64_t t0 = now_ns();
  const std::int64_t ns = now_ns() - t0;
  if (ns <= cap) {
    control_ns += ns;
    ++control;
  }
}

/// Forwards exactly like the supervisor's default runner: attempt 0 runs
/// run_scenario_trial(s, trial); retries reseed via reseed_for_attempt.
rcb::TrialOutcome forward_trial(const rcb::Scenario& s, std::uint64_t trial,
                                std::uint32_t attempt) {
  if (attempt == 0) return rcb::run_scenario_trial(s, trial);
  rcb::Scenario reseeded = s;
  reseeded.seed = rcb::reseed_for_attempt(s.seed, attempt);
  return rcb::run_scenario_trial(reseeded, trial);
}

// FNV-1a over the trial observables, mixed in the same order as
// run_scenario_trial so the replica's digest is comparable.
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

bool inactive(rcb::BroadcastStatus s) {
  return s == rcb::BroadcastStatus::kTerminated ||
         s == rcb::BroadcastStatus::kDead ||
         s == rcb::BroadcastStatus::kCrashed;
}

/// Times every plan() of the Fig. 2 engine and captures what a replay of
/// the repetition needs: the jam schedule, the Rng right after plan(), the
/// node actions step() is about to build, and each node's cost so far.
class CapturingRepetitionAdversary final : public rcb::RepetitionAdversary {
 public:
  struct Capture {
    rcb::SlotCount num_slots = 0;
    rcb::JamSchedule jam = rcb::JamSchedule::none();
    rcb::Rng rng;
    std::vector<rcb::NodeAction> actions;
    std::vector<rcb::Cost> cost_before;
  };

  CapturingRepetitionAdversary(rcb::RepetitionAdversary& inner,
                               const rcb::BroadcastNEngine& engine,
                               LayerCounters& c)
      : rcb::RepetitionAdversary(inner.budget()),
        inner_(inner),
        engine_(engine),
        c_(c) {}

  rcb::JamSchedule plan(const rcb::RepetitionContext& ctx,
                        rcb::Rng& rng) override {
    const std::int64_t t0 = now_ns();
    rcb::JamSchedule jam = inner_.plan(ctx, rng);
    const std::int64_t t1 = now_ns();
    const std::int64_t overhead = timer_overhead_ns();
    c_.plan_ns += std::max<std::int64_t>(t1 - t0 - overhead, 0);
    c_.clock_ns += 2 * overhead;
    ++c_.plan_calls;

    // Mirrors the action construction in BroadcastNEngine::step; the
    // replay's cost check proves the mirror right.
    Capture& cap = capture_.emplace();
    cap.num_slots = ctx.num_slots;
    cap.jam = jam;
    cap.rng = rng;
    const auto& nodes = engine_.nodes();
    const rcb::BroadcastNParams& params = engine_.params();
    const double slots = static_cast<double>(ctx.num_slots);
    const double lf = params.listen_factor(ctx.epoch);
    cap.actions.resize(nodes.size());
    cap.cost_before.resize(nodes.size());
    for (std::size_t u = 0; u < nodes.size(); ++u) {
      const rcb::BroadcastNodeState& node = nodes[u];
      cap.cost_before[u] = node.cost;
      if (inactive(node.status)) {
        cap.actions[u] = rcb::NodeAction{};
        continue;
      }
      const bool knows_m = node.status != rcb::BroadcastStatus::kUninformed;
      cap.actions[u] = rcb::NodeAction{
          rcb::clamp_probability(node.S / slots),
          knows_m ? rcb::Payload::kMessage : rcb::Payload::kNoise,
          rcb::clamp_probability(node.S * lf / slots)};
    }
    c_.probe_ns += now_ns() - t1;
    return jam;
  }

  /// Replays the captured repetition (after step() returned) and checks
  /// that it charged every node exactly the cost step() charged.
  void replay_last() {
    if (!capture_) return;
    Capture& cap = *capture_;
    const std::int64_t t0 = now_ns();
    const rcb::RepetitionResult rep =
        rcb::run_repetition(cap.num_slots, cap.actions, cap.jam, cap.rng,
                            nullptr, engine_.params().cca, nullptr);
    const std::int64_t t1 = now_ns();
    c_.sim_replay_ns += t1 - t0;
    ++c_.sim_calls;
    c_.sim_slots += static_cast<std::int64_t>(cap.num_slots);
    const auto& nodes = engine_.nodes();
    for (std::size_t u = 0; u < nodes.size(); ++u) {
      const rcb::Cost charged = rep.obs[u].sends + rep.obs[u].listens;
      c_.sim_events += static_cast<std::int64_t>(charged);
      if (nodes[u].cost - cap.cost_before[u] != charged) {
        ++c_.replay_mismatches;
      }
    }
    capture_.reset();
    c_.probe_ns += now_ns() - t1;
  }

 private:
  rcb::RepetitionAdversary& inner_;
  const rcb::BroadcastNEngine& engine_;
  LayerCounters& c_;
  std::optional<Capture> capture_;
};

/// Times every plan() of the Fig. 1 duel.
class TimedDuelAdversary final : public rcb::DuelAdversary {
 public:
  TimedDuelAdversary(rcb::DuelAdversary& inner, LayerCounters& c)
      : rcb::DuelAdversary(inner.budget()), inner_(inner), c_(c) {}

  rcb::DuelPlan plan(const rcb::DuelPhaseContext& ctx,
                     rcb::Rng& rng) override {
    const std::int64_t t0 = now_ns();
    rcb::DuelPlan p = inner_.plan(ctx, rng);
    const std::int64_t t1 = now_ns();
    const std::int64_t overhead = timer_overhead_ns();
    c_.plan_ns += std::max<std::int64_t>(t1 - t0 - overhead, 0);
    c_.clock_ns += 2 * overhead;
    ++c_.plan_calls;
    return p;
  }

 private:
  rcb::DuelAdversary& inner_;
  LayerCounters& c_;
};

/// Counts every per-slot and bulk consultation of a multi-channel
/// adversary but clocks only about one call in kMaskSample (kBulkSample
/// for bulk), with as many control spans (see Sample): a clock pair around
/// each of the millions of jam_mask calls would cost more than the calls
/// themselves.
class SampledMcAdversary final : public rcb::McSlotAdversary {
 public:
  SampledMcAdversary(rcb::McSlotAdversary& inner, LayerCounters& c)
      : inner_(inner), c_(c) {}

  std::uint64_t jam_mask(rcb::SlotIndex slot, std::uint32_t num_channels,
                         std::span<const rcb::McSlotActivity> history)
      override {
    const Sample sample = pick(++c_.mask_calls, kMaskSample);
    if (sample == Sample::kControl) {
      control_span(kMaskCapNs, c_.mask_control_ns, c_.mask_control);
    }
    if (sample != Sample::kTimed) {
      return inner_.jam_mask(slot, num_channels, history);
    }
    const std::int64_t t0 = now_ns();
    const std::uint64_t mask = inner_.jam_mask(slot, num_channels, history);
    const std::int64_t ns = now_ns() - t0;
    if (ns <= kMaskCapNs) {
      c_.mask_timed_ns += ns;
      ++c_.mask_timed;
    }
    return mask;
  }

  bool jam_run_masks(rcb::SlotIndex begin, rcb::SlotIndex end,
                     std::uint32_t num_channels,
                     std::span<const rcb::McSlotActivity> history,
                     rcb::McJamRunSink& sink) override {
    const Sample sample = pick(++c_.bulk_calls, kBulkSample);
    if (sample == Sample::kControl) {
      control_span(kBulkCapNs, c_.bulk_control_ns, c_.bulk_control);
    }
    const bool timed = sample == Sample::kTimed;
    const std::int64_t t0 = timed ? now_ns() : 0;
    const bool answered =
        inner_.jam_run_masks(begin, end, num_channels, history, sink);
    const auto slots = static_cast<std::int64_t>(end - begin);
    if (timed) {
      const std::int64_t ns = now_ns() - t0;
      if (ns <= kBulkCapNs + kBulkCapPerCellNs * slots * num_channels) {
        c_.bulk_timed_ns += ns;
        ++c_.bulk_timed;
      }
    }
    c_.bulk_slots += slots;
    if (answered) {
      ++c_.bulk_answered;
      c_.bulk_slots_answered += slots;
    }
    return answered;
  }

  rcb::SlotCount history_window() const override {
    return inner_.history_window();
  }

 private:
  rcb::McSlotAdversary& inner_;
  LayerCounters& c_;
};

/// Stand-in for the decorator calibration: the cheapest possible jam_mask.
class ConstantMcAdversary final : public rcb::McSlotAdversary {
 public:
  std::uint64_t jam_mask(rcb::SlotIndex slot, std::uint32_t,
                         std::span<const rcb::McSlotActivity>) override {
    return slot & 1u;
  }
};

/// Hides `a` from the optimiser so that calls through it stay virtual.
rcb::McSlotAdversary* opaque(rcb::McSlotAdversary* a) {
  asm volatile("" : "+r"(a));
  return a;
}

/// Nanoseconds for `calls` jam_mask calls through `a`.
std::int64_t time_masks(rcb::McSlotAdversary* a, std::int64_t calls) {
  std::uint64_t sink = 0;
  const std::int64_t t0 = now_ns();
  for (std::int64_t i = 0; i < calls; ++i) {
    sink += opaque(a)->jam_mask(static_cast<rcb::SlotIndex>(i), 1, {});
  }
  const std::int64_t ns = now_ns() - t0;
  asm volatile("" : : "r"(sink));
  return ns;
}

void mix_broadcast(const rcb::BroadcastNResult& r, rcb::TrialOutcome& out,
                   Digest& dig) {
  out.max_cost = static_cast<double>(r.max_cost);
  out.mean_cost = r.mean_cost;
  out.adversary_cost = static_cast<double>(r.adversary_cost);
  out.latency = static_cast<double>(r.latency);
  out.success = r.all_informed;
  out.dead_count = r.dead_count;
  out.crashed_count = r.crashed_count;
  for (const rcb::BroadcastNodeOutcome& node : r.nodes) {
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
}

/// Replica of run_scenario_trial for the traced protocols, with the
/// adversary wrapped in a timing decorator.  `protocol_ns` receives the
/// span of the protocol call that run_scenario_trial wraps (including any
/// trace-only work inside it, which the caller nets out).
rcb::TrialOutcome layered_trial(const rcb::Scenario& s, std::uint64_t trial,
                                LayerCounters& c,
                                std::int64_t& protocol_ns) {
  RCB_REQUIRE(rcb::validate_scenario(s).empty());
  rcb::ReproScope repro(s.seed, trial, rcb::scenario_to_json(s));
  rcb::Rng rng = rcb::Rng::stream(s.seed, trial);
  rcb::engine_workspace_begin_trial();
  rcb::FaultPlan faults(s.faults);
  RCB_REQUIRE(!faults.active());

  rcb::TrialOutcome out;
  Digest dig;
  if (s.protocol == "broadcast") {
    auto adv = rcb::make_broadcast_adversary(s);
    rcb::BroadcastNParams params = rcb::BroadcastNParams::sim();
    if (s.max_epoch_extra > 0) {
      params.max_epoch = params.first_epoch + s.max_epoch_extra;
    }
    params.node_energy_budget = s.battery;
    const std::int64_t t0 = now_ns();
    rcb::BroadcastNEngine engine(s.n, params, nullptr);
    CapturingRepetitionAdversary timed(*adv, engine, c);
    bool more = true;
    while (more) {
      more = engine.step(timed, rng);
      ++c.repetitions;
      timed.replay_last();
    }
    const rcb::BroadcastNResult r = engine.result();
    protocol_ns = now_ns() - t0;
    mix_broadcast(r, out, dig);
  } else if (s.protocol == "mc_broadcast") {
    auto adv = rcb::make_mc_adversary(s, trial);
    SampledMcAdversary sampled(*adv, c);
    rcb::OneToOneParams params = rcb::OneToOneParams::sim(s.eps);
    if (s.max_epoch_extra > 0) {
      params.max_epoch = params.first_epoch() + s.max_epoch_extra;
    }
    const std::int64_t t0 = now_ns();
    const rcb::BroadcastNResult r =
        rcb::run_mc_broadcast(s.n, s.channels, params, sampled, rng, nullptr);
    protocol_ns = now_ns() - t0;
    ++c.sim_calls;
    c.sim_slots += static_cast<std::int64_t>(r.latency);
    for (const rcb::BroadcastNodeOutcome& node : r.nodes) {
      c.sim_events += static_cast<std::int64_t>(node.cost);
    }
    mix_broadcast(r, out, dig);
  } else if (s.protocol == "one_to_one") {
    auto adv = rcb::make_duel_adversary(s);
    TimedDuelAdversary timed(*adv, c);
    rcb::OneToOneParams params = rcb::OneToOneParams::sim(s.eps);
    if (s.max_epoch_extra > 0) {
      params.max_epoch = params.first_epoch() + s.max_epoch_extra;
    }
    params.timeout_slots = s.timeout_slots;
    const std::int64_t t0 = now_ns();
    const rcb::OneToOneResult r =
        rcb::run_one_to_one(params, timed, rng, nullptr);
    protocol_ns = now_ns() - t0;
    ++c.sim_calls;
    c.sim_slots += static_cast<std::int64_t>(r.latency);
    c.sim_events += static_cast<std::int64_t>(r.alice_cost + r.bob_cost);
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
  } else {
    throw std::runtime_error("layered trace does not cover protocol " +
                             s.protocol);
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

}  // namespace

double decorator_overhead_ns() {
  static const double cost = [] {
    constexpr std::int64_t kCalls = 1 << 20;
    ConstantMcAdversary inner;
    double best = std::numeric_limits<double>::max();
    for (int round = 0; round < 5; ++round) {
      LayerCounters c;
      SampledMcAdversary wrapped(inner, c);
      const std::int64_t direct = time_masks(&inner, kCalls);
      const std::int64_t through = time_masks(&wrapped, kCalls);
      // The sampled calls' clocks are charged apart: two control spans each.
      const double clocks =
          c.mask_control == 0
              ? 0.0
              : 2.0 * static_cast<double>(c.mask_control_ns) /
                    static_cast<double>(c.mask_control) *
                    static_cast<double>(c.mask_timed + c.mask_control);
      best = std::min(best, (static_cast<double>(through - direct) - clocks) /
                                static_cast<double>(kCalls));
    }
    return std::max(best, 0.0);
  }();
  return cost;
}

std::uint64_t Recorder::next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

Recorder::ThreadLog& Recorder::local() {
  thread_local std::uint64_t generation = 0;
  thread_local ThreadLog* log = nullptr;
  if (generation != generation_) {
    std::lock_guard<std::mutex> lock(mutex_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->id = static_cast<std::uint32_t>(logs_.size() - 1);
    generation = generation_;
  }
  return *log;
}

rcb::TrialRunner Recorder::runner() {
  return [this](const rcb::Scenario& s, std::uint64_t trial,
                std::uint32_t attempt) {
    const std::int64_t t0 = now_ns();
    if (first_start_.load(std::memory_order_relaxed) == 0) {
      std::int64_t expected = 0;
      first_start_.compare_exchange_strong(expected, t0);
    }
    if (mode_ == TraceMode::kFirstStart) {
      return forward_trial(s, trial, attempt);
    }
    ThreadLog& log = local();
    if (mode_ == TraceMode::kSpans) {
      rcb::TrialOutcome out = forward_trial(s, trial, attempt);
      log.spans.push_back({t0, now_ns(), log.id});
      return out;
    }
    LayerCounters& c = log.counters;
    const std::int64_t extra_before = c.probe_ns + c.sim_replay_ns;
    rcb::Scenario reseeded;
    const rcb::Scenario* run = &s;
    if (attempt > 0) {
      reseeded = s;
      reseeded.seed = rcb::reseed_for_attempt(s.seed, attempt);
      run = &reseeded;
      ++c.retries;
    }
    std::int64_t protocol_ns = 0;
    rcb::TrialOutcome out = layered_trial(*run, trial, c, protocol_ns);
    const std::int64_t t1 = now_ns();
    const std::int64_t extra = c.probe_ns + c.sim_replay_ns - extra_before;
    ++c.trials;
    c.trial_ns += t1 - t0 - extra;
    c.protocol_ns += protocol_ns - extra;
    log.spans.push_back({t0, t1, log.id});
    return out;
  };
}

RecorderData Recorder::data(std::int64_t threads) const {
  RecorderData d;
  d.first_start_ns = first_start_.load();
  for (const Interval& iv : fsync_log()) {
    if (iv.end_ns <= d.first_start_ns) d.setup_fsyncs.push_back(iv);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& log : logs_) {
    d.spans.insert(d.spans.end(), log->spans.begin(), log->spans.end());
    d.counters.add(log->counters);
  }
  if (!d.spans.empty()) {
    RecorderData::Window w{d.spans.front().start_ns, d.spans.front().end_ns,
                           threads};
    for (const Span& s : d.spans) {
      w.begin_ns = std::min(w.begin_ns, s.start_ns);
      w.end_ns = std::max(w.end_ns, s.end_ns);
    }
    d.windows.push_back(w);
  }
  return d;
}

bool dump_recorder(const RecorderData& d, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::uint64_t n_spans = d.spans.size();
  const std::uint64_t n_windows = d.windows.size();
  const std::uint64_t n_fsyncs = d.setup_fsyncs.size();
  bool ok =
      std::fwrite(&d.first_start_ns, sizeof d.first_start_ns, 1, f) == 1 &&
      std::fwrite(&d.peak_rss_kb, sizeof d.peak_rss_kb, 1, f) == 1 &&
      std::fwrite(&d.counters, sizeof d.counters, 1, f) == 1 &&
      std::fwrite(&n_spans, sizeof n_spans, 1, f) == 1 &&
      std::fwrite(&n_windows, sizeof n_windows, 1, f) == 1 &&
      std::fwrite(&n_fsyncs, sizeof n_fsyncs, 1, f) == 1;
  if (ok && n_spans > 0) {
    ok = std::fwrite(d.spans.data(), sizeof(Span), n_spans, f) == n_spans;
  }
  if (ok && n_windows > 0) {
    ok = std::fwrite(d.windows.data(), sizeof(RecorderData::Window),
                     n_windows, f) == n_windows;
  }
  if (ok && n_fsyncs > 0) {
    ok = std::fwrite(d.setup_fsyncs.data(), sizeof(Interval), n_fsyncs, f) ==
         n_fsyncs;
  }
  return std::fclose(f) == 0 && ok;
}

bool load_recorder(const std::string& path, RecorderData& d) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::uint64_t n_spans = 0;
  std::uint64_t n_windows = 0;
  std::uint64_t n_fsyncs = 0;
  bool ok = std::fread(&d.first_start_ns, sizeof d.first_start_ns, 1, f) == 1 &&
            std::fread(&d.peak_rss_kb, sizeof d.peak_rss_kb, 1, f) == 1 &&
            std::fread(&d.counters, sizeof d.counters, 1, f) == 1 &&
            std::fread(&n_spans, sizeof n_spans, 1, f) == 1 &&
            std::fread(&n_windows, sizeof n_windows, 1, f) == 1 &&
            std::fread(&n_fsyncs, sizeof n_fsyncs, 1, f) == 1 &&
            n_spans < (1ull << 32) && n_windows < (1ull << 20) &&
            n_fsyncs < (1ull << 20);
  if (ok) {
    d.spans.resize(n_spans);
    d.windows.resize(n_windows);
    d.setup_fsyncs.resize(n_fsyncs);
    ok = std::fread(d.spans.data(), sizeof(Span), n_spans, f) == n_spans &&
         std::fread(d.windows.data(), sizeof(RecorderData::Window), n_windows,
                    f) == n_windows &&
         std::fread(d.setup_fsyncs.data(), sizeof(Interval), n_fsyncs, f) ==
             n_fsyncs;
  }
  std::fclose(f);
  return ok;
}

}  // namespace perfbench

// Target of -Wl,--wrap=fsync (see perfbench/CMakeLists.txt): times the real
// fsync and logs its wall interval, leaving errno as the call set it.
extern "C" int __real_fsync(int fd);
extern "C" int __wrap_fsync(int fd) {
  const std::int64_t begin = perfbench::now_ns();
  const int rc = __real_fsync(fd);
  const int saved_errno = errno;
  const std::int64_t end = perfbench::now_ns();
  {
    std::lock_guard<std::mutex> lock(perfbench::g_fsync_mutex);
    perfbench::g_fsyncs.push_back({begin, end});
  }
  errno = saved_errno;
  return rc;
}
