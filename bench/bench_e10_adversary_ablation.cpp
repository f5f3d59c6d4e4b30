// E10 — adversary ablation and the Lemma 1 check.
//
// (a) Budget-for-budget comparison of 1-uniform jamming strategies against
//     the Fig. 2 broadcast: which strategy extracts the most node cost per
//     unit of adversary energy?  The Lemma-1 canonical suffix blocker
//     should dominate.
// (b) Lemma 1 empirically: within a single phase, a genuinely reactive
//     slot-by-slot adversary blocks delivery no better than a committed
//     suffix jammer of the same budget.
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "rcb/adversary/mc_strategies.hpp"
#include "rcb/protocols/broadcast_n.hpp"
#include "rcb/runtime/montecarlo.hpp"
#include "rcb/sim/mc_slot_engine.hpp"

namespace rcb {
namespace {

// ---- (a) strategy ablation -------------------------------------------------

struct Outcome {
  double mean_cost = 0, t = 0;
  bool informed = false;
};

template <typename MakeAdv>
Outcome measure(MakeAdv make_adv, std::uint64_t seed) {
  const BroadcastNParams params = BroadcastNParams::sim();
  auto samples = run_trials<Outcome>(12, seed, [&](std::size_t, Rng& rng) {
    auto adv = make_adv();
    const auto r = run_broadcast_n(32, params, *adv, rng);
    return Outcome{r.mean_cost, static_cast<double>(r.adversary_cost),
                   r.all_informed};
  });
  Outcome acc;
  int informed = 0;
  for (const auto& s : samples) {
    acc.mean_cost += s.mean_cost;
    acc.t += s.t;
    informed += s.informed;
  }
  const auto count = static_cast<double>(samples.size());
  acc.mean_cost /= count;
  acc.t /= count;
  acc.informed = informed == 12;
  return acc;
}

// ---- (b) Lemma 1: reactive vs suffix within one phase ----------------------

/// Reactive adversary: starts jamming permanently the moment it first
/// observes a transmission, until the budget runs out.  This is the most
/// aggressive causal response available to a 1-uniform adversary.
class TriggerHappy final : public McSlotAdversary {
 public:
  explicit TriggerHappy(Cost budget) : budget_(budget) {}
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity> history) override {
    if (!triggered_ && !history.empty() && history.back().senders > 0) {
      triggered_ = true;
    }
    if (!triggered_ || budget_ == 0) return 0;
    --budget_;
    return 1;
  }
  bool jam_run_masks(SlotIndex begin, SlotIndex end, std::uint32_t,
                     std::span<const McSlotActivity> history,
                     McJamRunSink& sink) override {
    // The trigger can only fire on the run's first slot (later run slots
    // look back at silence); once triggered, jam until the budget is dry.
    if (!triggered_ && !history.empty() && history.back().senders > 0) {
      triggered_ = true;
    }
    const SlotCount len = end - begin;
    const SlotCount jams = triggered_ ? std::min<SlotCount>(budget_, len) : 0;
    sink.append(jams, 1);
    sink.append(len - jams, 0);
    budget_ -= jams;
    return true;
  }
  SlotCount history_window() const override { return 1; }

 private:
  Cost budget_;
  bool triggered_ = false;
};

/// Uniform random jamming of the same expected size.
class RandomSlotAdversary final : public McSlotAdversary {
 public:
  RandomSlotAdversary(SlotCount num_slots, Cost budget, Rng& rng)
      : rate_(static_cast<double>(budget) / static_cast<double>(num_slots)),
        rng_(&rng) {}
  std::uint64_t jam_mask(SlotIndex, std::uint32_t,
                         std::span<const McSlotActivity>) override {
    return rng_->bernoulli(rate_) ? 1 : 0;
  }
  SlotCount history_window() const override { return 0; }

 private:
  double rate_;
  Rng* rng_;
};

double blocked_fraction(int which, Cost jam_budget, std::uint64_t seed) {
  const SlotCount slots = 1024;
  const double p = 0.08;  // Fig.1-style send/listen probability
  std::vector<NodeAction> actions = {NodeAction{p, Payload::kMessage, 0.0},
                                     NodeAction{0.0, Payload::kNoise, p}};
  auto samples = run_trials<bool>(600, seed, [&](std::size_t, Rng& rng) {
    std::unique_ptr<McSlotAdversary> adv;
    switch (which) {
      case 0:  // committed suffix of the same size at the end of the phase
        adv = std::make_unique<McScheduleAdversary>(std::vector{
            JamSchedule::suffix(slots, slots > jam_budget ? slots - jam_budget
                                                          : 0)});
        break;
      case 1:
        adv = std::make_unique<TriggerHappy>(jam_budget);
        break;
      default:
        adv = std::make_unique<RandomSlotAdversary>(slots, jam_budget, rng);
        break;
    }
    const auto r = run_repetition_slotwise_mc(slots, actions,
                                              ChannelPlan{1, {}}, *adv, rng);
    return r.rep.obs[1].messages == 0;  // delivery blocked?
  });
  int blocked = 0;
  for (bool b : samples) blocked += b;
  return blocked / 600.0;
}

void run() {
  bench::print_header("E10",
                      "Adversary ablation + Lemma 1 (suffix is WLOG optimal)");

  std::cout << "\n(a) strategy ablation: Fig.2 broadcast, n=32, budget 2^17, "
               "12 trials.  'damage' = extra mean node cost over the no-jam "
               "baseline, per unit of adversary spend.\n\n";
  const Outcome baseline =
      measure([] { return std::make_unique<NoJamAdversary>(); }, 97000);
  std::printf("no-jam baseline mean node cost: %.0f\n\n", baseline.mean_cost);

  Table ta({"strategy", "T spent", "mean node cost", "damage per adv unit",
            "all informed"});
  const Cost B = Cost{1} << 17;
  auto add = [&](const char* name, const Outcome& o) {
    const double extra = std::max(0.0, o.mean_cost - baseline.mean_cost);
    ta.add_row({name, Table::num(o.t), Table::num(o.mean_cost),
                Table::num(extra / std::max(1.0, o.t), 6),
                o.informed ? "yes" : "NO"});
  };
  add("suffix q=0.9 (Lemma 1)", measure([&] {
        return std::make_unique<SuffixBlockerAdversary>(Budget(B), 0.9);
      },
      97001));
  // With clear-baseline beta = 1/4 the growth-stalling threshold is
  // q = 1 - beta = 0.75: the cheapest rate that still blocks repetitions.
  add("suffix q=0.75 (critical)", measure([&] {
        return std::make_unique<SuffixBlockerAdversary>(Budget(B), 0.75);
      },
      97007));
  add("suffix q=0.2 (sub-critical)", measure([&] {
        return std::make_unique<SuffixBlockerAdversary>(Budget(B), 0.2);
      },
      97002));
  add("suffix q=1.0", measure([&] {
        return std::make_unique<SuffixBlockerAdversary>(Budget(B), 1.0);
      },
      97003));
  add("epoch-fraction 50% of reps", measure([&] {
        return std::make_unique<EpochFractionBlockerAdversary>(Budget(B), 0.5,
                                                               0.5);
      },
      97004));
  add("random rate 0.5", measure([&] {
        return std::make_unique<RandomJammerAdversary>(Budget(B), 0.5);
      },
      97005));
  add("burst 8/16", measure([&] {
        return std::make_unique<BurstJammerAdversary>(Budget(B), 8, 16);
      },
      97006));
  ta.print(std::cout);

  std::cout << "\n(b) Lemma 1: P(block delivery) within one 1024-slot phase, "
               "600 trials, sender/listener p=0.08\n\n";
  Table tb({"jam budget", "suffix (committed)", "reactive (adaptive)",
            "random"});
  for (Cost jb : {Cost{256}, Cost{512}, Cost{768}, Cost{960}}) {
    tb.add_row({Table::num(static_cast<double>(jb)),
                Table::num(blocked_fraction(0, jb, 98000 + jb), 3),
                Table::num(blocked_fraction(1, jb, 98100 + jb), 3),
                Table::num(blocked_fraction(2, jb, 98200 + jb), 3)});
  }
  tb.print(std::cout);
  std::cout << "\nExpected: (a) blocking-rate attacks (q >= 0.75) and "
               "hearing-poisoning attacks (random/burst) both inflict "
               "damage; sub-critical suffix jamming is wasted energy. "
               "(b) reactive never beats the committed suffix (Lemma 1); "
               "random is no stronger.\n";
}

}  // namespace
}  // namespace rcb

int main() {
  rcb::run();
  return 0;
}
