#include "rcb/testing/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "rcb/adversary/mc_strategies.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/protocols/one_to_one.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/sim/channel_plan.hpp"
#include "rcb/sim/jam_schedule.hpp"
#include "rcb/sim/mc_slot_engine.hpp"
#include "rcb/sim/repetition_engine.hpp"
#include "rcb/stats/rank_test.hpp"

namespace rcb {
namespace {

// Stream salt for the engine-profile RNG, distinct from both the trial
// streams and the scenario generator's salt.
constexpr std::uint64_t kProfileSalt = 0x0bacc1e5u;

/// Collector shared by all oracles of one check_scenario call.
struct Report {
  std::vector<Violation> violations;

  std::ostringstream& add(const char* oracle) {
    violations.push_back({oracle, {}});
    stream.str({});
    stream.clear();
    return stream;
  }
  void commit() { violations.back().detail = stream.str(); }

  std::ostringstream stream;
};

TrialOutcome run_outcome(const Scenario& s, std::uint64_t trial,
                         const OracleOptions& opt) {
  TrialOutcome out = run_scenario_trial(s, trial);
  if (opt.outcome_tamper) opt.outcome_tamper(out);
  return out;
}

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

// ---------------------------------------------------------------------------
// Oracle (a): digest determinism, and (b) outcome-level ledger accounting.

void check_outcomes(const Scenario& s, const OracleOptions& opt, Report& rep) {
  const std::size_t examined = std::min(s.trials, opt.trials_cap);
  for (std::size_t t = 0; t < examined; ++t) {
    const TrialOutcome a = run_outcome(s, t, opt);
    const TrialOutcome b = run_outcome(s, t, opt);
    if (a.digest != b.digest) {
      rep.add("determinism")
          << "trial " << t << " digests differ: " << to_hex16(a.digest)
          << " vs " << to_hex16(b.digest);
      rep.commit();
    }

    if (!finite_nonneg(a.max_cost) || !finite_nonneg(a.mean_cost) ||
        !finite_nonneg(a.adversary_cost) || !finite_nonneg(a.latency)) {
      rep.add("ledger") << "trial " << t
                        << " has a negative or non-finite cost/latency";
      rep.commit();
      continue;  // the remaining arithmetic checks would be meaningless
    }
    // mean over nodes can exceed no node's max; allow fp rounding slack.
    if (a.mean_cost > a.max_cost * (1.0 + 1e-9) + 1e-9) {
      rep.add("ledger") << "trial " << t << " mean_cost " << a.mean_cost
                        << " exceeds max_cost " << a.max_cost;
      rep.commit();
    }
    // Budget accounting: Budget::take saturates, so no strategy may ever
    // report spend beyond T.
    if (a.adversary_cost > static_cast<double>(s.budget)) {
      rep.add("ledger") << "trial " << t << " adversary spent "
                        << a.adversary_cost << " of budget " << s.budget;
      rep.commit();
    }
    if (s.is_broadcast() || s.is_multichannel()) {
      if (a.dead_count + a.crashed_count > s.n) {
        rep.add("ledger") << "trial " << t << " dead+crashed "
                          << a.dead_count + a.crashed_count << " exceeds n="
                          << s.n;
        rep.commit();
      }
      if (a.dead_count > 0 && s.battery == 0) {
        rep.add("ledger") << "trial " << t
                          << " reports battery deaths with battery=0";
        rep.commit();
      }
      if (a.crashed_count > 0 && s.faults.crash_rate == 0.0) {
        rep.add("ledger") << "trial " << t
                          << " reports crashed nodes with crash_rate=0";
        rep.commit();
      }
      if (a.aborted) {
        rep.add("ledger") << "trial " << t
                          << " reports aborted for a broadcast protocol";
        rep.commit();
      }
    } else {
      if (a.dead_count != 0 || a.crashed_count != 0) {
        rep.add("ledger") << "trial " << t
                          << " reports fleet counters for a 1-to-1 protocol";
        rep.commit();
      }
      if (a.aborted && s.timeout_slots == 0) {
        rep.add("ledger") << "trial " << t
                          << " aborted without a timeout configured";
        rep.commit();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle (c): event-driven vs dense slotwise crosscheck on an action
// profile derived from the scenario, plus engine-level conservation.

struct EngineProfile {
  SlotCount slots = 256;
  std::vector<NodeAction> actions;
  CcaModel cca;
  bool randomness_free = false;
  /// Channel count (> 1 only for mc scenarios), hop sequences for every
  /// node when channels > 1, and one committed jam schedule per channel
  /// (the Lemma-1 normal form; deterministic, so both engines must charge
  /// identical jams).
  std::uint32_t channels = 1;
  std::vector<ChannelHop> hops;
  std::vector<JamSchedule> jam;

  ChannelPlan plan() const {
    return ChannelPlan{channels, {hops.data(), hops.size()}};
  }
};

/// Derives the engine workload from the scenario: node count from the
/// fleet, probabilities from a dedicated deterministic stream, jam
/// fractions from q, CCA drift from the fault config.  Scenarios whose seed
/// is 0 mod 4 get a randomness-free profile (all probabilities in {0,1},
/// drift off), where the two engines must agree bit-for-bit.
EngineProfile derive_profile(const Scenario& s) {
  EngineProfile prof;
  Rng rng = Rng::stream(s.seed ^ kProfileSalt, 1);
  const std::size_t nodes = s.is_broadcast() || s.is_multichannel()
                                ? 2 + static_cast<std::size_t>(s.n) % 4
                                : 3;
  prof.randomness_free = s.seed % 4 == 0;
  for (std::size_t u = 0; u < nodes; ++u) {
    NodeAction a;
    // Every payload kind, so a collision's last sender in node order is
    // often a decodable one: a sweep that misses the collision hears it.
    a.payload = static_cast<Payload>(u % 3);
    if (prof.randomness_free) {
      a.send_prob = rng.bernoulli(0.4) ? 1.0 : 0.0;
      a.listen_prob = a.send_prob == 0.0 && rng.bernoulli(0.7) ? 1.0 : 0.0;
    } else {
      a.send_prob = 0.5 * rng.uniform_double();
      a.listen_prob = rng.uniform_double();
    }
    prof.actions.push_back(a);
  }
  if (!prof.randomness_free) {
    prof.cca = CcaModel{s.faults.cca_false_busy, s.faults.cca_missed_detection};
  }
  // Per-node hop sequences for multi-channel scenarios, and one committed
  // schedule per channel: fractions fan out from s.q so channels differ,
  // and a single channel is jammed at exactly s.q.
  prof.channels = s.is_multichannel() ? s.channels : 1;
  if (prof.channels > 1) {
    for (std::size_t u = 0; u < nodes; ++u) {
      prof.hops.push_back(ChannelHop{
          static_cast<std::uint32_t>(rng.uniform_u64(prof.channels)),
          static_cast<std::uint32_t>(rng.uniform_u64(prof.channels))});
    }
  }
  for (std::uint32_t c = 0; c < prof.channels; ++c) {
    const double qc = s.q * static_cast<double>(c + 1) /
                      static_cast<double>(prof.channels);
    prof.jam.push_back(JamSchedule::blocking_fraction(prof.slots, qc));
  }
  return prof;
}

bool obs_equal(const NodeObservation& a, const NodeObservation& b) {
  return a.sends == b.sends && a.listens == b.listens && a.clear == b.clear &&
         a.messages == b.messages && a.nacks == b.nacks &&
         a.noise == b.noise && a.first_message_slot == b.first_message_slot &&
         a.listens_until_first_message == b.listens_until_first_message;
}

/// Engine-level conservation: the per-(slot, channel) charges must equal
/// the committed schedules' totals, and what one node did must add up,
/// slot by slot.
void check_conservation(const char* engine, const EngineProfile& prof,
                        const McSlotwiseResult& r, Report& rep) {
  Cost want_charges = 0;
  SlotCount want_jammed_slots = 0;
  for (const JamSchedule& js : prof.jam) {
    want_charges += js.jammed_count();
  }
  for (SlotIndex slot = 0; slot < prof.slots; ++slot) {
    for (const JamSchedule& js : prof.jam) {
      if (js.is_jammed(slot)) {
        ++want_jammed_slots;
        break;
      }
    }
  }
  if (r.jam_charges != want_charges) {
    rep.add("ledger") << engine << " engine charged " << r.jam_charges
                      << " (slot, channel) pairs; the committed schedules "
                      << "have " << want_charges;
    rep.commit();
  }
  if (r.jammed_slots != want_jammed_slots) {
    rep.add("ledger") << engine << " engine counted " << r.jammed_slots
                      << " jammed slots; the committed schedules cover "
                      << want_jammed_slots;
    rep.commit();
  }
  for (std::size_t u = 0; u < r.rep.obs.size(); ++u) {
    const NodeObservation& o = r.rep.obs[u];
    const bool ok = o.sends + o.listens <= prof.slots &&
                    o.heard_total() == o.listens &&
                    o.listens_until_first_message <= o.listens &&
                    (o.first_message_slot == kNoSlot ||
                     o.first_message_slot < prof.slots);
    if (!ok) {
      rep.add("ledger") << engine << " engine node " << u
                        << " violates observation conservation (sends="
                        << o.sends << " listens=" << o.listens
                        << " heard=" << o.heard_total() << " slots="
                        << prof.slots << ")";
      rep.commit();
    }
  }
}

/// At C = 1 the batch engine presamples through the event engine's kernel
/// and resolves listeners in the same key order, so run on the same stream
/// it must reproduce the event engine's run `ev` exactly, down to the
/// stream position `ev_rng` was left at.
void check_batch_engine(const Scenario& s, const EngineProfile& prof,
                        const FaultConfig& fault_cfg, std::uint64_t stream,
                        const McSlotwiseResult& ev, const Rng& ev_rng,
                        Report& rep) {
  if (prof.channels != 1) return;
  FaultPlan faults(fault_cfg);
  Rng rng = Rng::stream(s.seed ^ kProfileSalt, stream);
  const RepetitionResult batch =
      run_repetition(prof.slots, prof.actions, prof.jam[0], rng, nullptr,
                     prof.cca, faults.active() ? &faults : nullptr);
  for (std::size_t u = 0; u < prof.actions.size(); ++u) {
    if (!obs_equal(batch.obs[u], ev.rep.obs[u])) {
      rep.add("crosscheck") << "C=1 profile, stream " << stream << ": node "
                            << u << " differs between the batch and event "
                            << "engines";
      rep.commit();
    }
  }
  if (rng.state() != ev_rng.state()) {
    rep.add("crosscheck") << "C=1 profile, stream " << stream
                          << ": the batch and event engines leave the Rng "
                          << "at different positions";
    rep.commit();
  }
}

void check_engines(const Scenario& s, const OracleOptions& opt, double alpha,
                   Report& rep) {
  const EngineProfile prof = derive_profile(s);
  FaultConfig fault_cfg = s.faults;
  if (prof.randomness_free) fault_cfg = FaultConfig{};  // keep it exact

  const auto run_engine = [&](bool dense, std::uint64_t stream) {
    FaultPlan faults(fault_cfg);
    FaultPlan* fp = faults.active() ? &faults : nullptr;
    McScheduleAdversary adv(prof.jam);
    Rng rng = Rng::stream(s.seed ^ kProfileSalt, stream);
    const ChannelPlan plan = prof.plan();
    McSlotwiseResult r =
        dense ? run_repetition_slotwise_mc_dense(prof.slots, prof.actions,
                                                 plan, adv, rng, prof.cca, fp)
              : run_repetition_slotwise_mc(prof.slots, prof.actions, plan,
                                           adv, rng, prof.cca, fp);
    if (!dense) check_batch_engine(s, prof, fault_cfg, stream, r, rng, rep);
    return r;
  };

  if (prof.randomness_free) {
    const McSlotwiseResult ev = run_engine(false, 2);
    const McSlotwiseResult dn = run_engine(true, 3);
    check_conservation("event", prof, ev, rep);
    check_conservation("dense", prof, dn, rep);
    for (std::size_t u = 0; u < prof.actions.size(); ++u) {
      if (!obs_equal(ev.rep.obs[u], dn.rep.obs[u])) {
        rep.add("crosscheck")
            << "randomness-free profile: node " << u
            << " differs between the event and dense engines";
        rep.commit();
      }
    }
    return;
  }

  // Statistical mode: per-run energy and reception totals from each
  // engine; identical per-slot marginals imply identical distributions.
  std::vector<double> energy[2], heard[2];
  for (std::size_t k = 0; k < opt.crosscheck_trials; ++k) {
    for (int dense = 0; dense < 2; ++dense) {
      const std::uint64_t stream =
          10 + 2 * k + static_cast<std::uint64_t>(dense);
      const McSlotwiseResult r = run_engine(dense == 1, stream);
      if (k == 0) {
        check_conservation(dense == 1 ? "dense" : "event", prof, r, rep);
      }
      double e = 0.0, h = 0.0;
      for (const NodeObservation& o : r.rep.obs) {
        e += static_cast<double>(o.sends + o.listens);
        h += static_cast<double>(o.messages + o.nacks + o.noise);
      }
      energy[dense].push_back(e);
      heard[dense].push_back(h);
    }
  }
  if (rank_gate_rejects(energy[0], energy[1], alpha)) {
    rep.add("crosscheck") << "per-run energy totals differ between engines "
                          << "(Mann-Whitney at alpha=" << alpha << ")";
    rep.commit();
  }
  if (rank_gate_rejects(heard[0], heard[1], alpha)) {
    rep.add("crosscheck") << "per-run reception totals differ between "
                          << "engines (Mann-Whitney at alpha=" << alpha << ")";
    rep.commit();
  }
}

// ---------------------------------------------------------------------------
// Oracle (d): metamorphic monotonicity.

void check_eps_monotonicity(const Scenario& s, Report& rep) {
  // Deterministic: Fig.1's per-slot probability, halting threshold, and
  // first-epoch index are all derived from ln(8/eps) — a larger eps can
  // only lower them.  This pins the parameter plumbing the E9 sweep rests
  // on, for every scenario (the params are protocol-independent math).
  const double eps_hi = std::min(0.5, s.eps * 4.0);
  const OneToOneParams lo = OneToOneParams::sim(s.eps);
  const OneToOneParams hi = OneToOneParams::sim(eps_hi);
  if (hi.first_epoch() > lo.first_epoch()) {
    rep.add("metamorphic") << "larger eps raised first_epoch: " << s.eps
                           << " -> " << lo.first_epoch() << ", " << eps_hi
                           << " -> " << hi.first_epoch();
    rep.commit();
  }
  const std::uint32_t start = std::max(lo.first_epoch(), hi.first_epoch());
  for (std::uint32_t epoch = start; epoch < start + 3; ++epoch) {
    const double tol = 1e-12;
    if (hi.slot_probability(epoch) > lo.slot_probability(epoch) + tol ||
        hi.halt_threshold(epoch) > lo.halt_threshold(epoch) + tol) {
      rep.add("metamorphic")
          << "larger eps increased a cost threshold at epoch " << epoch;
      rep.commit();
    }
  }
}

void check_budget_monotonicity(const Scenario& s, const OracleOptions& opt,
                               double alpha, Report& rep) {
  // More adversary budget never *decreases* 1-to-1 delivery latency: every
  // unit of T is spent delaying the duel, so latency is stochastically
  // non-decreasing in T.  (The naive broadcast baseline genuinely violates
  // the analogue — the §3.1 halving attack makes it halt early — so the
  // oracle is scoped to the duel protocols where the relation is a
  // theorem-backed invariant.)
  if (!s.is_duel() || s.adversary == "none" || s.budget < 64) return;
  std::vector<double> lat_lo, lat_hi;
  bool binds = false;
  for (std::size_t t = 0; t < opt.metamorphic_trials; ++t) {
    const TrialOutcome o = run_outcome(s, t, opt);
    lat_lo.push_back(o.latency);
    binds = binds || o.adversary_cost >= static_cast<double>(s.budget);
  }
  // A trial that spent less than its budget had every Budget::take granted
  // in full and never saw exhausted(); a duel planner reads its budget only
  // through those two (DuelAdversary), so at 4x the budget the sample
  // would replay the same runs.  Skip the comparison then: it is vacuous.
  if (!binds) return;
  Scenario hi = s;
  hi.budget = s.budget * 4;
  for (std::size_t t = 0; t < opt.metamorphic_trials; ++t) {
    lat_hi.push_back(run_outcome(hi, t, opt).latency);
  }
  if (rank_gate_rejects(lat_hi, lat_lo, alpha, /*xs_smaller_suspect=*/true)) {
    rep.add("metamorphic")
        << "quadrupling the adversary budget significantly DECREASED "
        << "latency (one-sided Mann-Whitney at alpha=" << alpha << ")";
    rep.commit();
  }
}

}  // namespace

std::vector<Violation> check_scenario(const Scenario& s,
                                      const OracleOptions& opt) {
  Report rep;
  const std::string invalid = validate_scenario(s);
  if (!invalid.empty()) {
    rep.add("generator") << "invalid scenario: " << invalid;
    rep.commit();
    return rep.violations;
  }

  // Count this scenario's statistical comparisons up front so every gate
  // shares one Bonferroni-corrected level.
  const bool stat_crosscheck = s.seed % 4 != 0;
  const bool budget_mono =
      s.is_duel() && s.adversary != "none" && s.budget >= 64;
  const std::size_t comparisons =
      (stat_crosscheck ? 2 : 0) + (budget_mono ? 1 : 0);
  const double alpha =
      bonferroni_alpha(opt.family_alpha, std::max<std::size_t>(1, comparisons));

  check_outcomes(s, opt, rep);
  check_engines(s, opt, alpha, rep);
  check_eps_monotonicity(s, rep);
  if (budget_mono) check_budget_monotonicity(s, opt, alpha, rep);
  return rep.violations;
}

}  // namespace rcb
