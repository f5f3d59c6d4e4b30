// Tests for the scenario-fuzzing harness: generator coverage and
// determinism, the scenario JSON round-trip property, oracle sensitivity
// (a tampered outcome must be caught), shrinker contracts, and the canary
// self-check end to end.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "rcb/runtime/scenario.hpp"
#include "rcb/testing/fuzzer.hpp"
#include "rcb/testing/oracles.hpp"
#include "rcb/testing/scenario_gen.hpp"
#include "rcb/testing/shrink.hpp"

namespace rcb {
namespace {

TEST(ScenarioGenTest, DeterministicAndValid) {
  for (std::uint64_t i = 0; i < 100; ++i) {
    const Scenario a = generate_scenario(7, i);
    const Scenario b = generate_scenario(7, i);
    EXPECT_EQ(scenario_to_json(a), scenario_to_json(b)) << "index " << i;
    EXPECT_EQ(validate_scenario(a), "") << "index " << i;
  }
}

TEST(ScenarioGenTest, DifferentSeedsDiverge) {
  int differ = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    if (scenario_to_json(generate_scenario(1, i)) !=
        scenario_to_json(generate_scenario(2, i))) {
      ++differ;
    }
  }
  EXPECT_GE(differ, 18);
}

TEST(ScenarioGenTest, CoversTheScenarioSpace) {
  std::set<std::string> protocols;
  std::set<std::string> adversaries;
  bool faults_on = false, faults_off = false;
  bool cca_on = false, battery_on = false, timeout_on = false;
  int default_caps = 0;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const Scenario s = generate_scenario(3, i);
    protocols.insert(s.protocol);
    adversaries.insert(s.adversary);
    const bool has_faults =
        s.faults.crash_rate > 0.0 || s.faults.loss_rate > 0.0 ||
        s.faults.corruption_rate > 0.0 || s.faults.clock_skew_rate > 0.0;
    faults_on |= has_faults;
    faults_off |= !has_faults;
    cca_on |= s.faults.cca_false_busy > 0.0;
    battery_on |= s.battery > 0;
    timeout_on |= s.timeout_slots > 0;
    // Only the default-cap axis keeps the default caps (epoch 34), and
    // it bounds itself: one trial of a duel whose planner is O(1) per
    // phase, with a budget that reaches the caps.
    if (s.max_epoch_extra == 0) {
      EXPECT_TRUE(s.is_duel()) << "index " << i;
      EXPECT_NE(s.adversary, "sym_random") << "index " << i;
      EXPECT_NE(s.adversary, "none") << "index " << i;
      EXPECT_EQ(s.trials, 1u) << "index " << i;
      EXPECT_GE(s.budget, Cost{1} << 37) << "index " << i;
      EXPECT_EQ(s.timeout_slots, 0u) << "index " << i;
      ++default_caps;
    } else if (s.adversary == "spoof") {
      // The spoofing adversary never lets Fig.1 halt on its own.
      EXPECT_GT(s.timeout_slots, 0u) << "index " << i;
    }
    // channels > 1 is an mc_broadcast-only knob.
    if (s.channels > 1) {
      EXPECT_EQ(s.protocol, "mc_broadcast") << "index " << i;
    }
  }
  EXPECT_EQ(protocols.size(), 7u);  // every protocol, mc_broadcast included
  EXPECT_GE(adversaries.size(), 12u);
  EXPECT_TRUE(faults_on);
  EXPECT_TRUE(faults_off);
  EXPECT_TRUE(cca_on);
  EXPECT_TRUE(battery_on);
  EXPECT_TRUE(timeout_on);
  EXPECT_GE(default_caps, 1);  // ~1.5% of cases
}

// Satellite: the multi-channel axis must land where its weights say — a
// material fraction of mc cases at the single-channel case C=1, the
// bulk at the small splits C=2/4, and a nonempty tail over 1..64.  All
// four mc adversaries must appear, and single-channel draws must be
// unaffected (mc scenarios disable the battery/timeout-only knobs).
TEST(ScenarioGenTest, MultichannelAxisDistribution) {
  std::size_t mc = 0, c1 = 0, c2 = 0, c4 = 0, tail = 0;
  std::set<std::string> mc_advs;
  for (std::uint64_t i = 0; i < 600; ++i) {
    const Scenario s = generate_scenario(29, i);
    if (!s.is_multichannel()) {
      EXPECT_EQ(s.channels, 1u) << "index " << i;
      continue;
    }
    ++mc;
    mc_advs.insert(s.adversary);
    EXPECT_GE(s.channels, 1u) << "index " << i;
    EXPECT_LE(s.channels, 64u) << "index " << i;
    EXPECT_EQ(s.battery, 0u) << "index " << i;
    EXPECT_EQ(s.timeout_slots, 0u) << "index " << i;
    if (s.channels == 1) ++c1;
    if (s.channels == 2) ++c2;
    if (s.channels == 4) ++c4;
    if (s.channels > 4) ++tail;
  }
  // ~25% of 600 cases; generous bounds so RNG drift never flakes this.
  EXPECT_GE(mc, 90u);
  EXPECT_LE(mc, 240u);
  EXPECT_GE(c1, mc / 8);
  EXPECT_GE(c2, mc / 8);
  EXPECT_GE(c4, mc / 10);
  EXPECT_GE(tail, 1u);
  EXPECT_EQ(mc_advs.size(), 4u);  // none|mc_uniform|mc_focus|mc_sweep
}

// Satellite: scenario JSON round-trip as a property test over the
// generator's output distribution — parse(emit(s)) re-emits byte-identical
// JSON with a stable digest.
TEST(ScenarioRoundTripProperty, ParseEmitParseIsByteIdentical) {
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Scenario s = generate_scenario(17, i);
    const std::string j1 = scenario_to_json(s);
    const ScenarioParseResult p1 = scenario_from_json(j1);
    ASSERT_TRUE(p1.ok) << p1.error << "\n" << j1;
    const std::string j2 = scenario_to_json(p1.scenario);
    EXPECT_EQ(j1, j2) << "index " << i;
    EXPECT_EQ(scenario_digest(s), scenario_digest(p1.scenario)) << "index "
                                                                << i;
    const ScenarioParseResult p2 = scenario_from_json(j2);
    ASSERT_TRUE(p2.ok);
    EXPECT_EQ(scenario_to_json(p2.scenario), j2) << "index " << i;
  }
}

// Satellite: the channels field round-trips through the codec, and C=1 is
// never serialised — every pre-multi-channel scenario keeps its canonical
// JSON (and therefore its digest, which repro records are keyed on).
TEST(ScenarioRoundTripProperty, ChannelsFieldRoundTrips) {
  for (const std::uint32_t c : {1u, 2u, 4u, 7u, 64u}) {
    Scenario s;
    s.protocol = "mc_broadcast";
    s.adversary = "mc_uniform";
    s.n = 8;
    s.trials = 2;
    s.channels = c;
    ASSERT_EQ(validate_scenario(s), "") << "channels=" << c;
    const std::string j1 = scenario_to_json(s);
    if (c == 1) {
      EXPECT_EQ(j1.find("\"channels\""), std::string::npos) << j1;
    } else {
      EXPECT_NE(j1.find("\"channels\":" + std::to_string(c)),
                std::string::npos)
          << j1;
    }
    const ScenarioParseResult p = scenario_from_json(j1);
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.scenario.channels, c);
    EXPECT_EQ(scenario_to_json(p.scenario), j1);
    EXPECT_EQ(scenario_digest(p.scenario), scenario_digest(s));
  }
}

// channels=0 (and other invalid combinations) must be rejected with a
// one-line diagnostic, not silently clamped.
TEST(ScenarioValidationTest, RejectsInvalidChannels) {
  Scenario s;
  s.protocol = "mc_broadcast";
  s.adversary = "mc_sweep";
  s.channels = 0;
  EXPECT_EQ(validate_scenario(s), "channels must be >= 1");
  s.channels = 65;
  EXPECT_EQ(validate_scenario(s), "channels must be <= 64");
  s.channels = 2;
  s.protocol = "broadcast";
  s.adversary = "suffix";
  EXPECT_EQ(validate_scenario(s),
            "channels > 1 requires protocol mc_broadcast");
  s.protocol = "mc_broadcast";
  s.adversary = "suffix";  // single-channel adversary on the mc protocol
  EXPECT_NE(validate_scenario(s), "");
}

TEST(OracleTest, GeneratedScenariosPass) {
  OracleOptions opt;
  opt.crosscheck_trials = 40;  // keep the unit test quick
  opt.metamorphic_trials = 8;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const Scenario s = generate_scenario(23, i);
    const std::vector<Violation> vs = check_scenario(s, opt);
    for (const Violation& v : vs) {
      ADD_FAILURE() << "index " << i << " oracle '" << v.oracle
                    << "': " << v.detail << "\n"
                    << scenario_to_json(s);
    }
  }
}

TEST(OracleTest, LedgerOracleCatchesAdversaryOverspend) {
  Scenario s = generate_scenario(23, 0);
  OracleOptions opt;
  opt.outcome_tamper = [](TrialOutcome& out) { out.adversary_cost += 1e9; };
  const std::vector<Violation> vs = check_scenario(s, opt);
  bool ledger_fired = false;
  for (const Violation& v : vs) ledger_fired |= v.oracle == "ledger";
  EXPECT_TRUE(ledger_fired);
}

TEST(OracleTest, DeterminismOracleCatchesUnstableDigest) {
  const Scenario s = generate_scenario(23, 1);
  OracleOptions opt;
  // Stateful tamper: every observed execution reports a different digest,
  // the signature of nondeterminism the oracle must flag.
  auto counter = std::make_shared<std::uint64_t>(0);
  opt.outcome_tamper = [counter](TrialOutcome& out) {
    out.digest += ++*counter;
  };
  const std::vector<Violation> vs = check_scenario(s, opt);
  bool determinism_fired = false;
  for (const Violation& v : vs) determinism_fired |= v.oracle == "determinism";
  EXPECT_TRUE(determinism_fired);
}

constexpr const char* kDuelPlanners[] = {"none",       "send_phase",
                                         "nack_phase", "full_duel",
                                         "both_views", "sym_random", "spoof"};

/// A duel whose budget never binds: three epochs past the first cannot
/// spend 2^20.
Scenario unbound_duel(const char* protocol, const char* adversary) {
  Scenario s;
  s.protocol = protocol;
  s.adversary = adversary;
  s.budget = Cost{1} << 20;
  s.q = 0.9;
  s.rate = 0.3;
  s.max_epoch_extra = 3;
  s.seed = 31;
  return s;
}

TEST(OracleTest, UnboundBudgetReplaysIdenticallyAtFourTimesIt) {
  // The budget-monotonicity oracle skips its 4x sample when no trial spent
  // its whole budget, because such a run replays bit-identically under any
  // larger budget.  Pin that for every duel planner.
  for (const char* adversary : kDuelPlanners) {
    double spent = 0.0;  // the spoofer never acts against KSY alone
    for (const char* protocol : {"one_to_one", "ksy", "combined"}) {
      const Scenario s = unbound_duel(protocol, adversary);
      Scenario hi = s;
      hi.budget = s.budget * 4;
      for (std::uint64_t t = 0; t < 12; ++t) {
        const TrialOutcome lo = run_scenario_trial(s, t);
        ASSERT_LT(lo.adversary_cost, static_cast<double>(s.budget))
            << protocol << "/" << adversary << " trial " << t;
        spent += lo.adversary_cost;
        EXPECT_EQ(run_scenario_trial(hi, t).digest, lo.digest)
            << protocol << "/" << adversary << " trial " << t;
      }
    }
    if (std::string(adversary) != "none") {
      EXPECT_GT(spent, 0.0) << adversary;
    }
  }
}

TEST(OracleTest, BudgetMonotonicityRunsTheFourTimesSampleOnlyWhenBound) {
  // Count the trials the oracles run: the 4x sample (metamorphic_trials
  // more) is drawn only when the budget bound some trial.
  const auto trials_run = [](const Scenario& s) {
    auto calls = std::make_shared<std::size_t>(0);
    OracleOptions opt;
    opt.outcome_tamper = [calls](TrialOutcome&) { ++*calls; };
    EXPECT_TRUE(check_scenario(s, opt).empty()) << scenario_to_json(s);
    return *calls;
  };
  Scenario unbound = unbound_duel("one_to_one", "full_duel");
  Scenario bound = unbound;
  bound.budget = 64;
  const OracleOptions defaults;
  EXPECT_EQ(trials_run(bound) - trials_run(unbound),
            defaults.metamorphic_trials);
}

TEST(ShrinkTest, ShrinksToFixedPointAndPreservesOracle) {
  Scenario s;
  s.protocol = "broadcast";
  s.adversary = "suffix";
  s.budget = 4096;
  s.n = 40;
  s.trials = 6;
  s.max_epoch_extra = 3;
  s.battery = 2000;
  s.faults.loss_rate = 0.2;
  // Synthetic oracle: fires as long as the protocol is broadcast — every
  // other dimension is noise the shrinker should strip.
  const auto check = [](const Scenario& c) {
    std::vector<Violation> vs;
    if (c.protocol == "broadcast") vs.push_back({"synthetic", "x"});
    return vs;
  };
  const ShrinkResult r = shrink_scenario(s, "synthetic", check, 100);
  EXPECT_LT(scenario_size(r.scenario), scenario_size(s) / 4);
  EXPECT_EQ(r.scenario.protocol, "broadcast");
  EXPECT_EQ(r.scenario.trials, 1u);
  EXPECT_EQ(r.scenario.n, 2u);
  EXPECT_EQ(r.scenario.battery, 0u);
  EXPECT_EQ(r.scenario.adversary, "none");
  EXPECT_EQ(validate_scenario(r.scenario), "");
  EXPECT_GT(r.evaluations, 0u);
}

TEST(ShrinkTest, NeverUnboundsASpoofingDuel) {
  Scenario s;
  s.protocol = "one_to_one";
  s.adversary = "spoof";
  s.budget = 2048;
  s.trials = 4;
  s.max_epoch_extra = 2;
  s.timeout_slots = 4096;
  const auto check = [](const Scenario& c) {
    std::vector<Violation> vs;
    if (c.adversary == "spoof") vs.push_back({"synthetic", "x"});
    return vs;
  };
  const ShrinkResult r = shrink_scenario(s, "synthetic", check, 100);
  EXPECT_EQ(r.scenario.adversary, "spoof");
  // The timeout is what keeps a spoofed Fig.1 run bounded; dropping it
  // would make the "minimized" scenario slower to replay than the original.
  EXPECT_GT(r.scenario.timeout_slots, 0u);
  EXPECT_LT(scenario_size(r.scenario), scenario_size(s));
}

TEST(ShrinkTest, RespectsEvaluationBudget) {
  Scenario s;
  s.protocol = "broadcast";
  s.n = 48;
  s.trials = 6;
  s.max_epoch_extra = 2;
  const auto check = [](const Scenario&) {
    return std::vector<Violation>{{"synthetic", "x"}};
  };
  const ShrinkResult r = shrink_scenario(s, "synthetic", check, 5);
  EXPECT_LE(r.evaluations, 5u);
}

// Satellite: the canary — a known ledger-accounting mutation must be
// detected AND shrunk to at most a quarter of the original scenario size.
TEST(CanaryTest, MutationIsCaughtAndShrunk) {
  FuzzOptions opt;
  opt.canary = true;
  const FuzzReport report = run_fuzz(opt);
  ASSERT_TRUE(report.canary_caught);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].oracle, "ledger");
  EXPECT_LE(report.canary_shrunk_size * 4, report.canary_original_size);
  EXPECT_TRUE(report.ok());
}

TEST(CanaryTest, CanaryFailureWritesAParseableReproRecord) {
  FuzzOptions opt;
  opt.canary = true;
  const FuzzReport report = run_fuzz(opt);
  ASSERT_EQ(report.failures.size(), 1u);
  const FuzzFailure& f = report.failures[0];
  const ReproParseResult parsed =
      repro_record_from_json(fuzz_repro_record(f.minimized, f.oracle, f.detail));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(scenario_digest(parsed.record.scenario),
            scenario_digest(f.minimized));
}

TEST(FuzzRecordTest, ReproRecordRoundTripsThroughParser) {
  const Scenario s = canary_scenario();
  const std::string record = fuzz_repro_record(s, "ledger", "overspend");
  const ReproParseResult parsed = repro_record_from_json(record);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_TRUE(parsed.record.has_scenario);
  EXPECT_EQ(scenario_to_json(parsed.record.scenario), scenario_to_json(s));
  ASSERT_TRUE(parsed.record.has_scenario_digest);
  EXPECT_EQ(parsed.record.scenario_digest, scenario_digest(s));
  EXPECT_EQ(parsed.record.master_seed, s.seed);
  EXPECT_EQ(parsed.record.trial, 0u);
}

TEST(FuzzSweepTest, SmallSweepIsCleanAndDeterministic) {
  FuzzOptions opt;
  opt.seed = 5;
  opt.cases = 10;
  const FuzzReport a = run_fuzz(opt);
  EXPECT_EQ(a.cases_run, 10u);
  EXPECT_TRUE(a.failures.empty());
  const FuzzReport b = run_fuzz(opt);
  EXPECT_EQ(b.failures.size(), a.failures.size());
}

}  // namespace
}  // namespace rcb
