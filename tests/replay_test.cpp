// Tests for the crash-repro loop: scenario JSON round-trip, repro-record
// parsing, and bit-identical replay of a trial named by a contract-failure
// record.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rcb/common/contracts.hpp"
#include "rcb/common/mathutil.hpp"
#include "rcb/runtime/scenario.hpp"
#include "rcb/sim/faults.hpp"

namespace rcb {
namespace {

Scenario make_faulty_scenario() {
  Scenario s;
  s.protocol = "broadcast";
  s.adversary = "suffix";
  s.budget = 1 << 14;
  s.q = 0.8;
  s.rate = 0.25;
  s.n = 12;
  s.eps = 0.02;
  s.trials = 4;
  s.seed = 2026;
  s.timeout_slots = 0;
  s.faults.seed = 99;
  s.faults.crash_rate = 0.001;
  s.faults.restart_rate = 0.002;
  s.faults.crash_fraction = 0.5;
  s.faults.loss_rate = 0.05;
  s.faults.corruption_rate = 0.01;
  s.faults.clock_skew_rate = 0.02;
  s.faults.brownout_slot = 5000;
  s.faults.brownout_fraction = 0.3;
  s.faults.brownout_factor = 0.4;
  s.faults.cca_false_busy = 0.03;
  s.faults.cca_missed_detection = 0.02;
  s.faults.cca_ramp_slots = 256;
  return s;
}

TEST(ScenarioJsonTest, RoundTripsEveryField) {
  const Scenario s = make_faulty_scenario();
  const std::string json = scenario_to_json(s);
  const ScenarioParseResult parsed = scenario_from_json(json);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const Scenario& r = parsed.scenario;

  EXPECT_EQ(r.protocol, s.protocol);
  EXPECT_EQ(r.adversary, s.adversary);
  EXPECT_EQ(r.budget, s.budget);
  EXPECT_EQ(r.q, s.q);
  EXPECT_EQ(r.rate, s.rate);
  EXPECT_EQ(r.n, s.n);
  EXPECT_EQ(r.eps, s.eps);
  EXPECT_EQ(r.trials, s.trials);
  EXPECT_EQ(r.seed, s.seed);
  EXPECT_EQ(r.max_epoch_extra, s.max_epoch_extra);
  EXPECT_EQ(r.timeout_slots, s.timeout_slots);
  EXPECT_EQ(r.faults.seed, s.faults.seed);
  EXPECT_EQ(r.faults.crash_rate, s.faults.crash_rate);
  EXPECT_EQ(r.faults.restart_rate, s.faults.restart_rate);
  EXPECT_EQ(r.faults.crash_fraction, s.faults.crash_fraction);
  EXPECT_EQ(r.faults.loss_rate, s.faults.loss_rate);
  EXPECT_EQ(r.faults.corruption_rate, s.faults.corruption_rate);
  EXPECT_EQ(r.faults.clock_skew_rate, s.faults.clock_skew_rate);
  EXPECT_EQ(r.faults.brownout_slot, s.faults.brownout_slot);
  EXPECT_EQ(r.faults.brownout_fraction, s.faults.brownout_fraction);
  EXPECT_EQ(r.faults.brownout_factor, s.faults.brownout_factor);
  EXPECT_EQ(r.faults.cca_false_busy, s.faults.cca_false_busy);
  EXPECT_EQ(r.faults.cca_missed_detection, s.faults.cca_missed_detection);
  EXPECT_EQ(r.faults.cca_ramp_slots, s.faults.cca_ramp_slots);

  // And the round-trip is a fixed point of the codec.
  EXPECT_EQ(scenario_to_json(r), json);
}

/// Renders `s` on a new thread, whose scenario_to_json memo is empty.
std::string fresh_render(const Scenario& s) {
  std::string json;
  std::thread([&] { json = scenario_to_json(s); }).join();
  return json;
}

TEST(ScenarioJsonTest, MemoMatchesFreshRender) {
  // Each perturbation changes one field of a scenario this thread has just
  // rendered; the memo must miss and render what an empty memo renders.
  // Dropping a field from the memo's comparison fails its row.
  Scenario base = make_faulty_scenario();
  base.q = 0.0;
  const std::vector<std::pair<const char*, std::function<void(Scenario&)>>>
      perturbations = {
          {"protocol", [](Scenario& s) { s.protocol = "naive"; }},
          {"adversary", [](Scenario& s) { s.adversary = "random"; }},
          {"budget", [](Scenario& s) { s.budget += 1; }},
          {"q", [](Scenario& s) { s.q = 0.5; }},
          {"q sign", [](Scenario& s) { s.q = -0.0; }},
          {"rate", [](Scenario& s) { s.rate = 0.5; }},
          {"n", [](Scenario& s) { s.n += 1; }},
          {"eps", [](Scenario& s) { s.eps = 0.03; }},
          {"trials", [](Scenario& s) { s.trials += 1; }},
          {"seed", [](Scenario& s) { s.seed += 1; }},
          {"max_epoch_extra", [](Scenario& s) { s.max_epoch_extra = 2; }},
          {"timeout_slots", [](Scenario& s) { s.timeout_slots = 2048; }},
          {"battery", [](Scenario& s) { s.battery = 100; }},
          {"channels", [](Scenario& s) { s.channels = 2; }},
          {"faults.seed", [](Scenario& s) { s.faults.seed += 1; }},
          {"faults.crash_rate", [](Scenario& s) { s.faults.crash_rate = 0.5; }},
          {"faults.restart_rate",
           [](Scenario& s) { s.faults.restart_rate = 0.5; }},
          {"faults.crash_fraction",
           [](Scenario& s) { s.faults.crash_fraction = 0.25; }},
          {"faults.loss_rate", [](Scenario& s) { s.faults.loss_rate = 0.5; }},
          {"faults.corruption_rate",
           [](Scenario& s) { s.faults.corruption_rate = 0.5; }},
          {"faults.clock_skew_rate",
           [](Scenario& s) { s.faults.clock_skew_rate = 0.5; }},
          {"faults.brownout_slot",
           [](Scenario& s) { s.faults.brownout_slot = kNoSlot; }},
          {"faults.brownout_fraction",
           [](Scenario& s) { s.faults.brownout_fraction = 0.5; }},
          {"faults.brownout_factor",
           [](Scenario& s) { s.faults.brownout_factor = 0.25; }},
          {"faults.cca_false_busy",
           [](Scenario& s) { s.faults.cca_false_busy = 0.5; }},
          {"faults.cca_missed_detection",
           [](Scenario& s) { s.faults.cca_missed_detection = 0.5; }},
          {"faults.cca_ramp_slots",
           [](Scenario& s) { s.faults.cca_ramp_slots += 1; }},
      };
  const std::string base_json = fresh_render(base);
  for (const auto& [field, perturb] : perturbations) {
    Scenario changed = base;
    perturb(changed);
    const std::string want = fresh_render(changed);
    ASSERT_NE(want, base_json) << field << " does not reach the JSON";
    EXPECT_EQ(scenario_to_json(base), base_json) << field;
    EXPECT_EQ(scenario_to_json(changed), want) << field;
    EXPECT_EQ(scenario_to_json(changed), want) << field << " (memo hit)";
  }
}

TEST(ScenarioJsonTest, DefaultBrownoutSlotSurvivesRoundTrip) {
  Scenario s;  // brownout_slot defaults to the kNoSlot sentinel
  const ScenarioParseResult parsed = scenario_from_json(scenario_to_json(s));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.scenario.faults.brownout_slot, kNoSlot);
}

TEST(ScenarioJsonTest, AbsentKeysKeepDefaults) {
  const ScenarioParseResult parsed =
      scenario_from_json(R"({"protocol":"ksy","seed":7})");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.scenario.protocol, "ksy");
  EXPECT_EQ(parsed.scenario.seed, 7u);
  EXPECT_EQ(parsed.scenario.budget, Scenario{}.budget);
  EXPECT_FALSE(parsed.scenario.faults.any_active());
}

TEST(ScenarioJsonTest, RejectsUnknownKeys) {
  EXPECT_FALSE(scenario_from_json(R"({"protocol":"ksy","bogus":1})").ok);
  EXPECT_FALSE(
      scenario_from_json(R"({"faults":{"crash_rate":0.1,"bogus":1}})").ok);
}

TEST(ScenarioJsonTest, RejectsWrongTypes) {
  EXPECT_FALSE(scenario_from_json(R"({"protocol":5})").ok);
  EXPECT_FALSE(scenario_from_json(R"({"seed":"seven"})").ok);
  EXPECT_FALSE(scenario_from_json(R"({"faults":[1,2]})").ok);
  EXPECT_FALSE(scenario_from_json("[1,2,3]").ok);
  EXPECT_FALSE(scenario_from_json("not json").ok);
}

TEST(ScenarioJsonTest, RejectsOutOfRangeIntegers) {
  // Doubles cannot represent every u64 above 2^53; the codec must refuse
  // rather than silently round the seed of a repro record.
  EXPECT_FALSE(scenario_from_json(R"({"seed":-3})").ok);
  EXPECT_FALSE(scenario_from_json(R"({"seed":18446744073709551615})").ok);
  EXPECT_FALSE(scenario_from_json(R"({"n":1.5})").ok);
}

TEST(ReproRecordTest, ParsesWithAndWithoutPrefix) {
  const std::string body =
      R"({"rcb_repro":1,"kind":"assertion","expr":"x > 0",)"
      R"("file":"foo.cpp","line":12,"master_seed":5,"trial":3,)"
      R"("scenario":)" +
      scenario_to_json(make_faulty_scenario()) + "}";

  for (const std::string& text :
       {body, "RCB_REPRO " + body, "  " + body + "\n"}) {
    const ReproParseResult r = repro_record_from_json(text);
    ASSERT_TRUE(r.ok) << r.error << " for: " << text;
    EXPECT_EQ(r.record.kind, "assertion");
    EXPECT_EQ(r.record.expr, "x > 0");
    EXPECT_EQ(r.record.file, "foo.cpp");
    EXPECT_EQ(r.record.line, 12);
    EXPECT_EQ(r.record.master_seed, 5u);
    EXPECT_EQ(r.record.trial, 3u);
    ASSERT_TRUE(r.record.has_scenario);
    EXPECT_EQ(r.record.scenario.protocol, "broadcast");
    EXPECT_EQ(r.record.scenario.faults.crash_rate, 0.001);
  }
}

TEST(ReproRecordTest, ParsesScenarioDigest) {
  const Scenario s = make_faulty_scenario();
  const std::string body =
      R"({"rcb_repro":1,"kind":"assertion","expr":"x","file":"f","line":1,)"
      R"("master_seed":5,"trial":3,"scenario_digest":")" +
      to_hex16(scenario_digest(s)) + R"(","scenario":)" + scenario_to_json(s) +
      "}";
  const ReproParseResult r = repro_record_from_json(body);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.record.has_scenario_digest);
  EXPECT_EQ(r.record.scenario_digest, scenario_digest(s));
  // An authentic record's digest matches its embedded scenario; editing the
  // scenario breaks the match — the check rcb_replay enforces (exit 3).
  ASSERT_TRUE(r.record.has_scenario);
  EXPECT_EQ(scenario_digest(r.record.scenario), r.record.scenario_digest);
  Scenario edited = r.record.scenario;
  edited.budget += 1;
  EXPECT_NE(scenario_digest(edited), r.record.scenario_digest);
}

TEST(ReproRecordTest, RejectsMalformedScenarioDigest) {
  EXPECT_FALSE(repro_record_from_json(
                   R"({"rcb_repro":1,"kind":"a","expr":"x","file":"f",)"
                   R"("line":1,"scenario_digest":"not-hex"})")
                   .ok);
}

TEST(ReproRecordTest, RejectsLineNoIntHolds) {
  // Converting 1e30 to int was undefined behaviour.
  for (const char* line : {"1e30", "-1", "2.5", "4294967296"}) {
    SCOPED_TRACE(line);
    const ReproParseResult r = repro_record_from_json(
        std::string(R"({"rcb_repro":1,"kind":"a","expr":"x","file":"f",)") +
        "\"line\":" + line + "}");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "line: not an exact integer");
  }
}

TEST(ReproRecordTest, FormattedRecordEmbedsScenarioDigest) {
  // format_repro_record with a scenario-bearing context stamps the digest,
  // and the record round-trips through the parser.
  const Scenario s = make_faulty_scenario();
  ReproContext ctx;
  ctx.master_seed = s.seed;
  ctx.trial = 2;
  ctx.scenario_json = scenario_to_json(s);
  const std::string record =
      format_repro_record("timeout", "stuck", "runner.cpp", 0, &ctx);
  const ReproParseResult r = repro_record_from_json(record);
  ASSERT_TRUE(r.ok) << r.error << "\nrecord: " << record;
  EXPECT_EQ(r.record.kind, "timeout");
  EXPECT_EQ(r.record.trial, 2u);
  ASSERT_TRUE(r.record.has_scenario_digest);
  EXPECT_EQ(r.record.scenario_digest, scenario_digest(s));
  ASSERT_TRUE(r.record.has_scenario);
  EXPECT_EQ(scenario_to_json(r.record.scenario), scenario_to_json(s));
}

TEST(ReproRecordTest, ScenariolessRecordParses) {
  const ReproParseResult r = repro_record_from_json(
      R"({"rcb_repro":1,"kind":"precondition","expr":"p","file":"f","line":1})");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.record.has_scenario);
}

TEST(ReproRecordTest, RejectsGarbage) {
  EXPECT_FALSE(repro_record_from_json("").ok);
  EXPECT_FALSE(repro_record_from_json("RCB_REPRO").ok);
  EXPECT_FALSE(repro_record_from_json(R"({"kind":"assertion"})").ok);
}

TEST(ScenarioJsonTest, ValidateRejectsOutOfRangeFaultRates) {
  Scenario s;
  EXPECT_EQ(validate_scenario(s), "");
  s.faults.crash_rate = 1.5;
  EXPECT_NE(validate_scenario(s), "");
  s.faults.crash_rate = 0.0;
  s.faults.loss_rate = -0.3;
  EXPECT_NE(validate_scenario(s), "");
  s.faults.loss_rate = 1.0;  // boundary values are legal
  s.faults.crash_fraction = 0.0;
  EXPECT_EQ(validate_scenario(s), "");
}

// ---------------------------------------------------------------------------
// Replay determinism.

TEST(ReplayTest, TrialDigestIsBitIdenticalAcrossRuns) {
  const Scenario s = make_faulty_scenario();
  ASSERT_EQ(validate_scenario(s), "");
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    const TrialOutcome a = run_scenario_trial(s, trial);
    const TrialOutcome b = run_scenario_trial(s, trial);
    EXPECT_EQ(a.digest, b.digest) << "trial " << trial;
    EXPECT_EQ(a.max_cost, b.max_cost);
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.crashed_count, b.crashed_count);
  }
}

TEST(ReplayTest, DistinctTrialsHaveDistinctDigests) {
  const Scenario s = make_faulty_scenario();
  const TrialOutcome a = run_scenario_trial(s, 0);
  const TrialOutcome b = run_scenario_trial(s, 1);
  EXPECT_NE(a.digest, b.digest);
}

TEST(ReplayTest, AllProtocolsReplayDeterministically) {
  for (const char* protocol :
       {"one_to_one", "ksy", "combined", "broadcast", "naive", "sqrt"}) {
    Scenario s;
    s.protocol = protocol;
    s.adversary = s.is_duel() ? "full_duel" : "suffix";
    s.budget = 1 << 12;
    s.q = 0.7;
    s.n = 8;
    s.seed = 314;
    s.faults.seed = 42;
    s.faults.loss_rate = 0.1;
    s.faults.crash_rate = 0.0005;
    s.faults.restart_rate = 0.001;
    ASSERT_EQ(validate_scenario(s), "") << protocol;
    const TrialOutcome a = run_scenario_trial(s, 2);
    const TrialOutcome b = run_scenario_trial(s, 2);
    EXPECT_EQ(a.digest, b.digest) << protocol;
  }
}

// Exception used to long-jump out of a forced contract failure in tests.
struct ContractCaught : std::runtime_error {
  explicit ContractCaught(std::string record)
      : std::runtime_error("contract"), record_json(std::move(record)) {}
  std::string record_json;
};

[[noreturn]] void throwing_handler(std::string_view record_json) {
  throw ContractCaught(std::string(record_json));
}

/// Installs `throwing_handler` for the scope of one test.
class HandlerGuard {
 public:
  HandlerGuard() : previous_(set_contract_failure_handler(&throwing_handler)) {}
  ~HandlerGuard() { set_contract_failure_handler(previous_); }

 private:
  ContractFailureHandler previous_;
};

TEST(ReplayTest, ForcedContractFailureEmitsReplayableRecord) {
  // The full crash-repro loop, in-process: a contract trips inside a trial
  // that has a ReproScope installed; the emitted record names the scenario
  // and trial; re-running that trial from the parsed record reproduces the
  // digest bit-identically.
  const Scenario s = make_faulty_scenario();
  const std::uint64_t trial = 1;

  HandlerGuard guard;
  std::string record_json;
  try {
    ReproScope scope(s.seed, trial, scenario_to_json(s));
    RCB_REQUIRE(1 + 1 == 3);  // the forced failure
    FAIL() << "contract failure did not fire";
  } catch (const ContractCaught& caught) {
    record_json = caught.record_json;
  }
  ASSERT_FALSE(record_json.empty());

  const ReproParseResult parsed = repro_record_from_json(record_json);
  ASSERT_TRUE(parsed.ok) << parsed.error << "\nrecord: " << record_json;
  EXPECT_EQ(parsed.record.kind, "precondition");
  EXPECT_EQ(parsed.record.master_seed, s.seed);
  EXPECT_EQ(parsed.record.trial, trial);
  ASSERT_TRUE(parsed.record.has_scenario);
  EXPECT_TRUE(parsed.record.scenario.faults.any_active());

  // Replay the recorded trial twice; identical digests certify the record
  // pins down the execution completely.
  ASSERT_EQ(validate_scenario(parsed.record.scenario), "");
  const TrialOutcome first = run_scenario_trial(parsed.record.scenario, trial);
  const TrialOutcome second = run_scenario_trial(parsed.record.scenario, trial);
  EXPECT_EQ(first.digest, second.digest);
  // And it matches a run from the original (pre-serialisation) scenario.
  EXPECT_EQ(first.digest, run_scenario_trial(s, trial).digest);
}

TEST(ReplayTest, NestedReproScopesRestoreOuterContext) {
  // The record of a contract failure names the innermost scope, and the
  // outer one again once the inner scope has closed.
  HandlerGuard guard;
  const auto failure_record = [] {
    try {
      RCB_REQUIRE(1 + 1 == 3);
    } catch (const ContractCaught& caught) {
      return repro_record_from_json(caught.record_json);
    }
    return ReproParseResult{};
  };
  ReproScope outer(1, 2, "");
  EXPECT_EQ(failure_record().record.master_seed, 1u);
  {
    ReproScope inner(3, 4, "");
    const ReproParseResult parsed = failure_record();
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.record.master_seed, 3u);
    EXPECT_EQ(parsed.record.trial, 4u);
  }
  const ReproParseResult parsed = failure_record();
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.record.master_seed, 1u);
  EXPECT_EQ(parsed.record.trial, 2u);
}

TEST(ReplayDeathTest, UnhandledContractFailurePrintsReproLine) {
  // Without a handler the failure path prints the RCB_REPRO line to stderr
  // and aborts — the contract the replay CLI scrapes logs for.
  EXPECT_DEATH(
      {
        ReproScope scope(7, 0, "{\"protocol\":\"ksy\"}");
        RCB_REQUIRE(2 + 2 == 5);
      },
      "RCB_REPRO.*master_seed");
}

}  // namespace
}  // namespace rcb
