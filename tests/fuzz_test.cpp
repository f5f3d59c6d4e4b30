// Randomized differential tests ("fuzz") against reference implementations.
//
// Each test generates many random configurations and compares the optimised
// implementation against an obviously-correct reference (a bitset, a naive
// per-slot loop, ...).  Seeds are fixed, so failures are reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "rcb/cli/json_parse.hpp"
#include "rcb/rng/rng.hpp"
#include "rcb/rng/sampling.hpp"
#include "rcb/runtime/scenario.hpp"
#include "rcb/sim/jam_schedule.hpp"
#include "rcb/sim/repetition_engine.hpp"

namespace rcb {
namespace {

TEST(JamScheduleFuzzTest, MatchesBitsetReference) {
  Rng rng(101);
  for (int iter = 0; iter < 300; ++iter) {
    const SlotCount slots = 1 + rng.uniform_u64(512);
    std::set<SlotIndex> reference;
    JamSchedule schedule = JamSchedule::none();

    switch (rng.uniform_u64(4)) {
      case 0:
        schedule = JamSchedule::none();
        break;
      case 1:
        schedule = JamSchedule::suffix(slots, 0);
        for (SlotIndex s = 0; s < slots; ++s) reference.insert(s);
        break;
      case 2: {
        const SlotIndex start = rng.uniform_u64(slots + 1);
        schedule = JamSchedule::suffix(slots, start);
        for (SlotIndex s = start; s < slots; ++s) reference.insert(s);
        break;
      }
      default: {
        std::vector<SlotIndex> list;
        for (SlotIndex s = 0; s < slots; ++s) {
          if (rng.bernoulli(0.3)) {
            list.push_back(s);
            reference.insert(s);
          }
        }
        schedule = JamSchedule::slots(slots, std::move(list));
        break;
      }
    }

    ASSERT_EQ(schedule.jammed_count(), reference.size()) << "iter " << iter;
    for (SlotIndex s = 0; s < slots; ++s) {
      ASSERT_EQ(schedule.is_jammed(s), reference.count(s) > 0)
          << "iter " << iter << " slot " << s;
    }
  }
}

TEST(SamplerFuzzTest, SkipSamplerMatchesNaiveBernoulliDistribution) {
  // For a moderate number of slots, compare the per-slot hit frequency of
  // the skip sampler against the analytic p across many rounds.
  Rng rng(202);
  for (double p : {0.02, 0.37, 0.81}) {
    const SlotCount slots = 64;
    std::vector<int> hits(slots, 0);
    const int rounds = 30000;
    std::vector<SlotIndex> out;
    for (int round = 0; round < rounds; ++round) {
      sample_bernoulli_slots(slots, p, rng, out);
      for (SlotIndex s : out) ++hits[s];
    }
    for (SlotIndex s = 0; s < slots; ++s) {
      const double freq = static_cast<double>(hits[s]) / rounds;
      ASSERT_NEAR(freq, p, 5.0 * std::sqrt(p * (1 - p) / rounds) + 1e-3)
          << "p=" << p << " slot=" << s;
    }
  }
}

TEST(EngineFuzzTest, RandomConfigurationsSatisfyConservation) {
  Rng meta(303);
  for (int iter = 0; iter < 150; ++iter) {
    const SlotCount slots = 1 + meta.uniform_u64(2048);
    const std::size_t nodes = 1 + meta.uniform_u64(8);
    std::vector<NodeAction> actions;
    for (std::size_t u = 0; u < nodes; ++u) {
      const auto payload = static_cast<Payload>(meta.uniform_u64(3));
      actions.push_back(NodeAction{meta.uniform_double(), payload,
                                   meta.uniform_double()});
    }
    const JamSchedule jam =
        JamSchedule::blocking_fraction(slots, meta.uniform_double());
    Rng rng(1000 + iter);
    const auto r = run_repetition(slots, actions, jam, rng);

    ASSERT_EQ(r.obs.size(), nodes);
    for (const auto& o : r.obs) {
      ASSERT_LE(o.sends + o.listens, slots);
      ASSERT_EQ(o.clear + o.messages + o.nacks + o.noise, o.listens);
      ASSERT_LE(o.listens_until_first_message, o.listens);
      if (o.first_message_slot != kNoSlot) {
        ASSERT_LT(o.first_message_slot, slots);
        ASSERT_FALSE(jam.is_jammed(o.first_message_slot));
      }
    }
  }
}

TEST(EngineFuzzTest, TotalSendsConsistentAcrossObservers) {
  // With one deterministic sender and k always-on listeners, every listener
  // hears exactly the same number of message slots (they all listen to the
  // same channel in every slot).
  Rng meta(404);
  for (int iter = 0; iter < 50; ++iter) {
    const SlotCount slots = 64 + meta.uniform_u64(512);
    std::vector<NodeAction> actions = {
        NodeAction{meta.uniform_double(), Payload::kMessage, 0.0}};
    const std::size_t listeners = 2 + meta.uniform_u64(4);
    for (std::size_t u = 0; u < listeners; ++u) {
      actions.push_back(NodeAction{0.0, Payload::kNoise, 1.0});
    }
    Rng rng(2000 + iter);
    const auto r = run_repetition(slots, actions, JamSchedule::none(), rng);
    for (std::size_t u = 2; u <= listeners; ++u) {
      ASSERT_EQ(r.obs[u].messages, r.obs[1].messages) << "iter " << iter;
      ASSERT_EQ(r.obs[u].clear, r.obs[1].clear) << "iter " << iter;
    }
    ASSERT_EQ(r.obs[1].messages, r.obs[0].sends) << "iter " << iter;
  }
}

// ---------------------------------------------------------------------------
// JSON parser fuzz.  The parser feeds on crash-repro records scraped from
// logs, so it must survive arbitrary bytes: never crash, never read out of
// bounds, always report an in-range error offset.

/// Invariants every parse result must satisfy, crash or no crash.
void check_parse_invariants(const std::string& input) {
  const JsonParseResult r = json_parse(input);
  if (!r.ok) {
    ASSERT_LE(r.error_offset, input.size()) << "input: " << input;
    ASSERT_FALSE(r.error.empty());
  }
}

TEST(JsonFuzzTest, RandomByteStringsNeverCrashTheParser) {
  Rng rng(505);
  // Bias toward JSON's structural bytes so the fuzz reaches deep parser
  // states instead of failing on byte one.
  const std::string alphabet = "{}[]\",:.-+eE0123456789 \tntf\\u\n\rabz";
  for (int iter = 0; iter < 3000; ++iter) {
    const std::size_t len = rng.uniform_u64(64);
    std::string input;
    for (std::size_t i = 0; i < len; ++i) {
      if (rng.bernoulli(0.9)) {
        input.push_back(alphabet[rng.uniform_u64(alphabet.size())]);
      } else {
        input.push_back(static_cast<char>(rng.uniform_u64(256)));
      }
    }
    check_parse_invariants(input);
  }
}

TEST(JsonFuzzTest, TruncationsOfValidDocumentsFailCleanly) {
  Scenario s;
  s.faults.crash_rate = 0.01;
  s.faults.brownout_slot = 100;
  s.faults.brownout_fraction = 0.5;
  const std::string valid = scenario_to_json(s);
  ASSERT_TRUE(json_parse(valid).ok);
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const std::string truncated = valid.substr(0, cut);
    const JsonParseResult r = json_parse(truncated);
    // No strict prefix of a minified object document is itself valid.
    ASSERT_FALSE(r.ok) << "cut=" << cut;
    ASSERT_LE(r.error_offset, truncated.size());
  }
}

TEST(JsonFuzzTest, DeepNestingIsRejectedNotOverflowed) {
  for (const char open : {'[', '{'}) {
    std::string deep(3000, open);
    if (open == '{') {
      // Interleave keys so the document is structurally plausible.
      deep.clear();
      for (int i = 0; i < 3000; ++i) deep += "{\"k\":";
    }
    const JsonParseResult r = json_parse(deep);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("nesting"), std::string::npos) << r.error;
  }
}

TEST(JsonFuzzTest, MutationsOfValidDocumentsNeverCrash) {
  Scenario s;
  s.protocol = "broadcast";
  s.adversary = "suffix";
  s.faults.crash_rate = 0.25;
  s.faults.loss_rate = 0.125;
  const std::string valid = scenario_to_json(s);
  Rng rng(606);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string mutated = valid;
    const std::size_t edits = 1 + rng.uniform_u64(4);
    for (std::size_t e = 0; e < edits && !mutated.empty(); ++e) {
      const std::size_t pos = rng.uniform_u64(mutated.size());
      switch (rng.uniform_u64(3)) {
        case 0:  // flip a byte
          mutated[pos] = static_cast<char>(rng.uniform_u64(256));
          break;
        case 1:  // delete a byte
          mutated.erase(pos, 1);
          break;
        default:  // duplicate a byte
          mutated.insert(pos, 1, mutated[pos]);
          break;
      }
    }
    check_parse_invariants(mutated);
    // Whatever the parser accepted must be re-parseable after a scenario
    // decode round-trip (the decoder, not just the parser, must be total).
    (void)scenario_from_json(mutated);
  }
}

TEST(JsonFuzzTest, WriterOutputAlwaysRoundTrips) {
  // Randomised scenarios: the writer's output must parse and decode back
  // to the same document.
  Rng rng(707);
  const char* protocols[] = {"one_to_one", "ksy",   "combined",
                             "broadcast",  "naive", "sqrt"};
  const char* broadcast_advs[] = {"none", "suffix", "random", "reactive"};
  const char* duel_advs[] = {"none", "full_duel", "random_duel"};
  for (int iter = 0; iter < 200; ++iter) {
    Scenario s;
    s.protocol = protocols[rng.uniform_u64(6)];
    s.adversary = s.is_duel() ? duel_advs[rng.uniform_u64(3)]
                              : broadcast_advs[rng.uniform_u64(4)];
    s.budget = rng.uniform_u64(1u << 20);
    s.q = rng.uniform_double();
    s.rate = rng.uniform_double();
    s.n = 1 + static_cast<std::uint32_t>(rng.uniform_u64(64));
    s.eps = 0.001 + 0.5 * rng.uniform_double();
    s.trials = 1 + rng.uniform_u64(100);
    s.seed = rng.next_u64() >> 12;  // keep within the 2^53 exact-int range
    s.timeout_slots = rng.uniform_u64(1u << 20);
    s.faults.seed = rng.next_u64() >> 12;
    s.faults.crash_rate = rng.uniform_double();
    s.faults.restart_rate = rng.uniform_double();
    s.faults.crash_fraction = rng.uniform_double();
    s.faults.loss_rate = rng.uniform_double();
    s.faults.corruption_rate = rng.uniform_double();
    s.faults.clock_skew_rate = rng.uniform_double();
    if (rng.bernoulli(0.5)) {
      s.faults.brownout_slot = rng.uniform_u64(1u << 20);
      s.faults.brownout_fraction = rng.uniform_double();
      s.faults.brownout_factor = rng.uniform_double();
    }
    s.faults.cca_false_busy = rng.uniform_double();
    s.faults.cca_missed_detection = rng.uniform_double();
    s.faults.cca_ramp_slots = rng.uniform_u64(1u << 16);

    const std::string json = scenario_to_json(s);
    ASSERT_TRUE(json_parse(json).ok) << json;
    const ScenarioParseResult parsed = scenario_from_json(json);
    ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << json;
    ASSERT_EQ(scenario_to_json(parsed.scenario), json);
  }
}

TEST(JsonFuzzTest, DuplicateKeysAreRejected) {
  EXPECT_FALSE(json_parse(R"({"a":1,"a":2})").ok);
  EXPECT_FALSE(json_parse(R"({"a":{"b":1,"b":1}})").ok);
  EXPECT_TRUE(json_parse(R"({"a":1,"b":{"a":2}})").ok);  // scoped reuse is fine
}

}  // namespace
}  // namespace rcb
