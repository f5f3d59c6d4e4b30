// Protocol-pipeline digests: pinned pre-multi-channel aggregate digests.
//
// These eight literals were captured from the repository state immediately
// BEFORE the multi-channel slot model was introduced (same seeds, same
// scenarios).  They anchor the protocol pipeline of the single-channel
// scenarios — the protocols, the batch engine with its packed event keys,
// the RNG streams, and the scenario codec: a digest drift here means some
// RNG draw, key ordering, or codec byte moved.  None of these protocols
// runs the slotwise engine; its single-channel (C=1) output is pinned
// separately, by digest literals in tests/mc_engine_test.cpp.
//
// The suite re-derives each digest through the same pipeline the capture
// used (run_scenario_trial per trial, supervisor aggregate_digest), and
// additionally pins it across:
//   * SIMD kernels: RCB_SIMD=scalar and avx2 (when the host supports it),
//   * the supervised sweep scheduler with 1, 4, and default thread pools
//     (the digest is schedule-independent by construction).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rcb/common/simd.hpp"
#include "rcb/runtime/checkpoint.hpp"
#include "rcb/runtime/scenario.hpp"
#include "rcb/runtime/supervisor.hpp"

namespace rcb {
namespace {

struct PinnedCase {
  const char* name;
  Scenario scenario;
  std::uint64_t digest;
};

std::vector<PinnedCase> pinned_cases() {
  std::vector<PinnedCase> set;
  {
    Scenario s;
    s.protocol = "broadcast"; s.adversary = "suffix"; s.budget = 65536;
    s.q = 0.9; s.n = 32; s.eps = 0.01; s.trials = 16; s.seed = 5;
    s.max_epoch_extra = 2;
    set.push_back({"broadcast_suffix", s, 0x2f48a4b973a1073dull});
  }
  {
    Scenario s;
    s.protocol = "naive"; s.adversary = "random"; s.budget = 4096;
    s.rate = 0.3; s.n = 24; s.eps = 0.05; s.trials = 12; s.seed = 7;
    s.max_epoch_extra = 2; s.battery = 512;
    set.push_back({"naive_random_battery", s, 0x7e7e06dfce7dc162ull});
  }
  {
    Scenario s;
    s.protocol = "sqrt"; s.adversary = "fraction"; s.budget = 8192;
    s.q = 0.8; s.n = 16; s.eps = 0.01; s.trials = 12; s.seed = 9;
    s.max_epoch_extra = 2;
    set.push_back({"sqrt_fraction", s, 0xa9a7ffde2879edd3ull});
  }
  {
    Scenario s;
    s.protocol = "one_to_one"; s.adversary = "spoof"; s.budget = 8192;
    s.q = 0.7; s.eps = 0.01; s.trials = 16; s.seed = 11;
    s.max_epoch_extra = 3; s.timeout_slots = 192;
    set.push_back({"one_to_one_spoof", s, 0x1171abc63d66fe51ull});
  }
  {
    Scenario s;
    s.protocol = "ksy"; s.adversary = "full_duel"; s.budget = 16384;
    s.q = 0.9; s.eps = 0.01; s.trials = 16; s.seed = 13;
    s.max_epoch_extra = 2;
    set.push_back({"ksy_full_duel", s, 0x92d610e169fd2977ull});
  }
  {
    Scenario s;
    s.protocol = "combined"; s.adversary = "both_views"; s.budget = 16384;
    s.q = 0.8; s.eps = 0.01; s.trials = 12; s.seed = 15;
    s.max_epoch_extra = 2;
    set.push_back({"combined_both_views", s, 0x451ed34171dd3605ull});
  }
  {
    // The committed fault-storm corpus scenario, field for field.
    Scenario s;
    s.protocol = "broadcast"; s.adversary = "suffix"; s.budget = 2048;
    s.q = 0.8; s.rate = 0.3; s.n = 16; s.eps = 0.01; s.trials = 3;
    s.seed = 1009; s.max_epoch_extra = 3; s.battery = 1024;
    s.faults.seed = 404; s.faults.crash_rate = 0.002;
    s.faults.restart_rate = 0.02; s.faults.crash_fraction = 0.8;
    s.faults.loss_rate = 0.25; s.faults.corruption_rate = 0.15;
    s.faults.clock_skew_rate = 0.15; s.faults.brownout_slot = 512;
    s.faults.brownout_fraction = 0.5; s.faults.brownout_factor = 0.5;
    s.faults.cca_false_busy = 0.1; s.faults.cca_missed_detection = 0.1;
    set.push_back({"corpus_fault_storm", s, 0x1d25107b98c4f1c3ull});
  }
  {
    Scenario s;
    s.protocol = "one_to_one"; s.adversary = "spoof"; s.budget = 8192;
    s.q = 0.7; s.rate = 0.3; s.n = 32; s.eps = 0.01; s.trials = 2;
    s.seed = 2027; s.max_epoch_extra = 4; s.timeout_slots = 192;
    set.push_back({"corpus_spoof_timeout", s, 0x727274b18e2eca79ull});
  }
  return set;
}

std::uint64_t sequential_digest(const Scenario& s) {
  std::vector<CheckpointRecord> records;
  for (std::uint64_t t = 0; t < s.trials; ++t) {
    CheckpointRecord rec;
    rec.trial = t;
    rec.outcome = run_scenario_trial(s, t);
    records.push_back(rec);
  }
  return aggregate_digest(records);
}

/// RAII SIMD-mode override so a failing EXPECT never leaks the mode into
/// later tests.
struct SimdModeGuard {
  explicit SimdModeGuard(simd::Mode m) { simd::set_mode(m); }
  ~SimdModeGuard() { simd::clear_mode_override(); }
};

TEST(McDegenerationDigestTest, SequentialScalarMatchesPinned) {
  SimdModeGuard guard(simd::Mode::kScalar);
  for (const PinnedCase& c : pinned_cases()) {
    ASSERT_EQ(validate_scenario(c.scenario), "") << c.name;
    EXPECT_EQ(sequential_digest(c.scenario), c.digest) << c.name;
  }
}

TEST(McDegenerationDigestTest, SequentialAvx2MatchesPinned) {
  if (!simd::avx2_available()) {
    GTEST_SKIP() << "host lacks AVX2+FMA";
  }
  SimdModeGuard guard(simd::Mode::kAvx2);
  for (const PinnedCase& c : pinned_cases()) {
    EXPECT_EQ(sequential_digest(c.scenario), c.digest) << c.name;
  }
}

TEST(McDegenerationDigestTest, SupervisedSweepMatchesPinnedAcrossPools) {
  // The supervised sweep's aggregate is schedule-independent; pin it for
  // explicit 1- and 4-thread pools and the process-default pool (the
  // --threads=1/4/0 axis of the chaos harness, in-process).
  const SupervisorOptions sup;  // no checkpointing, no watchdogs
  for (const PinnedCase& c : pinned_cases()) {
    {
      ThreadPool pool(1);
      EXPECT_EQ(run_supervised_sweep(c.scenario, sup, pool).aggregate_digest,
                c.digest)
          << c.name << " threads=1";
    }
    {
      ThreadPool pool(4);
      EXPECT_EQ(run_supervised_sweep(c.scenario, sup, pool).aggregate_digest,
                c.digest)
          << c.name << " threads=4";
    }
    EXPECT_EQ(run_supervised_sweep(c.scenario, sup).aggregate_digest, c.digest)
        << c.name << " threads=default";
  }
}

}  // namespace
}  // namespace rcb
