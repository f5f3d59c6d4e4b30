// Calibration of the statistical gate the differential oracles rely on.
//
// The engine-crosscheck oracle turns "two engines sample the same
// distribution" into a pass/fail bit via rank_gate_rejects at a
// Bonferroni-corrected level.  That bit is only trustworthy if the gate's
// null rejection rate actually matches its nominal alpha, so this suite
// measures it: across 1000 paired draws from IDENTICAL distributions the
// rejection count must sit inside tight binomial bounds (seeds are fixed,
// so the counts are deterministic — these are calibration measurements,
// not flaky coin flips).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rcb/rng/rng.hpp"
#include "rcb/stats/rank_test.hpp"

namespace rcb {
namespace {

// Discrete heavy-tie distribution shaped like the per-run energy totals
// the crosscheck oracle compares (integer counts, a few distinct values).
double tied_sample(Rng& rng) {
  return static_cast<double>(rng.uniform_u64(12)) +
         (rng.bernoulli(0.2) ? 100.0 : 0.0);
}

TEST(RankGateCalibration, NullRejectionRateMatchesAlphaTwoSided) {
  const int kRuns = 1000;
  const std::size_t m = 30;
  const double alpha = 0.01;
  Rng rng(20260805);
  int rejections = 0;
  for (int run = 0; run < kRuns; ++run) {
    std::vector<double> xs(m), ys(m);
    for (std::size_t i = 0; i < m; ++i) xs[i] = rng.uniform_double();
    for (std::size_t i = 0; i < m; ++i) ys[i] = rng.uniform_double();
    if (rank_gate_rejects(xs, ys, alpha)) ++rejections;
  }
  // Binomial(1000, 0.01): mean 10, sd ~3.15.  [0, 25] is mean + ~4.8 sd;
  // a normal-approximation p-value that was mis-calibrated by even 2x
  // (alpha_eff = 0.02 -> mean 20, or 0.005 -> mean 5) stays detectable
  // while the gate as implemented passes with margin.
  EXPECT_LE(rejections, 25) << "gate rejects far too often under the null";
}

TEST(RankGateCalibration, NullRejectionRateWithHeavyTies) {
  // The tie-corrected variance is what keeps discrete samples (the common
  // case for slot counts) from inflating the rejection rate.
  const int kRuns = 1000;
  const std::size_t m = 40;
  const double alpha = 0.01;
  Rng rng(77001);
  int rejections = 0;
  for (int run = 0; run < kRuns; ++run) {
    std::vector<double> xs(m), ys(m);
    for (std::size_t i = 0; i < m; ++i) xs[i] = tied_sample(rng);
    for (std::size_t i = 0; i < m; ++i) ys[i] = tied_sample(rng);
    if (rank_gate_rejects(xs, ys, alpha)) ++rejections;
  }
  EXPECT_LE(rejections, 25);
}

TEST(RankGateCalibration, OneSidedGateIsDirectional) {
  const std::size_t m = 40;
  Rng rng(4242);
  std::vector<double> small(m), big(m);
  for (std::size_t i = 0; i < m; ++i) small[i] = rng.uniform_double();
  for (std::size_t i = 0; i < m; ++i) big[i] = rng.uniform_double() + 1.0;
  // Clear separation in the suspected direction: must reject.
  EXPECT_TRUE(rank_gate_rejects(small, big, 0.01, /*xs_smaller_suspect=*/true));
  // Same separation in the WRONG direction: a one-sided gate must not.
  EXPECT_FALSE(rank_gate_rejects(big, small, 0.01,
                                 /*xs_smaller_suspect=*/true));
}

TEST(RankGateCalibration, OneSidedNullStaysBelowAlpha) {
  const int kRuns = 1000;
  const std::size_t m = 30;
  Rng rng(90210);
  int rejections = 0;
  for (int run = 0; run < kRuns; ++run) {
    std::vector<double> xs(m), ys(m);
    for (std::size_t i = 0; i < m; ++i) xs[i] = tied_sample(rng);
    for (std::size_t i = 0; i < m; ++i) ys[i] = tied_sample(rng);
    if (rank_gate_rejects(xs, ys, 0.01, /*xs_smaller_suspect=*/true)) {
      ++rejections;
    }
  }
  EXPECT_LE(rejections, 25);
}

TEST(RankGateCalibration, PowerAgainstAGrossShift) {
  // The fuzz oracle's job is catching engines that disagree grossly, so a
  // full-unit location shift at the oracle's sample size must reject even
  // at the Bonferroni-split alpha it actually uses.
  const std::size_t m = 60;  // = OracleOptions::crosscheck_trials default
  Rng rng(1311);
  std::vector<double> xs(m), ys(m);
  for (std::size_t i = 0; i < m; ++i) xs[i] = rng.uniform_double();
  for (std::size_t i = 0; i < m; ++i) ys[i] = rng.uniform_double() + 1.0;
  EXPECT_TRUE(rank_gate_rejects(xs, ys, bonferroni_alpha(1e-6, 3)));
}

TEST(RankGateCalibration, IdenticalSamplesNeverReject) {
  // A sample compared with itself carries no evidence either way; the
  // budget-monotonicity oracle used to draw such pairs whenever its budget
  // did not bind.  Neither the two-sided nor the one-sided gate may reject
  // one, whatever the sample size, ties or alpha.
  Rng rng(8080);
  for (const std::size_t m : {1u, 2u, 5u, 12u, 60u}) {
    std::vector<std::vector<double>> samples(3, std::vector<double>(m));
    for (std::size_t i = 0; i < m; ++i) {
      samples[0][i] = rng.uniform_double();
      samples[1][i] = tied_sample(rng);
      samples[2][i] = 64.0;  // every value tied: zero rank variance
    }
    for (const std::vector<double>& xs : samples) {
      for (const double alpha : {1e-6, 0.01, 0.25}) {
        EXPECT_FALSE(rank_gate_rejects(xs, xs, alpha)) << m << " " << alpha;
        EXPECT_FALSE(rank_gate_rejects(xs, xs, alpha,
                                       /*xs_smaller_suspect=*/true))
            << m << " " << alpha;
      }
    }
  }
}

TEST(BonferroniTest, SplitsTheFamilyBudgetEvenly) {
  EXPECT_DOUBLE_EQ(bonferroni_alpha(0.05, 1), 0.05);
  EXPECT_DOUBLE_EQ(bonferroni_alpha(0.05, 10), 0.005);
  EXPECT_DOUBLE_EQ(bonferroni_alpha(1e-6, 4), 2.5e-7);
}

TEST(BonferroniTest, FamilyWiseNullRateIsBoundedByFamilyAlpha) {
  // 500 families of 5 identical-distribution comparisons each, gated at
  // bonferroni_alpha(0.05, 5): the number of families with ANY rejection
  // must stay near 500 * 0.05 = 25 (union bound; deterministic seed).
  const int kFamilies = 500;
  const int kComparisons = 5;
  const std::size_t m = 30;
  const double per_test = bonferroni_alpha(0.05, kComparisons);
  Rng rng(555);
  int families_rejecting = 0;
  for (int fam = 0; fam < kFamilies; ++fam) {
    bool any = false;
    for (int c = 0; c < kComparisons; ++c) {
      std::vector<double> xs(m), ys(m);
      for (std::size_t i = 0; i < m; ++i) xs[i] = rng.uniform_double();
      for (std::size_t i = 0; i < m; ++i) ys[i] = rng.uniform_double();
      any |= rank_gate_rejects(xs, ys, per_test);
    }
    if (any) ++families_rejecting;
  }
  EXPECT_LE(families_rejecting, 50);  // 0.05 nominal, generous headroom
}

}  // namespace
}  // namespace rcb
