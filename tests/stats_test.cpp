// Tests for statistics, regression and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "rcb/runtime/scenario.hpp"
#include "rcb/stats/regression.hpp"
#include "rcb/stats/summary.hpp"
#include "rcb/stats/table.hpp"

namespace rcb {
namespace {

TEST(SummaryTest, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(SummaryTest, SingleValue) {
  const std::vector<double> xs = {7.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
}

TEST(SummaryTest, KnownSample) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_GT(s.ci95_halfwidth(), 0.0);
}

TEST(SummaryTest, QuantileInterpolates) {
  const std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0 / 3.0), 20.0);
}

TEST(SummaryTest, QuantileUnsortedInput) {
  const std::vector<double> xs = {40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
}

/// summarize() selects its three quantiles together; its median/p10/p90
/// must equal quantile()'s, one at a time, bit for bit.
void expect_quantiles_match(const std::vector<double>& xs) {
  SCOPED_TRACE("n = " + std::to_string(xs.size()));
  const Summary s = summarize(xs);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.median),
            std::bit_cast<std::uint64_t>(quantile(xs, 0.5)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.p10),
            std::bit_cast<std::uint64_t>(quantile(xs, 0.1)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.p90),
            std::bit_cast<std::uint64_t>(quantile(xs, 0.9)));
}

TEST(SummaryTest, SummaryQuantilesEqualQuantileBitForBit) {
  expect_quantiles_match({3.5});
  expect_quantiles_match({2.0, -1.25});
  expect_quantiles_match({0.3, 9.1, -4.7, 0.1, 2.2, 7.7, 1e-9});      // odd
  expect_quantiles_match({0.3, 9.1, -4.7, 0.1, 2.2, 7.7, 1e-9, 5.5});  // even
  std::vector<double> ties;  // heavy ties, odd then even length
  for (int i = 0; i < 101; ++i) ties.push_back(static_cast<double>(i % 3));
  expect_quantiles_match(ties);
  ties.push_back(1.0);
  expect_quantiles_match(ties);
}

/// The sort-based quantile summarize() and quantile() used before they
/// selected: sort a copy, then interpolate between the two order
/// statistics around q.
double sorted_reference_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

TEST(SummaryTest, SelectionQuantilesEqualTheSortedReference) {
  std::mt19937_64 rng(90210);
  std::uniform_real_distribution<double> real(-1e6, 1e6);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 9u, 10u, 11u, 12u, 19u,
                              20u, 21u, 100u, 101u, 1000u, 4097u}) {
    for (int rep = 0; rep < 25; ++rep) {
      // Alternate distinct reals with heavily tied small integers.
      const int distinct = rep % 2 == 0 ? 0 : 1 + rep % 4;
      std::vector<double> xs(n);
      for (double& x : xs) {
        x = distinct == 0 ? real(rng)
                          : static_cast<double>(rng() % distinct);
      }
      SCOPED_TRACE("n = " + std::to_string(n) + ", rep " +
                   std::to_string(rep));
      const Summary s = summarize(xs);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.p10),
                std::bit_cast<std::uint64_t>(sorted_reference_quantile(xs, 0.1)));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.median),
                std::bit_cast<std::uint64_t>(sorted_reference_quantile(xs, 0.5)));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.p90),
                std::bit_cast<std::uint64_t>(sorted_reference_quantile(xs, 0.9)));
      for (const double q : {0.0, 0.25, 1.0 / 3.0, 0.75, 1.0}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(quantile(xs, q)),
                  std::bit_cast<std::uint64_t>(sorted_reference_quantile(xs, q)))
            << "q = " << q;
      }
      if (HasFailure()) return;
    }
  }
}

TEST(SummaryTest, SummaryQuantilesMatchOnOneToOneLatencies) {
  // The shape aggregate_from_sweep summarises: 50k latencies of a Fig. 1
  // point in trial order.  A random jammer makes them unsorted with a few
  // heavily tied values (unjammed, every trial's latency is the same).
  Scenario sc;
  sc.protocol = "one_to_one";
  sc.adversary = "sym_random";
  sc.budget = 512;
  sc.eps = 0.1;
  sc.trials = 50000;
  sc.seed = 1;
  std::vector<double> latency;
  latency.reserve(sc.trials);
  for (std::uint64_t t = 0; t < sc.trials; ++t) {
    latency.push_back(run_scenario_trial(sc, t).latency);
  }
  ASSERT_FALSE(std::is_sorted(latency.begin(), latency.end()));
  expect_quantiles_match(latency);
}

TEST(RegressionTest, ExactLineRecovered) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(3.0 * x - 1.0);
  const LinearFit f = fit_linear(xs, ys);
  EXPECT_NEAR(f.slope, 3.0, 1e-12);
  EXPECT_NEAR(f.intercept, -1.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(RegressionTest, ExactPowerLawRecovered) {
  const std::vector<double> xs = {2, 4, 8, 16, 32};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(5.0 * std::pow(x, 0.62));
  const PowerLawFit f = fit_power_law(xs, ys);
  EXPECT_NEAR(f.exponent, 0.62, 1e-10);
  EXPECT_NEAR(f.prefactor, 5.0, 1e-9);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(RegressionTest, NoisyPowerLawExponentClose) {
  const std::vector<double> xs = {10, 100, 1000, 10000};
  const std::vector<double> ys = {3.1, 9.8, 33.0, 98.0};  // ~x^0.5
  const PowerLawFit f = fit_power_law(xs, ys);
  EXPECT_NEAR(f.exponent, 0.5, 0.05);
  EXPECT_GT(f.r_squared, 0.99);
}

TEST(RegressionDeathTest, RejectsNonPositiveData) {
  const std::vector<double> xs = {1, 2};
  const std::vector<double> ys = {0.0, 1.0};
  EXPECT_DEATH(fit_power_law(xs, ys), "precondition");
}

TEST(RegressionDeathTest, RejectsMismatchedSizes) {
  const std::vector<double> xs = {1, 2, 3};
  const std::vector<double> ys = {1, 2};
  EXPECT_DEATH(fit_linear(xs, ys), "precondition");
}

TEST(TableTest, AlignedRendering) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 12345 |"), std::string::npos);
}

TEST(TableTest, CsvRendering) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 3), "3.14");
  EXPECT_EQ(Table::num(1234567.0, 4), "1.235e+06");
}

TEST(TableDeathTest, WrongArityRejected) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only one"}), "precondition");
}

}  // namespace
}  // namespace rcb
