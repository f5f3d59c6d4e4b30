// Tests for sparse Bernoulli-process sampling.
#include "rcb/rng/sampling.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rcb/rng/rng.hpp"

namespace rcb {
namespace {

TEST(BernoulliSlotSamplerTest, ZeroProbabilityYieldsNothing) {
  Rng rng(1);
  BernoulliSlotSampler sampler(1000, 0.0, rng);
  EXPECT_EQ(sampler.next(), BernoulliSlotSampler::kEnd);
}

TEST(BernoulliSlotSamplerTest, UnitProbabilityYieldsEverySlot) {
  Rng rng(2);
  BernoulliSlotSampler sampler(5, 1.0, rng);
  for (SlotIndex expected = 0; expected < 5; ++expected) {
    EXPECT_EQ(sampler.next(), expected);
  }
  EXPECT_EQ(sampler.next(), BernoulliSlotSampler::kEnd);
}

TEST(BernoulliSlotSamplerTest, ZeroSlotsYieldsNothing) {
  Rng rng(3);
  BernoulliSlotSampler sampler(0, 0.5, rng);
  EXPECT_EQ(sampler.next(), BernoulliSlotSampler::kEnd);
}

TEST(BernoulliSlotSamplerTest, SlotsAreStrictlyIncreasingAndInRange) {
  Rng rng(4);
  for (int rep = 0; rep < 100; ++rep) {
    BernoulliSlotSampler sampler(1 << 12, 0.01, rng);
    SlotIndex prev = BernoulliSlotSampler::kEnd;
    for (SlotIndex s = sampler.next(); s != BernoulliSlotSampler::kEnd;
         s = sampler.next()) {
      ASSERT_LT(s, 1u << 12);
      if (prev != BernoulliSlotSampler::kEnd) {
        ASSERT_GT(s, prev);
      }
      prev = s;
    }
  }
}

TEST(SampleBernoulliSlotsTest, EdgeProbabilitiesAndEmptyRange) {
  Rng rng(40);
  std::vector<SlotIndex> out = {99};  // stale content must be cleared
  sample_bernoulli_slots(1000, 0.0, rng, out);
  EXPECT_TRUE(out.empty());

  sample_bernoulli_slots(0, 0.5, rng, out);
  EXPECT_TRUE(out.empty());
  sample_bernoulli_slots(0, 1.0, rng, out);
  EXPECT_TRUE(out.empty());

  sample_bernoulli_slots(7, 1.0, rng, out);
  ASSERT_EQ(out.size(), 7u);
  for (SlotIndex s = 0; s < 7; ++s) EXPECT_EQ(out[s], s);
}

TEST(BernoulliSlotSamplerTest, ZeroSlotsWithUnitProbabilityYieldsNothing) {
  Rng rng(41);
  BernoulliSlotSampler sampler(0, 1.0, rng);
  EXPECT_EQ(sampler.next(), BernoulliSlotSampler::kEnd);
}

// p ~ 1/num_slots is the protocols' sparse regime (expected one firing per
// phase) and the regime where the geometric skip saturates most often; the
// count must still be Binomial(n, 1/n) — mean 1, variance ~ 1 - 1/n.
TEST(BernoulliSlotSamplerTest, ReciprocalProbabilityHasUnitMean) {
  const SlotCount n = 1 << 14;
  const double p = 1.0 / static_cast<double>(n);
  const int trials = 20000;
  Rng rng(42);
  std::vector<SlotIndex> slots;
  double sum = 0.0;
  for (int t = 0; t < trials; ++t) {
    sample_bernoulli_slots(n, p, rng, slots);
    for (SlotIndex s : slots) ASSERT_LT(s, n);
    sum += static_cast<double>(slots.size());
  }
  EXPECT_NEAR(sum / trials, 1.0, 5.0 / std::sqrt(trials));
}

// The count of fired slots must be Binomial(n, p): check the mean and
// variance across probabilities (property-style sweep).
class SamplerMomentsTest : public ::testing::TestWithParam<double> {};

TEST_P(SamplerMomentsTest, CountMatchesBinomialMoments) {
  const double p = GetParam();
  const SlotCount n = 4096;
  const int trials = 4000;
  Rng rng(5);
  double sum = 0.0, sum_sq = 0.0;
  std::vector<SlotIndex> slots;
  for (int t = 0; t < trials; ++t) {
    sample_bernoulli_slots(n, p, rng, slots);
    const double count = static_cast<double>(slots.size());
    sum += count;
    sum_sq += count * count;
  }
  const double mean = sum / trials;
  const double var = sum_sq / trials - mean * mean;
  const double expected_mean = static_cast<double>(n) * p;
  const double expected_var = static_cast<double>(n) * p * (1.0 - p);
  EXPECT_NEAR(mean, expected_mean, 5.0 * std::sqrt(expected_var / trials) + 0.05);
  EXPECT_NEAR(var, expected_var, 0.15 * expected_var + 0.1);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, SamplerMomentsTest,
                         ::testing::Values(0.0005, 0.005, 0.05, 0.3, 0.7,
                                           0.95));

// The positions must be uniform: the mean position of fired slots over many
// trials should be ~n/2.
TEST(BernoulliSlotSamplerTest, PositionsAreUniform) {
  Rng rng(6);
  const SlotCount n = 10000;
  double pos_sum = 0.0;
  std::uint64_t count = 0;
  std::vector<SlotIndex> slots;
  for (int t = 0; t < 2000; ++t) {
    sample_bernoulli_slots(n, 0.01, rng, slots);
    for (SlotIndex s : slots) {
      pos_sum += static_cast<double>(s);
      ++count;
    }
  }
  ASSERT_GT(count, 100000u);
  EXPECT_NEAR(pos_sum / static_cast<double>(count), (n - 1) / 2.0, 100.0);
}

/// Trials up to and including the sampler's first firing slot: the
/// geometric skip it draws, Geometric(p) on {1, 2, ...}.
std::uint64_t first_firing_trial(double p, Rng& rng) {
  BernoulliSlotSampler sampler(SlotCount{1} << 40, p, rng);
  return sampler.next() + 1;
}

TEST(GeometricTest, MeanIsOneOverP) {
  Rng rng(9);
  for (double p : {0.01, 0.1, 0.5}) {
    double sum = 0.0;
    const int trials = 40000;
    for (int t = 0; t < trials; ++t) {
      sum += static_cast<double>(first_firing_trial(p, rng));
    }
    EXPECT_NEAR(sum / trials, 1.0 / p, 0.05 / p) << "p=" << p;
  }
}

TEST(GeometricTest, UnitProbabilityIsAlwaysOne) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(first_firing_trial(1.0, rng), 1u);
}

TEST(GeometricTest, SupportsStartsAtOne) {
  // A firing on slot 0 is one trial; the skip never lands before it.
  Rng rng(11);
  std::uint64_t ones = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t k = first_firing_trial(0.9, rng);
    ASSERT_GE(k, 1u);
    ones += k == 1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(ones) / 10000.0, 0.9, 0.02);
}

}  // namespace
}  // namespace rcb
