// Tests for the deterministic RNG core.
#include "rcb/rng/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace rcb {
namespace {

TEST(Splitmix64Test, MatchesReferenceVector) {
  // Reference outputs for seed 1234567 from the public-domain splitmix64.c.
  std::uint64_t state = 1234567;
  EXPECT_EQ(splitmix64_next(state), 6457827717110365317ull);
  EXPECT_EQ(splitmix64_next(state), 3203168211198807973ull);
}

TEST(RngTest, GoldenOutputsForSeed) {
  // The raw xoshiro256** stream is part of the reproducibility contract:
  // every pinned digest downstream is a function of these words.
  constexpr std::uint64_t kGolden[16] = {
      6332780174000220894ull,  12543275776149051043ull,
      34711071102197583ull,    10967436174577842923ull,
      17608665420244242308ull, 2275031180651683854ull,
      8344124812459175160ull,  16135221236625116497ull,
      11581226186961062133ull, 10840168713302709638ull,
      10637070620586563456ull, 520589206364064131ull,
      5814130783773360672ull,  5080463493341929608ull,
      8718000285747067805ull,  299224104374645592ull,
  };
  Rng rng(20260101);
  for (const std::uint64_t want : kGolden) EXPECT_EQ(rng.next_u64(), want);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 5);
}

TEST(RngTest, StreamsAreIndependentAndDeterministic) {
  Rng s0 = Rng::stream(99, 0);
  Rng s0b = Rng::stream(99, 0);
  Rng s1 = Rng::stream(99, 1);
  EXPECT_EQ(s0.next_u64(), s0b.next_u64());
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (s0.next_u64() == s1.next_u64());
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, UniformDoubleOpenNeverZero) {
  Rng rng(8);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_GT(rng.uniform_double_open(), 0.0);
    ASSERT_LE(rng.uniform_double_open(), 1.0);
  }
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(9);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) ASSERT_LT(rng.uniform_u64(bound), bound);
  }
}

TEST(RngTest, UniformU64CoversSmallRangeUniformly) {
  Rng rng(10);
  std::vector<int> counts(8, 0);
  const int draws = 80000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_u64(8)];
  for (int c : counts) EXPECT_NEAR(c, draws / 8, 500);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(11);
  for (double p : {0.0, 0.01, 0.25, 0.5, 0.9, 1.0}) {
    int hits = 0;
    const int draws = 50000;
    for (int i = 0; i < draws; ++i) hits += rng.bernoulli(p);
    EXPECT_NEAR(static_cast<double>(hits) / draws, p, 0.01) << "p=" << p;
  }
}

/// Draws `draws` Bernoulli(p) trials from twin streams, one through
/// bernoulli(p) and one through the threshold form, and requires the same
/// outcome every draw and the same stream position at the end.
void expect_threshold_matches_bernoulli(double p, std::uint64_t seed,
                                        int draws) {
  Rng a(seed), b(seed);
  const std::uint64_t threshold = Rng::bernoulli_threshold(p);
  int hits = 0;
  for (int i = 0; i < draws; ++i) {
    const bool want = a.bernoulli(p);
    ASSERT_EQ(b.bernoulli_below(threshold), want ? 1u : 0u)
        << "p=" << p << " i=" << i;
    hits += want;
  }
  EXPECT_EQ(a.state(), b.state()) << "p=" << p;
  if (p >= 0.25 && p <= 0.75) {
    EXPECT_GT(hits, 0) << "p=" << p;
  }
}

/// The threshold is the exact boundary: the 53-bit integer just below it
/// maps to a uniform_double() below p, the threshold itself does not.
void expect_threshold_is_boundary(double p) {
  const std::uint64_t t = Rng::bernoulli_threshold(p);
  ASSERT_GE(t, 1u) << "p=" << p;
  ASSERT_LE(t, std::uint64_t{1} << 53) << "p=" << p;
  EXPECT_LT(static_cast<double>(t - 1) * 0x1.0p-53, p) << "p=" << p;
  EXPECT_FALSE(static_cast<double>(t) * 0x1.0p-53 < p) << "p=" << p;
}

TEST(RngTest, BernoulliThresholdMatchesBernoulliDrawForDraw) {
  const double fixed[] = {
      0x1.0p-60, 1e-9, 0.3, std::nextafter(0.5, 0.0), 0.5,
      std::nextafter(0.5, 1.0), 1.0 - 0x1.0p-53,
  };
  std::uint64_t seed = 101;
  for (const double p : fixed) {
    expect_threshold_is_boundary(p);
    expect_threshold_matches_bernoulli(p, seed++, 100000);
  }
  Rng pick(202);
  for (int k = 0; k < 8; ++k) {
    const double p = pick.uniform_double_open();
    if (p >= 1.0) continue;
    expect_threshold_is_boundary(p);
    expect_threshold_matches_bernoulli(p, seed++, 100000);
  }
}

TEST(RngTest, BernoulliThresholdIsExactBoundaryAcrossMagnitudes) {
  // Random mantissas at every binade from 2^-70 up to (0.5, 1).
  Rng pick(303);
  for (int e = -70; e <= -1; ++e) {
    for (int k = 0; k < 200; ++k) {
      const double p = std::ldexp(1.0 + pick.uniform_double(), e);
      expect_threshold_is_boundary(p);
    }
  }
}

TEST(RngTest, BernoulliThresholdOutcomeAtTheEnds) {
  // p <= 0 never fires and p >= 1 always does, as bernoulli() — though the
  // threshold form still consumes the draw.
  EXPECT_EQ(Rng::bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(-1.0), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(1.0), std::uint64_t{1} << 53);
  EXPECT_EQ(Rng::bernoulli_threshold(2.0), std::uint64_t{1} << 53);
  Rng rng(404);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(rng.bernoulli_below(Rng::bernoulli_threshold(0.0)), 0u);
    ASSERT_EQ(rng.bernoulli_below(Rng::bernoulli_threshold(1.0)), 1u);
  }
}

TEST(RngTest, ExponentialHasUnitMean) {
  Rng rng(12);
  double sum = 0.0;
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) sum += rng.exponential();
  EXPECT_NEAR(sum / draws, 1.0, 0.02);
}

TEST(RngTest, StateNeverAllZero) {
  for (std::uint64_t seed : {0ull, 1ull, 0xFFFFFFFFFFFFFFFFull}) {
    Rng rng(seed);
    const auto s = rng.state();
    EXPECT_NE(s[0] | s[1] | s[2] | s[3], 0u);
  }
}

TEST(RngRewindTest, RewindOneReplaysTheSameDraw) {
  Rng rng(77);
  for (int i = 0; i < 100; ++i) {
    const auto before = rng.state();
    const std::uint64_t v = rng.next_u64();
    rng.rewind();
    EXPECT_EQ(rng.state(), before);
    EXPECT_EQ(rng.next_u64(), v);
  }
}

TEST(RngRewindTest, RewindManyInvertsExactly) {
  // The speculative block sampler rewinds 0..3 surplus draws; exercise a
  // wider range to pin the closed-form inverse of the xoshiro transition.
  Rng rng(78);
  for (std::uint64_t k : {0ull, 1ull, 2ull, 3ull, 7ull, 64ull, 1000ull}) {
    const auto before = rng.state();
    for (std::uint64_t i = 0; i < k; ++i) rng.next_u64();
    rng.rewind(k);
    ASSERT_EQ(rng.state(), before) << "k=" << k;
  }
}

TEST(RngRewindTest, RewindComposesWithInterleavedDraws) {
  // Draw 4, rewind 2, draw 2: the last two draws must repeat draws 3 and 4.
  Rng rng(79);
  std::uint64_t draws[4];
  for (auto& d : draws) d = rng.next_u64();
  rng.rewind(2);
  EXPECT_EQ(rng.next_u64(), draws[2]);
  EXPECT_EQ(rng.next_u64(), draws[3]);
}

TEST(RngTest, BitMixingPassesMonobitSanity) {
  Rng rng(13);
  std::uint64_t ones = 0;
  const int draws = 10000;
  for (int i = 0; i < draws; ++i) {
    ones += static_cast<std::uint64_t>(__builtin_popcountll(rng.next_u64()));
  }
  const double fraction = static_cast<double>(ones) / (64.0 * draws);
  EXPECT_NEAR(fraction, 0.5, 0.005);
}

}  // namespace
}  // namespace rcb
