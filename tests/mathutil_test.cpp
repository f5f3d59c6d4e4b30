// Tests for the math helpers.
#include "rcb/common/mathutil.hpp"

#include <gtest/gtest.h>

namespace rcb {
namespace {

TEST(MathUtilTest, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_EQ(floor_log2(UINT64_C(1) << 63), 63u);
}

TEST(MathUtilTest, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(MathUtilTest, Pow2) {
  EXPECT_EQ(pow2(0), 1u);
  EXPECT_EQ(pow2(10), 1024u);
  EXPECT_EQ(pow2(63), UINT64_C(1) << 63);
}

TEST(MathUtilDeathTest, Pow2OverflowRejected) {
  EXPECT_DEATH(pow2(64), "precondition");
}

TEST(MathUtilDeathTest, Log2OfZeroRejected) {
  EXPECT_DEATH(floor_log2(0), "precondition");
  EXPECT_DEATH(ceil_log2(0), "precondition");
}

TEST(MathUtilTest, ClampProbability) {
  EXPECT_DOUBLE_EQ(clamp_probability(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(clamp_probability(0.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp_probability(0.42), 0.42);
  EXPECT_DOUBLE_EQ(clamp_probability(1.0), 1.0);
  EXPECT_DOUBLE_EQ(clamp_probability(7.0), 1.0);
}

TEST(MathUtilTest, ToSlotCount) {
  EXPECT_EQ(to_slot_count(-1.0), 0u);
  EXPECT_EQ(to_slot_count(0.0), 0u);
  EXPECT_EQ(to_slot_count(41.9), 41u);
  EXPECT_EQ(to_slot_count(1e30), UINT64_MAX);
}

TEST(MathUtilTest, GoldenRatioIdentity) {
  // phi^2 = phi + 1, and phi - 1 = 1/phi (the Theorem 5 exponent).
  EXPECT_NEAR(kGoldenRatio * kGoldenRatio, kGoldenRatio + 1.0, 1e-12);
  EXPECT_NEAR(kGoldenRatio - 1.0, 1.0 / kGoldenRatio, 1e-12);
}

}  // namespace
}  // namespace rcb
