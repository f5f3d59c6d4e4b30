// Tests for jam schedules.
#include "rcb/sim/jam_schedule.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rcb {
namespace {

TEST(JamScheduleTest, NoneJamsNothing) {
  const JamSchedule js = JamSchedule::none();
  EXPECT_EQ(js.jammed_count(), 0u);
  EXPECT_FALSE(js.is_jammed(0));
  EXPECT_FALSE(js.is_jammed(12345));
}

TEST(JamScheduleTest, AllJamsEverything) {
  // The suffix from slot 0 is the fully jammed phase.
  const JamSchedule js = JamSchedule::suffix(100, 0);
  EXPECT_EQ(js.jammed_count(), 100u);
  EXPECT_TRUE(js.is_jammed(0));
  EXPECT_TRUE(js.is_jammed(99));
  EXPECT_FALSE(js.is_jammed(100));  // out of the phase
}

TEST(JamScheduleTest, SuffixJamsTail) {
  const JamSchedule js = JamSchedule::suffix(100, 70);
  EXPECT_EQ(js.jammed_count(), 30u);
  EXPECT_FALSE(js.is_jammed(69));
  EXPECT_TRUE(js.is_jammed(70));
  EXPECT_TRUE(js.is_jammed(99));
  EXPECT_FALSE(js.is_jammed(100));
}

TEST(JamScheduleTest, SuffixAtBoundaryIsEmpty) {
  const JamSchedule js = JamSchedule::suffix(100, 100);
  EXPECT_EQ(js.jammed_count(), 0u);
  EXPECT_FALSE(js.is_jammed(99));
}

TEST(JamScheduleTest, BlockingFractionMatchesDefinitionOne) {
  // Definition 1: q-blocking jams at least a q fraction of the slots.
  for (SlotCount n : {16u, 100u, 1024u}) {
    for (double q : {0.0, 0.1, 0.25, 0.5, 1.0}) {
      const JamSchedule js = JamSchedule::blocking_fraction(n, q);
      EXPECT_GE(static_cast<double>(js.jammed_count()),
                q * static_cast<double>(n))
          << "n=" << n << " q=" << q;
      EXPECT_LE(js.jammed_count(), static_cast<SlotCount>(q * n) + 1);
    }
  }
}

TEST(JamScheduleTest, ExplicitSlotsBinarySearch) {
  const JamSchedule js = JamSchedule::slots(100, {3, 7, 42, 99});
  EXPECT_EQ(js.jammed_count(), 4u);
  EXPECT_TRUE(js.is_jammed(3));
  EXPECT_TRUE(js.is_jammed(42));
  EXPECT_FALSE(js.is_jammed(4));
  EXPECT_FALSE(js.is_jammed(98));
}

TEST(JamScheduleTest, EmptyExplicitList) {
  const JamSchedule js = JamSchedule::slots(100, {});
  EXPECT_EQ(js.jammed_count(), 0u);
  EXPECT_FALSE(js.is_jammed(0));
}

TEST(JamScheduleDeathTest, UnsortedSlotsRejected) {
  EXPECT_DEATH(JamSchedule::slots(100, {7, 3}), "precondition");
}

TEST(JamScheduleDeathTest, DuplicateSlotsRejected) {
  EXPECT_DEATH(JamSchedule::slots(100, {3, 3}), "precondition");
}

TEST(JamScheduleDeathTest, OutOfRangeSlotsRejected) {
  EXPECT_DEATH(JamSchedule::slots(100, {100}), "precondition");
}

TEST(JamScheduleDeathTest, SuffixStartBeyondPhaseRejected) {
  EXPECT_DEATH(JamSchedule::suffix(100, 101), "precondition");
}

}  // namespace
}  // namespace rcb
