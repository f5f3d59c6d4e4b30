// Tests for the bounded trace recorder.
#include "rcb/sim/trace.hpp"

#include <gtest/gtest.h>

namespace rcb {
namespace {

TEST(TraceTest, RecordsEventsWithPhaseTag) {
  Trace trace(10);
  trace.begin_phase(3);
  trace.record(5, 2, 1, true);
  trace.begin_phase(4);
  trace.record(0, 0, 3, false);
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].phase, 3u);
  EXPECT_EQ(trace.events()[0].slot, 5u);
  EXPECT_EQ(trace.events()[0].senders, 2u);
  EXPECT_EQ(trace.events()[0].listeners, 1u);
  EXPECT_TRUE(trace.events()[0].jammed);
  EXPECT_EQ(trace.events()[1].phase, 4u);
  EXPECT_FALSE(trace.events()[1].jammed);
}

TEST(TraceTest, CapacityBoundsMemory) {
  Trace trace(3);
  for (SlotIndex s = 0; s < 10; ++s) trace.record(s, 1, 0, false);
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_TRUE(trace.truncated());
  // The first events are kept, later ones dropped.
  EXPECT_EQ(trace.events()[2].slot, 2u);
}

TEST(TraceTest, ZeroCapacityTruncatesImmediately) {
  Trace trace(0);
  trace.record(0, 1, 1, false);
  EXPECT_TRUE(trace.events().empty());
  EXPECT_TRUE(trace.truncated());
}

}  // namespace
}  // namespace rcb
