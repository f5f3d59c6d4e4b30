// Metric math of the end-to-end benchmark on synthetic timestamps.
#include <gtest/gtest.h>

#include <vector>

#include "metrics.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kMs = 1'000'000;

TEST(PercentileTest, NearestRankWithSampleCount) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  const Percentile p50 = percentile(xs, 50.0);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(percentile(xs, 99.0).value, 99.0);
  EXPECT_EQ(percentile(xs, 100.0).value, 100.0);
  EXPECT_EQ(percentile(xs, 0.0).value, 1.0);
}

TEST(PercentileTest, SmallAndEmptySamples) {
  EXPECT_EQ(percentile({7.0}, 99.0).value, 7.0);
  EXPECT_EQ(percentile({7.0}, 99.0).samples, 1u);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 50.0).value, 2.0);
  // 99th of ten samples is the maximum: fewer than one sample lies above.
  EXPECT_EQ(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99.0).value, 10.0);
  const Percentile none = percentile({}, 50.0);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.value, 0.0);
}

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(PoolStatsTest, UtilisationAndTailOfTwoThreads) {
  // Window [0, 10 ms] on 2 threads.  Thread 0 is busy 0-4 and 5-10 ms;
  // thread 1 is busy 0-6 ms and then idle for good.
  const std::vector<Span> spans = {
      {0, 4 * kMs, 0}, {5 * kMs, 10 * kMs, 0}, {0, 6 * kMs, 1}};
  const PoolStats s = pool_stats(spans, 0, 10 * kMs, 2);
  EXPECT_NEAR(s.busy_s, 0.015, 1e-12);
  EXPECT_NEAR(s.util, 0.015 / (0.010 * 2), 1e-12);
  EXPECT_NEAR(s.tail_s, 0.004, 1e-12);  // thread 1 idle from 6 ms to 10 ms
}

TEST(PoolStatsTest, UnusedThreadIsIdleFromTheStart) {
  const std::vector<Span> spans = {{1 * kMs, 3 * kMs, 0}};
  const PoolStats s = pool_stats(spans, 0, 4 * kMs, 2);
  EXPECT_NEAR(s.util, 0.002 / (0.004 * 2), 1e-12);
  EXPECT_NEAR(s.tail_s, 0.003, 1e-12);  // lane 2 idle from 0, last end 3 ms
}

TEST(PoolStatsTest, LanesHandedOnBetweenWorkerProcesses) {
  // One lane, but two worker processes' threads used it in turn: only the
  // thread that finished last counts, so the tail is zero.
  const std::vector<Span> spans = {{0, 2 * kMs, 0}, {3 * kMs, 5 * kMs, 1}};
  const PoolStats s = pool_stats(spans, 0, 5 * kMs, 1);
  EXPECT_NEAR(s.tail_s, 0.0, 1e-12);
  EXPECT_NEAR(s.util, 0.004 / 0.005, 1e-12);
}

TEST(PoolStatsTest, EmptyOrDegenerateWindow) {
  EXPECT_EQ(pool_stats({}, 0, kMs, 4).util, 0.0);
  EXPECT_EQ(pool_stats({{0, kMs, 0}}, kMs, kMs, 4).util, 0.0);
}

TEST(CoveredTest, OverlapsCountOnceAndClipToTheWindow) {
  // Two overlapping fsyncs [10, 30) and [20, 40), one inside [50, 55),
  // one straddling the window end [90, 120): 30 + 5 + 10 inside [0, 100).
  const std::vector<Interval> ivs = {{50, 55}, {10, 30}, {90, 120}, {20, 40}};
  EXPECT_EQ(covered_ns(ivs, 0, 100), 45);
  // Clipped at both ends: [25, 40) and [50, 52).
  EXPECT_EQ(covered_ns(ivs, 25, 52), 17);
  // A nested interval adds nothing; empty input and empty window cover 0.
  EXPECT_EQ(covered_ns({{0, 100}, {10, 20}}, 0, 100), 100);
  EXPECT_EQ(covered_ns({}, 0, 100), 0);
  EXPECT_EQ(covered_ns(ivs, 60, 60), 0);
}

TEST(EventsTest, RecoversIntegerCostsFromTheMean) {
  // 32 nodes spending 1000..1031 slots: mean 1015.5, total 32496.
  double total = 0.0;
  for (int u = 0; u < 32; ++u) total += 1000 + u;
  EXPECT_EQ(events_from_mean_cost(total / 32.0, 32), 32496u);
  // A duel: Alice 7, Bob 4 -> mean 5.5 over 2 nodes.
  EXPECT_EQ(events_from_mean_cost(5.5, 2), 11u);
  // Summed over trials: mean * trials still rounds to the exact total.
  EXPECT_EQ(events_from_mean_cost((5.5 + 6.0 + 2.5) / 3.0 * 3.0, 2), 28u);
}

TEST(EventsTest, NsPerEvent) {
  EXPECT_DOUBLE_EQ(ns_per_event(2.0, 1'000'000'000), 2.0);
  EXPECT_DOUBLE_EQ(ns_per_event(0.5, 250), 2e6);
  EXPECT_EQ(ns_per_event(1.0, 0), 0.0);
}

}  // namespace
}  // namespace perfbench
