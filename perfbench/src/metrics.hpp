// Pure metric math for the end-to-end benchmark: percentiles with their
// sample counts, thread-pool utilisation and tail from per-trial spans,
// the time a set of intervals covers, and node-event counts from trial
// outcomes.  No clocks and no I/O here, so the
// unit tests can drive every function with synthetic timestamps.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

namespace perfbench {

/// One trial as seen by the injected TrialRunner: steady-clock nanoseconds
/// (CLOCK_MONOTONIC, comparable across processes) and the executing thread.
/// `thread` is unique across worker processes once merged.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile (p in [0, 100]) of `xs`: the smallest sample with
/// at least p% of the samples at or below it.  Empty input gives {0, 0}.
inline Percentile percentile(std::vector<double> xs, double p) {
  Percentile out;
  out.samples = xs.size();
  if (xs.empty()) return out;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  out.value = xs[std::min(idx, xs.size() - 1)];
  return out;
}

/// Median (mean of the two middle samples for even counts); 0 when empty.
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// How a pool of `threads` workers spent the window [begin_ns, end_ns].
struct PoolStats {
  double busy_s = 0.0;  ///< sum of trial span lengths (thread-seconds)
  double util = 0.0;    ///< busy / (window * threads)
  /// From the moment the first of the `threads` lanes goes idle for good
  /// until the last trial ends.  A lane is one of the `threads` threads
  /// whose last trial ended latest (worker processes that ran earlier
  /// shards handed their lanes on); a lane no thread ever used goes idle
  /// at `begin_ns`.
  double tail_s = 0.0;
};

inline PoolStats pool_stats(const std::vector<Span>& spans,
                            std::int64_t begin_ns, std::int64_t end_ns,
                            std::size_t threads) {
  PoolStats out;
  if (spans.empty() || threads == 0 || end_ns <= begin_ns) return out;
  std::map<std::uint32_t, std::int64_t> last_end;
  std::int64_t busy_ns = 0;
  for (const Span& s : spans) {
    busy_ns += s.end_ns - s.start_ns;
    auto [it, fresh] = last_end.emplace(s.thread, s.end_ns);
    if (!fresh) it->second = std::max(it->second, s.end_ns);
  }
  std::vector<std::int64_t> lanes;
  for (const auto& [thread, end] : last_end) lanes.push_back(end);
  std::sort(lanes.begin(), lanes.end(), std::greater<>());
  lanes.resize(threads, begin_ns);
  out.busy_s = static_cast<double>(busy_ns) * 1e-9;
  out.util = out.busy_s / (static_cast<double>(end_ns - begin_ns) * 1e-9 *
                           static_cast<double>(threads));
  out.tail_s = static_cast<double>(lanes.front() - lanes.back()) * 1e-9;
  return out;
}

/// A wall-clock interval [begin_ns, end_ns) on the same clock as Span.
struct Interval {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

/// Nanoseconds of [lo_ns, hi_ns) covered by at least one of `intervals`
/// (overlaps count once).
inline std::int64_t covered_ns(std::vector<Interval> intervals,
                               std::int64_t lo_ns, std::int64_t hi_ns) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin_ns < b.begin_ns;
            });
  std::int64_t covered = 0;
  std::int64_t reached = lo_ns;  // everything before this is counted
  for (const Interval& iv : intervals) {
    const std::int64_t begin = std::max(iv.begin_ns, reached);
    const std::int64_t end = std::min(iv.end_ns, hi_ns);
    if (end > begin) {
      covered += end - begin;
      reached = end;
    }
  }
  return covered;
}

/// Energy-charged sends plus listens of one trial, recovered from the
/// outcome's per-node mean cost: `nodes` is n for the broadcast protocols
/// and 2 (Alice and Bob) for a 1-to-1 duel.  Costs are integers, so the
/// rounding only undoes the division inside the mean.
inline std::uint64_t events_from_mean_cost(double mean_cost,
                                           std::uint32_t nodes) {
  return static_cast<std::uint64_t>(
      std::llround(mean_cost * static_cast<double>(nodes)));
}

/// Wall nanoseconds per node event; 0 when there were no events.
inline double ns_per_event(double wall_s, std::uint64_t events) {
  if (events == 0) return 0.0;
  return wall_s * 1e9 / static_cast<double>(events);
}

}  // namespace perfbench
