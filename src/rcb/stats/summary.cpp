#include "rcb/stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "rcb/common/contracts.hpp"

namespace rcb {

double Summary::ci95_halfwidth() const {
  if (n < 2) return 0.0;
  return 1.96 * stddev / std::sqrt(static_cast<double>(n));
}

namespace {

/// The rank below a sample's q-quantile (n > 0) and the fraction of the
/// way from it to the next rank: the quantile interpolates linearly
/// between the two order statistics.
std::size_t quantile_rank(double q, std::size_t n, double& frac) {
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  frac = pos - static_cast<double>(lo);
  return lo;
}

/// sorted[k] and sorted[k + 1] of a sample (sorted[k] twice when k is the
/// last index).
struct OrderPair {
  double at = 0.0;
  double next = 0.0;

  double interpolate(double frac) const {
    return at * (1.0 - frac) + next * frac;
  }
};

/// Selects the element of rank kth - first into place instead of sorting:
/// afterwards [first, kth) holds the ranks below it and (kth, last) the
/// ranks above.  `next` is the least element after kth; when kth is the
/// last one, it is `*after`, or kth itself for a null `after` (the top of
/// the sample).
OrderPair select_rank(double* first, double* kth, double* last,
                      const double* after) {
  std::nth_element(first, kth, last);
  if (kth + 1 < last) return {*kth, *std::min_element(kth + 1, last)};
  return {*kth, after != nullptr ? *after : *kth};
}

}  // namespace

double quantile(std::span<const double> samples, double q) {
  RCB_REQUIRE(q >= 0.0 && q <= 1.0);
  if (samples.empty()) return 0.0;
  std::vector<double> v(samples.begin(), samples.end());
  double frac = 0.0;
  const std::size_t r = quantile_rank(q, v.size(), frac);
  return select_rank(v.data(), v.data() + r, v.data() + v.size(), nullptr)
      .interpolate(frac);
}

Summary summarize(std::span<const double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;

  double sum = 0.0;
  s.min = samples[0];
  s.max = samples[0];
  for (double x : samples) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(s.n);

  if (s.n >= 2) {
    double ss = 0.0;
    for (double x : samples) ss += (x - s.mean) * (x - s.mean);
    s.stddev = std::sqrt(ss / static_cast<double>(s.n - 1));
  }

  // The median rank splits the sample, so p10 selects within the ranks
  // below it and p90 within the ranks from it up.
  std::vector<double> v(samples.begin(), samples.end());
  double* const first = v.data();
  double* const last = first + v.size();
  double f50 = 0.0, f10 = 0.0, f90 = 0.0;
  const std::size_t r50 = quantile_rank(0.5, s.n, f50);
  const std::size_t r10 = quantile_rank(0.1, s.n, f10);
  const std::size_t r90 = quantile_rank(0.9, s.n, f90);
  const OrderPair mid = select_rank(first, first + r50, last, nullptr);
  const OrderPair low =
      r10 == r50 ? mid
                 : select_rank(first, first + r10, first + r50, &mid.at);
  const OrderPair high = select_rank(first + r50, first + r90, last, nullptr);
  s.median = mid.interpolate(f50);
  s.p10 = low.interpolate(f10);
  s.p90 = high.interpolate(f90);
  return s;
}

}  // namespace rcb
