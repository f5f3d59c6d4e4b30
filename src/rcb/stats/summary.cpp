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

/// Linear-interpolated quantile of an already sorted, non-empty sample.
double sorted_quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<double> sorted_copy(std::span<const double> samples) {
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

double quantile(std::span<const double> samples, double q) {
  RCB_REQUIRE(q >= 0.0 && q <= 1.0);
  if (samples.empty()) return 0.0;
  return sorted_quantile(sorted_copy(samples), q);
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

  const std::vector<double> sorted = sorted_copy(samples);
  s.median = sorted_quantile(sorted, 0.5);
  s.p10 = sorted_quantile(sorted, 0.1);
  s.p90 = sorted_quantile(sorted, 0.9);
  return s;
}

double fraction_true(std::span<const bool> flags) {
  if (flags.empty()) return 0.0;
  std::size_t count = 0;
  for (bool f : flags) count += f ? 1 : 0;
  return static_cast<double>(count) / static_cast<double>(flags.size());
}

}  // namespace rcb
