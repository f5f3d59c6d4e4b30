// Summary statistics over Monte-Carlo samples.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rcb {

/// Point statistics of a sample.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p10 = 0.0;
  double p90 = 0.0;

  /// Half-width of the ~95% normal-approximation confidence interval for
  /// the mean (1.96 * stddev / sqrt(n); 0 for n < 2).
  double ci95_halfwidth() const;
};

/// Computes a Summary; the input need not be sorted.  Empty input yields a
/// zero Summary.
Summary summarize(std::span<const double> samples);

/// Linear-interpolated quantile of a sample, q in [0, 1].
double quantile(std::span<const double> samples, double q);

}  // namespace rcb
