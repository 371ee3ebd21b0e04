#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ftio::util {

/// Arithmetic mean of `values`. Returns 0 for an empty span.
double mean(std::span<const double> values);

/// Population variance (divides by N). Returns 0 for spans of size < 1.
double variance(std::span<const double> values);

/// Population standard deviation.
double stddev(std::span<const double> values);

/// Sample standard deviation (divides by N-1). Returns 0 for N < 2.
double sample_stddev(std::span<const double> values);

/// Weighted arithmetic mean; `weights` must have the same size as `values`
/// and a positive sum.
double weighted_mean(std::span<const double> values,
                     std::span<const double> weights);

/// Coefficient of variation sigma/mu (population sigma). Returns 0 when the
/// mean is 0 to keep confidence formulas well defined on degenerate input.
double coefficient_of_variation(std::span<const double> values);

/// Linear-interpolation quantile (same convention as numpy.quantile,
/// `q` in [0, 1]). Sorts a copy of the input.
double quantile(std::span<const double> values, double q);

/// Median (quantile 0.5).
double median(std::span<const double> values);

/// Geometric mean; all values must be > 0.
double geometric_mean(std::span<const double> values);

/// Minimum / maximum of a non-empty span.
double min_value(std::span<const double> values);
double max_value(std::span<const double> values);

/// Z-scores per Eq. (2) of the paper: z_k = (p_k - mean) / sigma, with the
/// population sigma. A zero standard deviation yields all-zero scores.
std::vector<double> z_scores(std::span<const double> values);

/// Five-number summary with 1.5*IQR whiskers, as used by the paper's
/// boxplots (Figs. 8, 9, 17).
struct BoxplotSummary {
  double min = 0.0;           ///< smallest observation
  double whisker_low = 0.0;   ///< smallest observation >= q1 - 1.5*IQR
  double q1 = 0.0;            ///< first quartile
  double median = 0.0;        ///< second quartile
  double q3 = 0.0;            ///< third quartile
  double whisker_high = 0.0;  ///< largest observation <= q3 + 1.5*IQR
  double max = 0.0;           ///< largest observation
  double mean = 0.0;          ///< arithmetic mean
  std::size_t n = 0;          ///< number of observations
  std::size_t outliers = 0;   ///< observations outside the whiskers
};

/// Computes the boxplot summary of a non-empty sample.
BoxplotSummary boxplot_summary(std::span<const double> values);

}  // namespace ftio::util
