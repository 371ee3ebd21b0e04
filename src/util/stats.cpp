#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace ftio::util {

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double variance(std::span<const double> values) {
  if (values.size() < 1) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return acc / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
  return std::sqrt(variance(values));
}

double sample_stddev(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

double weighted_mean(std::span<const double> values,
                     std::span<const double> weights) {
  expect(values.size() == weights.size(),
         "weighted_mean: values/weights size mismatch");
  expect(!values.empty(), "weighted_mean: empty input");
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    num += values[i] * weights[i];
    den += weights[i];
  }
  expect(den > 0.0, "weighted_mean: non-positive weight sum");
  return num / den;
}

double coefficient_of_variation(std::span<const double> values) {
  const double m = mean(values);
  if (m == 0.0) return 0.0;
  return stddev(values) / std::abs(m);
}

double quantile(std::span<const double> values, double q) {
  expect(!values.empty(), "quantile: empty input");
  expect(q >= 0.0 && q <= 1.0, "quantile: q outside [0, 1]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double median(std::span<const double> values) { return quantile(values, 0.5); }

double geometric_mean(std::span<const double> values) {
  expect(!values.empty(), "geometric_mean: empty input");
  double log_sum = 0.0;
  for (double v : values) {
    expect(v > 0.0, "geometric_mean: non-positive value");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double min_value(std::span<const double> values) {
  expect(!values.empty(), "min_value: empty input");
  return *std::min_element(values.begin(), values.end());
}

double max_value(std::span<const double> values) {
  expect(!values.empty(), "max_value: empty input");
  return *std::max_element(values.begin(), values.end());
}

std::vector<double> z_scores(std::span<const double> values) {
  std::vector<double> scores(values.size(), 0.0);
  if (values.empty()) return scores;
  // Standard score (v - mean) / sigma with population sigma. Callers that
  // want one-sided high outliers (Eq. 2 over the non-DC spectral powers,
  // zscore_outliers) threshold on > t, so no absolute values are taken —
  // they would be wrong for any mixed-sign input.
  const double m = mean(values);
  const double s = stddev(values);
  if (s == 0.0) return scores;
  for (std::size_t i = 0; i < values.size(); ++i) {
    scores[i] = (values[i] - m) / s;
  }
  return scores;
}

BoxplotSummary boxplot_summary(std::span<const double> values) {
  expect(!values.empty(), "boxplot_summary: empty input");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());

  BoxplotSummary s;
  s.n = sorted.size();
  s.min = sorted.front();
  s.max = sorted.back();
  s.q1 = quantile(sorted, 0.25);
  s.median = quantile(sorted, 0.50);
  s.q3 = quantile(sorted, 0.75);
  s.mean = mean(sorted);

  const double iqr = s.q3 - s.q1;
  const double lo_fence = s.q1 - 1.5 * iqr;
  const double hi_fence = s.q3 + 1.5 * iqr;
  s.whisker_low = s.max;
  s.whisker_high = s.min;
  for (double v : sorted) {
    if (v >= lo_fence) {
      s.whisker_low = std::min(s.whisker_low, v);
      break;  // sorted: first in-fence value is the low whisker
    }
  }
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    if (*it <= hi_fence) {
      s.whisker_high = *it;
      break;
    }
  }
  for (double v : sorted) {
    if (v < lo_fence || v > hi_fence) ++s.outliers;
  }
  return s;
}

}  // namespace ftio::util
