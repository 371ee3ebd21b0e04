#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace ftio::core {

namespace {

/// Length of {t in [a, b) : bandwidth(t) > threshold} and the integral of
/// the bandwidth over that subset. Exact on the step representation.
struct AboveThreshold {
  double length = 0.0;
  double volume = 0.0;
};

AboveThreshold measure_above(const ftio::signal::StepFunction& f, double a,
                             double b, double threshold) {
  const auto times = f.times();
  const auto values = f.values();
  // Segments ending at or before `a`, or starting at or after `b`, add
  // nothing, so the scan covers only the ones overlapping [a, b); the
  // additions and their order match a scan of every segment. A NaN `a`
  // starts at 0 and a NaN `b` never stops, like that full scan.
  std::size_t i = 0;
  if (!times.empty() && a > times[0]) {
    i = static_cast<std::size_t>(
            std::upper_bound(times.begin(), times.end(), a) - times.begin()) -
        1;
  }
  // Scalar accumulators: a struct here is spilled to the stack on every
  // iteration.
  double length = 0.0;
  double volume = 0.0;
  for (; i < values.size() && !(times[i] >= b); ++i) {
    const double lo = std::max(a, times[i]);
    const double hi = std::min(b, times[i + 1]);
    if (hi <= lo) continue;
    if (values[i] > threshold) {
      length += hi - lo;
      volume += values[i] * (hi - lo);
    }
  }
  return {length, volume};
}

/// The io-ratio metrics together with the full-curve scan S they rest
/// on, so compute_metrics reuses S instead of scanning the curve again.
struct IoRatio {
  PeriodicityMetrics metrics;
  AboveThreshold above;
};

IoRatio io_ratio_with_scan(const ftio::signal::StepFunction& bandwidth) {
  ftio::util::expect(!bandwidth.empty(), "compute_io_ratio: empty bandwidth");
  PeriodicityMetrics m;
  const double length = bandwidth.duration();
  const double volume = bandwidth.total_integral();
  ftio::util::expect(length > 0.0, "compute_io_ratio: zero-length trace");

  // Noise threshold V(T)/L(T) — Sec. II-C b).
  m.noise_threshold = volume / length;
  const auto s = measure_above(bandwidth, bandwidth.start_time(),
                               bandwidth.end_time(), m.noise_threshold);
  m.time_ratio_io = s.length / length;
  m.substantial_bandwidth = s.length > 0.0 ? s.volume / s.length : 0.0;
  return {m, s};
}

}  // namespace

PeriodicityMetrics compute_io_ratio(
    const ftio::signal::StepFunction& bandwidth) {
  return io_ratio_with_scan(bandwidth).metrics;
}

PeriodicityMetrics compute_metrics(const ftio::signal::StepFunction& bandwidth,
                                   double dominant_frequency) {
  ftio::util::expect(dominant_frequency > 0.0,
                     "compute_metrics: dominant frequency must be positive");
  const IoRatio io = io_ratio_with_scan(bandwidth);
  PeriodicityMetrics m = io.metrics;

  const double length = bandwidth.duration();
  const double period = 1.0 / dominant_frequency;
  const auto count = static_cast<std::size_t>(length * dominant_frequency);
  m.period_count = count;
  if (count == 0) return m;  // trace shorter than one period

  const double t0 = bandwidth.start_time();

  // sigma_vol: std of V(T_i) / max V(T_j) over the per-period sub-traces.
  std::vector<double> volumes(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double a = t0 + static_cast<double>(i) * period;
    volumes[i] = bandwidth.integral(a, a + period);
  }
  const double vmax = ftio::util::max_value(volumes);
  if (vmax > 0.0) {
    std::vector<double> normalised(count);
    for (std::size_t i = 0; i < count; ++i) normalised[i] = volumes[i] / vmax;
    m.sigma_vol = ftio::util::stddev(normalised);
  }

  // sigma_time (Eq. (4)): std of L(S_i)/L(T_i) around R_IO.
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double a = t0 + static_cast<double>(i) * period;
    const auto si = measure_above(bandwidth, a, a + period, m.noise_threshold);
    const double ratio = si.length / period;
    acc += (ratio - m.time_ratio_io) * (ratio - m.time_ratio_io);
  }
  m.sigma_time = std::sqrt(acc / static_cast<double>(count));

  // Average data per period: V(S) / (L(T) * f_d) — Sec. II-C b).
  m.bytes_per_period = io.above.volume / (length * dominant_frequency);
  return m;
}

}  // namespace ftio::core
