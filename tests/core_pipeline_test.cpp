#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/acf_analysis.hpp"
#include "core/ftio.hpp"
#include "core/metrics.hpp"
#include "signal/step_function.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace core = ftio::core;
namespace sig = ftio::signal;
namespace tr = ftio::trace;

namespace {

/// Periodic burst trace: `phases` I/O phases of `burst` seconds every
/// `period` seconds; `ranks` ranks each writing `bytes_per_rank` per phase.
tr::Trace periodic_trace(int phases, double period, double burst, int ranks,
                         std::uint64_t bytes_per_rank = 100'000'000) {
  tr::Trace t;
  t.app = "synthetic";
  t.rank_count = ranks;
  for (int p = 0; p < phases; ++p) {
    const double start = p * period;
    for (int r = 0; r < ranks; ++r) {
      t.requests.push_back(
          {r, start, start + burst, bytes_per_rank, tr::IoKind::kWrite});
    }
  }
  // Terminal compute phase so the trace spans full periods.
  t.requests.push_back({0, phases * period - 1e-3, phases * period, 1,
                        tr::IoKind::kWrite});
  return t;
}

/// Square bandwidth wave as a step function.
sig::StepFunction square_wave(int cycles, double period, double burst,
                              double height) {
  std::vector<double> times{0.0};
  std::vector<double> values;
  for (int c = 0; c < cycles; ++c) {
    const double t0 = c * period;
    times.push_back(t0 + burst);
    values.push_back(height);
    times.push_back(t0 + period);
    values.push_back(0.0);
  }
  return sig::StepFunction(std::move(times), std::move(values));
}

}  // namespace

// ---------------------------------------------------------------------------
// ACF refinement
// ---------------------------------------------------------------------------

TEST(AcfAnalysis, RecoversPeriodOfBurstTrain) {
  const double fs = 1.0;
  std::vector<double> x(400, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::fmod(static_cast<double>(i), 20.0) < 3.0) x[i] = 10.0;
  }
  const auto a = core::analyze_autocorrelation(x, fs);
  ASSERT_TRUE(a.found());
  EXPECT_NEAR(a.period, 20.0, 1.0);
  EXPECT_GT(a.confidence, 0.9);
  EXPECT_FALSE(a.raw_periods.empty());
  EXPECT_LE(a.candidate_periods.size(), a.raw_periods.size());
}

TEST(AcfAnalysis, NoPeaksMeansNotFound) {
  ftio::util::Rng rng(5);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  core::AcfOptions opts;
  opts.peak_threshold = 0.99;  // nothing reaches this
  const auto a = core::analyze_autocorrelation(x, 1.0, opts);
  EXPECT_FALSE(a.found());
  EXPECT_DOUBLE_EQ(a.confidence, 0.0);
}

TEST(AcfAnalysis, TinySignalHandled) {
  std::vector<double> x{1.0, 2.0};
  const auto a = core::analyze_autocorrelation(x, 1.0);
  EXPECT_FALSE(a.found());
}

TEST(AcfAnalysis, SimilarityHighWhenPeriodsAgree) {
  std::vector<double> x(400, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::fmod(static_cast<double>(i), 20.0) < 3.0) x[i] = 10.0;
  }
  const auto a = core::analyze_autocorrelation(x, 1.0);
  ASSERT_TRUE(a.found());
  EXPECT_GT(core::dft_acf_similarity(a, 20.0), 0.9);
  EXPECT_LT(core::dft_acf_similarity(a, 60.0), 0.7);
}

TEST(AcfAnalysis, SimilarityZeroWithoutCandidates) {
  core::AcfAnalysis empty;
  EXPECT_DOUBLE_EQ(core::dft_acf_similarity(empty, 10.0), 0.0);
}

TEST(AcfAnalysis, MergedConfidenceAveragesThree) {
  std::vector<double> x(400, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::fmod(static_cast<double>(i), 20.0) < 3.0) x[i] = 10.0;
  }
  const auto a = core::analyze_autocorrelation(x, 1.0);
  const double cd = 0.6;
  const double merged = core::merged_confidence(cd, a, 20.0);
  const double cs = core::dft_acf_similarity(a, 20.0);
  EXPECT_NEAR(merged, (cd + a.confidence + cs) / 3.0, 1e-12);
}

TEST(AcfAnalysis, MergedConfidenceFallsBackToDft) {
  core::AcfAnalysis empty;
  EXPECT_DOUBLE_EQ(core::merged_confidence(0.55, empty, 10.0), 0.55);
}

TEST(AcfAnalysis, RejectsBadFs) {
  std::vector<double> x(10, 1.0);
  EXPECT_THROW(core::analyze_autocorrelation(x, 0.0),
               ftio::util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Characterization metrics
// ---------------------------------------------------------------------------

TEST(Metrics, PerfectSquareWave) {
  // 25% duty cycle square wave: R_IO = 0.25, sigma_vol = sigma_time = 0.
  const auto f = square_wave(10, 20.0, 5.0, 8.0);
  const auto m = core::compute_metrics(f, 1.0 / 20.0);
  EXPECT_NEAR(m.time_ratio_io, 0.25, 1e-9);
  EXPECT_NEAR(m.sigma_vol, 0.0, 1e-9);
  EXPECT_NEAR(m.sigma_time, 0.0, 1e-9);
  EXPECT_NEAR(m.periodicity_score(), 1.0, 1e-9);
  EXPECT_NEAR(m.substantial_bandwidth, 8.0, 1e-9);
  EXPECT_EQ(m.period_count, 10u);
  // Every period carries burst*height = 40 units of data.
  EXPECT_NEAR(m.bytes_per_period, 40.0, 1e-6);
}

TEST(Metrics, ThresholdIsMeanVolumePerTime) {
  const auto f = square_wave(4, 10.0, 2.0, 5.0);
  const auto m = core::compute_io_ratio(f);
  // V(T)/L(T) = (4 phases * 2 s * 5)/40 s = 1.0
  EXPECT_NEAR(m.noise_threshold, 1.0, 1e-9);
  EXPECT_NEAR(m.time_ratio_io, 0.2, 1e-9);
  EXPECT_NEAR(m.substantial_bandwidth, 5.0, 1e-9);
}

TEST(Metrics, UnevenVolumesRaiseSigmaVol) {
  // Alternating strong/weak phases at the same cadence.
  std::vector<double> times{0.0};
  std::vector<double> values;
  for (int c = 0; c < 10; ++c) {
    const double t0 = c * 20.0;
    times.push_back(t0 + 5.0);
    values.push_back(c % 2 == 0 ? 10.0 : 2.0);
    times.push_back(t0 + 20.0);
    values.push_back(0.0);
  }
  const sig::StepFunction f(std::move(times), std::move(values));
  const auto m = core::compute_metrics(f, 1.0 / 20.0);
  EXPECT_GT(m.sigma_vol, 0.2);
  // Time behaviour is still perfectly periodic... but the weak phases sit
  // below the global threshold, so sigma_time rises as well — matching the
  // paper's observation that sigma metrics react to uneven volumes.
  EXPECT_LT(m.periodicity_score(), 0.8);
}

TEST(Metrics, LowBandwidthNoiseIsFilteredOut) {
  // Periodic tall bursts + constant low "log file" noise: noise sits below
  // the V/L threshold so R_IO counts only the bursts.
  std::vector<double> times{0.0};
  std::vector<double> values;
  for (int c = 0; c < 8; ++c) {
    const double t0 = c * 10.0;
    times.push_back(t0 + 1.0);
    values.push_back(100.0);     // burst
    times.push_back(t0 + 10.0);
    values.push_back(0.5);       // background noise
  }
  const sig::StepFunction f(std::move(times), std::move(values));
  const auto m = core::compute_metrics(f, 0.1);
  EXPECT_NEAR(m.time_ratio_io, 0.1, 0.02);
  EXPECT_GT(m.substantial_bandwidth, 50.0);
}

TEST(Metrics, TraceShorterThanPeriod) {
  const auto f = square_wave(1, 10.0, 2.0, 5.0);
  const auto m = core::compute_metrics(f, 1.0 / 20.0);  // period 20 > 10
  EXPECT_EQ(m.period_count, 0u);
}

TEST(Metrics, RejectsBadArguments) {
  const auto f = square_wave(2, 10.0, 2.0, 5.0);
  EXPECT_THROW(core::compute_metrics(f, 0.0), ftio::util::InvalidArgument);
  EXPECT_THROW(core::compute_metrics(sig::StepFunction{}, 1.0),
               ftio::util::InvalidArgument);
}

TEST(Metrics, ScoreClampedToUnitInterval) {
  core::PeriodicityMetrics m;
  m.sigma_vol = 0.5;
  m.sigma_time = 0.5;
  EXPECT_DOUBLE_EQ(m.periodicity_score(), 0.0);
  m.sigma_vol = 0.0;
  m.sigma_time = 0.0;
  EXPECT_DOUBLE_EQ(m.periodicity_score(), 1.0);
}

namespace full_scan {

// compute_metrics and compute_io_ratio as they were before measure_above
// learned to skip the segments outside [a, b): every call scans the whole
// curve. The oracle the windowed scan must match bit for bit.

struct Above {
  double length = 0.0;
  double volume = 0.0;
};

Above measure_above(const sig::StepFunction& f, double a, double b,
                    double threshold) {
  Above out;
  const auto times = f.times();
  const auto values = f.values();
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double lo = std::max(a, times[i]);
    const double hi = std::min(b, times[i + 1]);
    if (hi <= lo) continue;
    if (values[i] > threshold) {
      out.length += hi - lo;
      out.volume += values[i] * (hi - lo);
    }
  }
  return out;
}

core::PeriodicityMetrics io_ratio(const sig::StepFunction& bandwidth) {
  core::PeriodicityMetrics m;
  const double length = bandwidth.duration();
  m.noise_threshold = bandwidth.total_integral() / length;
  const auto s = measure_above(bandwidth, bandwidth.start_time(),
                               bandwidth.end_time(), m.noise_threshold);
  m.time_ratio_io = s.length / length;
  m.substantial_bandwidth = s.length > 0.0 ? s.volume / s.length : 0.0;
  return m;
}

core::PeriodicityMetrics metrics(const sig::StepFunction& bandwidth,
                                 double dominant_frequency) {
  core::PeriodicityMetrics m = io_ratio(bandwidth);
  const double length = bandwidth.duration();
  const double period = 1.0 / dominant_frequency;
  const auto count = static_cast<std::size_t>(length * dominant_frequency);
  m.period_count = count;
  if (count == 0) return m;
  const double t0 = bandwidth.start_time();
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
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double a = t0 + static_cast<double>(i) * period;
    const auto si = measure_above(bandwidth, a, a + period, m.noise_threshold);
    const double ratio = si.length / period;
    acc += (ratio - m.time_ratio_io) * (ratio - m.time_ratio_io);
  }
  m.sigma_time = std::sqrt(acc / static_cast<double>(count));
  const auto s_total = measure_above(bandwidth, bandwidth.start_time(),
                                     bandwidth.end_time(), m.noise_threshold);
  m.bytes_per_period = s_total.volume / (length * dominant_frequency);
  return m;
}

}  // namespace full_scan

namespace {

/// Empty when every field matches bit for bit; otherwise names the first
/// that differs.
std::string metrics_difference(const core::PeriodicityMetrics& got,
                               const core::PeriodicityMetrics& want) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  if (!same(got.sigma_vol, want.sigma_vol)) return "sigma_vol";
  if (!same(got.time_ratio_io, want.time_ratio_io)) return "time_ratio_io";
  if (!same(got.substantial_bandwidth, want.substantial_bandwidth)) {
    return "substantial_bandwidth";
  }
  if (!same(got.sigma_time, want.sigma_time)) return "sigma_time";
  if (!same(got.noise_threshold, want.noise_threshold)) {
    return "noise_threshold";
  }
  if (!same(got.bytes_per_period, want.bytes_per_period)) {
    return "bytes_per_period";
  }
  if (got.period_count != want.period_count) return "period_count";
  return {};
}

std::string full_scan_difference(const sig::StepFunction& f,
                                 double frequency) {
  const std::string ratio =
      metrics_difference(core::compute_io_ratio(f), full_scan::io_ratio(f));
  if (!ratio.empty()) return "io_ratio " + ratio;
  return metrics_difference(core::compute_metrics(f, frequency),
                            full_scan::metrics(f, frequency));
}

}  // namespace

TEST(Metrics, WindowedScanMatchesFullScanOnSeededCurves) {
  std::mt19937_64 rng(23);
  const auto unit = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  for (int c = 0; c < 2000; ++c) {
    const std::size_t segments = 1 + rng() % 300;
    std::vector<double> times{(unit() - 0.5) * 1000.0};
    std::vector<double> values;
    for (std::size_t i = 0; i < segments; ++i) {
      // Mostly short steps, some long gaps, some bursts and zeros.
      const double step = rng() % 8 == 0 ? 50.0 * unit() : 1e-3 + unit();
      times.push_back(times.back() + step);
      values.push_back(rng() % 3 == 0 ? 0.0 : 1e6 * unit() * unit());
    }
    const double length = times.back() - times.front();
    const sig::StepFunction f(std::move(times), std::move(values));
    // Periods from a fiftieth of the curve to past its length; every
    // tenth curve uses a period that divides one segment length, so
    // period edges land on boundaries.
    const double period = c % 10 == 0 ? f.times()[1] - f.times()[0]
                                      : length * (0.02 + 1.2 * unit());
    ASSERT_EQ(full_scan_difference(f, 1.0 / period), "") << "curve " << c;
  }
}

TEST(Metrics, WindowedScanMatchesFullScanOnEdgeCases) {
  // A single segment, with periods shorter than, equal to and longer
  // than it.
  const sig::StepFunction single({2.0, 7.0}, {3.0});
  for (const double period : {0.7, 1.0, 5.0, 9.0}) {
    EXPECT_EQ(full_scan_difference(single, 1.0 / period), "") << period;
  }
  // Period edges exactly on segment boundaries, the first period starting
  // on the first boundary.
  const auto wave = square_wave(6, 8.0, 2.0, 4.0);
  for (const double period : {2.0, 8.0, 16.0}) {
    EXPECT_EQ(full_scan_difference(wave, 1.0 / period), "") << period;
  }
  // The last period ends past the support: 0.2 + 7 * 0.1 + 0.1 rounds
  // above 1.0.
  const sig::StepFunction rounding({0.2, 0.5, 0.8, 1.0}, {5.0, 0.0, 9.0});
  ASSERT_GT(0.2 + 7.0 * 0.1 + 0.1, 1.0);
  ASSERT_EQ(core::compute_metrics(rounding, 10.0).period_count, 8u);
  EXPECT_EQ(full_scan_difference(rounding, 10.0), "");
  // A support starting below zero, and one starting at -0.0.
  const sig::StepFunction negative({-3.5, -1.0, -0.0, 2.0}, {1.0, 7.0, 2.0});
  EXPECT_EQ(full_scan_difference(negative, 1.0), "");
  const sig::StepFunction signed_zero({-0.0, 1.0, 3.0}, {6.0, 1.0});
  EXPECT_EQ(full_scan_difference(signed_zero, 2.0), "");
}

// ---------------------------------------------------------------------------
// End-to-end pipeline: trace -> detect
// ---------------------------------------------------------------------------

TEST(Detect, PeriodicTraceEndToEnd) {
  const auto t = periodic_trace(/*phases=*/12, /*period=*/20.0,
                                /*burst=*/3.0, /*ranks=*/8);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  const auto r = core::detect(t, opts);
  ASSERT_TRUE(r.periodic());
  EXPECT_NEAR(r.period(), 20.0, 1.0);
  EXPECT_GT(r.confidence(), 0.2);
  EXPECT_GT(r.refined_confidence, r.dft.confidence);  // ACF agrees, boosts it
  EXPECT_DOUBLE_EQ(r.confidence(), r.refined_confidence);
  ASSERT_TRUE(r.metrics.has_value());
  EXPECT_GT(r.metrics->periodicity_score(), 0.8);
  EXPECT_LT(r.abstraction_error, 0.05);
}

TEST(Detect, WindowRestrictsAnalysis) {
  // First half: period 20 s; second half: no I/O at all.
  auto t = periodic_trace(6, 20.0, 3.0, 4);
  t.requests.push_back({0, 400.0, 400.1, 5, tr::IoKind::kWrite});
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.window_end = 120.0;
  const auto r = core::detect(t, opts);
  ASSERT_TRUE(r.periodic());
  EXPECT_NEAR(r.period(), 20.0, 1.0);
  EXPECT_LE(r.window_end, 120.0 + 1e-9);
}

TEST(Detect, KindFilterSeparatesReadAndWrite) {
  // Writes every 20 s; reads every 31 s.
  tr::Trace t;
  t.rank_count = 1;
  for (int p = 0; p < 20; ++p) {
    t.requests.push_back(
        {0, p * 20.0, p * 20.0 + 2.0, 50'000'000, tr::IoKind::kWrite});
  }
  for (int p = 0; p < 13; ++p) {
    t.requests.push_back(
        {0, p * 31.0, p * 31.0 + 2.0, 50'000'000, tr::IoKind::kRead});
  }
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.kind = tr::IoKind::kWrite;
  const auto w = core::detect(t, opts);
  ASSERT_TRUE(w.periodic());
  EXPECT_NEAR(w.period(), 20.0, 1.5);
  opts.kind = tr::IoKind::kRead;
  const auto r = core::detect(t, opts);
  ASSERT_TRUE(r.periodic());
  EXPECT_NEAR(r.period(), 31.0, 2.0);
}

TEST(Detect, SkipFirstPhaseDropsProlongedInit) {
  // First phase lasts 15 s (init overhead), the rest 2 s every 20 s.
  tr::Trace t;
  t.rank_count = 1;
  t.requests.push_back({0, 0.0, 15.0, 150'000'000, tr::IoKind::kWrite});
  for (int p = 1; p < 12; ++p) {
    t.requests.push_back(
        {0, p * 20.0, p * 20.0 + 2.0, 20'000'000, tr::IoKind::kWrite});
  }
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.skip_first_phase = true;
  const auto r = core::detect(t, opts);
  ASSERT_TRUE(r.periodic());
  EXPECT_GE(r.window_start, 15.0 - 1e-9);
  EXPECT_NEAR(r.period(), 20.0, 1.0);
}

TEST(Detect, EmptyTraceThrows) {
  EXPECT_THROW(core::detect(tr::Trace{}, core::FtioOptions{}),
               ftio::util::InvalidArgument);
}

TEST(Detect, KeepSpectrumExposesBins) {
  const auto t = periodic_trace(10, 20.0, 3.0, 2);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.keep_spectrum = true;
  const auto r = core::detect(t, opts);
  ASSERT_TRUE(r.spectrum.has_value());
  EXPECT_EQ(r.spectrum->total_samples, r.sample_count);
}

TEST(Detect, AutocorrelationCanBeDisabled) {
  const auto t = periodic_trace(10, 20.0, 3.0, 2);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.with_autocorrelation = false;
  const auto r = core::detect(t, opts);
  EXPECT_FALSE(r.acf.has_value());
  EXPECT_DOUBLE_EQ(r.refined_confidence, r.confidence());
}

// ---------------------------------------------------------------------------
// Parameter selection
// ---------------------------------------------------------------------------

TEST(Parameters, SuggestFsFromSmallestRequest) {
  tr::Trace t;
  t.requests.push_back({0, 0.0, 0.5, 100, tr::IoKind::kWrite});
  t.requests.push_back({0, 1.0, 1.1, 100, tr::IoKind::kWrite});  // 0.1 s
  EXPECT_NEAR(core::suggest_sampling_frequency(t), 20.0, 1e-9);
}

TEST(Parameters, SuggestFsClamped) {
  tr::Trace t;
  t.requests.push_back({0, 0.0, 1e-9, 100, tr::IoKind::kWrite});
  EXPECT_DOUBLE_EQ(core::suggest_sampling_frequency(t, 0.01, 100.0), 100.0);
  tr::Trace empty;
  EXPECT_DOUBLE_EQ(core::suggest_sampling_frequency(empty, 0.5, 100.0), 0.5);
}

TEST(Parameters, FrequencyResolution) {
  EXPECT_DOUBLE_EQ(core::frequency_resolution(781.0), 1.0 / 781.0);
  EXPECT_THROW(core::frequency_resolution(0.0), ftio::util::InvalidArgument);
}

TEST(Parameters, FirstPhaseEnd) {
  const auto f = square_wave(3, 10.0, 2.0, 5.0);
  EXPECT_DOUBLE_EQ(core::first_phase_end(f), 2.0);
  // All-active curve: first phase never ends before the trace does.
  sig::StepFunction solid({0.0, 5.0}, {3.0});
  EXPECT_DOUBLE_EQ(core::first_phase_end(solid), 5.0);
}
