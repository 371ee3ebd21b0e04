#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "core/candidates.hpp"
#include "core/ftio.hpp"
#include "signal/spectrum.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace core = ftio::core;
namespace sig = ftio::signal;

namespace {

/// Square-wave bandwidth: bursts of `burst` seconds every `period` seconds,
/// amplitude `height`, sampled at `fs` for `seconds`. The canonical
/// periodic-I/O signal shape.
std::vector<double> bursty_signal(double period, double burst, double fs,
                                  double seconds, double height = 10.0,
                                  double noise = 0.0, std::uint64_t seed = 1) {
  ftio::util::Rng rng(seed);
  const auto n = static_cast<std::size_t>(seconds * fs);
  std::vector<double> x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    const double phase = std::fmod(t, period);
    if (phase < burst) x[i] = height;
    if (noise > 0.0) x[i] += rng.uniform(0.0, noise);
  }
  return x;
}

}  // namespace

// ---------------------------------------------------------------------------
// analyze_spectrum: decision rule
// ---------------------------------------------------------------------------

TEST(DftAnalysis, CleanPeriodicSignalIsPeriodic) {
  // Cosine at 0.1 Hz (period 10 s) with offset — a single spectral line.
  const double fs = 2.0;
  const auto n = static_cast<std::size_t>(200 * fs);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = 5.0 + std::cos(2.0 * std::numbers::pi * 0.1 * t);
  }
  const auto s = sig::compute_spectrum(x, fs);
  const auto a = core::analyze_spectrum(s);
  EXPECT_EQ(a.verdict, core::Periodicity::kPeriodic);
  ASSERT_TRUE(a.dominant_frequency.has_value());
  EXPECT_NEAR(*a.dominant_frequency, 0.1, s.frequency_step());
  EXPECT_NEAR(a.period(), 10.0, 0.6);
  EXPECT_GT(a.confidence, 0.3);
}

TEST(DftAnalysis, WhiteNoiseIsAperiodic) {
  ftio::util::Rng rng(77);
  std::vector<double> x(1024);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  const auto s = sig::compute_spectrum(x, 1.0);
  const auto a = core::analyze_spectrum(s);
  EXPECT_EQ(a.verdict, core::Periodicity::kAperiodic);
  EXPECT_FALSE(a.dominant_frequency.has_value());
  EXPECT_DOUBLE_EQ(a.period(), 0.0);
}

TEST(DftAnalysis, ConstantSignalIsAperiodic) {
  std::vector<double> x(256, 4.2);
  const auto s = sig::compute_spectrum(x, 1.0);
  const auto a = core::analyze_spectrum(s);
  EXPECT_EQ(a.verdict, core::Periodicity::kAperiodic);
  EXPECT_DOUBLE_EQ(a.max_zscore, 0.0);
}

TEST(DftAnalysis, TwoToneSignalIsPeriodicWithVariation) {
  // Two non-harmonic tones of similar power -> two candidates.
  const double fs = 2.0;
  const auto n = static_cast<std::size_t>(500 * fs);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = 5.0 + std::cos(2.0 * std::numbers::pi * 0.11 * t) +
           0.97 * std::cos(2.0 * std::numbers::pi * 0.17 * t);
  }
  const auto s = sig::compute_spectrum(x, fs);
  const auto a = core::analyze_spectrum(s);
  EXPECT_EQ(a.verdict, core::Periodicity::kPeriodicWithVariation);
  ASSERT_TRUE(a.dominant_frequency.has_value());
  // The stronger tone wins.
  EXPECT_NEAR(*a.dominant_frequency, 0.11, s.frequency_step());
}

TEST(DftAnalysis, ManyCandidatesMeansAperiodic) {
  // Four well-separated, equally strong, non-harmonic tones.
  const double fs = 2.0;
  const auto n = static_cast<std::size_t>(500 * fs);
  std::vector<double> x(n);
  const double tones[] = {0.11, 0.17, 0.23, 0.31};
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = 5.0;
    for (double f : tones) x[i] += std::cos(2.0 * std::numbers::pi * f * t);
  }
  const auto a = core::analyze_spectrum(sig::compute_spectrum(x, fs));
  EXPECT_EQ(a.verdict, core::Periodicity::kAperiodic);
  EXPECT_GE(a.candidates.size(), 3u);
}

TEST(DftAnalysis, HarmonicIsSuppressed) {
  // Fundamental at 0.1 Hz plus its 0.2 Hz octave: bursty I/O shape. The
  // harmonic must be ignored and the verdict stay periodic.
  const double fs = 2.0;
  const auto n = static_cast<std::size_t>(500 * fs);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = 5.0 + std::cos(2.0 * std::numbers::pi * 0.1 * t) +
           0.95 * std::cos(2.0 * std::numbers::pi * 0.2 * t);
  }
  core::CandidateOptions opts;
  opts.tolerance = 0.45;  // the Fig. 2 discussion's lowered tolerance
  const auto s = sig::compute_spectrum(x, fs);
  const auto a = core::analyze_spectrum(s, opts);
  EXPECT_EQ(a.verdict, core::Periodicity::kPeriodic);
  ASSERT_TRUE(a.dominant_frequency.has_value());
  EXPECT_NEAR(*a.dominant_frequency, 0.1, s.frequency_step());
  bool saw_suppressed = false;
  for (const auto& c : a.candidates) saw_suppressed |= c.harmonic_suppressed;
  EXPECT_TRUE(saw_suppressed);
}

TEST(DftAnalysis, BurstTrainDetectedDespiteHarmonics) {
  // A real burst train has many 2^m harmonics; detection must still lock
  // onto the fundamental.
  const auto x = bursty_signal(/*period=*/20.0, /*burst=*/2.0, /*fs=*/1.0,
                               /*seconds=*/400.0);
  const auto s = sig::compute_spectrum(x, 1.0);
  const auto a = core::analyze_spectrum(s);
  ASSERT_TRUE(a.dominant_frequency.has_value());
  EXPECT_NEAR(*a.dominant_frequency, 0.05, s.frequency_step());
}

TEST(DftAnalysis, ToleranceWidensCandidateSet) {
  const auto x = bursty_signal(20.0, 2.0, 1.0, 400.0);
  const auto s = sig::compute_spectrum(x, 1.0);
  core::CandidateOptions strict;
  strict.tolerance = 0.95;
  core::CandidateOptions loose;
  loose.tolerance = 0.2;
  EXPECT_LE(core::analyze_spectrum(s, strict).candidates.size(),
            core::analyze_spectrum(s, loose).candidates.size());
}

TEST(DftAnalysis, ConfidencesOfCandidatesSumBelowOne) {
  const auto x = bursty_signal(20.0, 5.0, 1.0, 400.0, 10.0, 0.5);
  const auto a = core::analyze_spectrum(sig::compute_spectrum(x, 1.0));
  double sum = 0.0;
  for (const auto& c : a.candidates) sum += c.confidence;
  EXPECT_LE(sum, 1.0 + 1e-9);
  for (const auto& c : a.candidates) {
    EXPECT_GE(c.confidence, 0.0);
    EXPECT_LE(c.confidence, 1.0);
  }
}

TEST(DftAnalysis, MeanBinContributionMatchesBinCount) {
  const auto x = bursty_signal(20.0, 2.0, 1.0, 100.0);
  const auto s = sig::compute_spectrum(x, 1.0);
  const auto a = core::analyze_spectrum(s);
  EXPECT_NEAR(a.mean_bin_contribution,
              1.0 / static_cast<double>(s.inspected_bins()), 1e-12);
}

TEST(DftAnalysis, RejectsBadTolerance) {
  const auto x = bursty_signal(20.0, 2.0, 1.0, 100.0);
  const auto s = sig::compute_spectrum(x, 1.0);
  core::CandidateOptions opts;
  opts.tolerance = 0.0;
  EXPECT_THROW(core::analyze_spectrum(s, opts), ftio::util::InvalidArgument);
  opts.tolerance = 1.5;
  EXPECT_THROW(core::analyze_spectrum(s, opts), ftio::util::InvalidArgument);
}

TEST(DftAnalysis, PeakRefinementNeverCrossesZeroHertz) {
  // Bin 1 is the only outlier, but the DC bin holds more power than it:
  // bin 1 is no local maximum, and the parabola through (p0, p1, p2) has
  // its vertex below 0 Hz. The refinement must keep the bin frequency.
  sig::Spectrum s;
  s.sampling_frequency = 1.0;
  s.total_samples = 128;
  const std::size_t bins = s.total_samples / 2 + 1;
  s.power.assign(bins, 0.01);
  s.power[0] = 180.0;
  s.power[1] = 100.0;
  s.power[2] = 0.0;
  double total = 0.0;
  for (double p : s.power) total += p;
  for (std::size_t k = 0; k < bins; ++k) {
    s.frequencies.push_back(static_cast<double>(k) * s.frequency_step());
    s.normed_power.push_back(s.power[k] / total);
  }
  s.amplitudes.assign(bins, 0.0);
  s.phases.assign(bins, 0.0);
  const double denom = s.power[0] - 2.0 * s.power[1] + s.power[2];
  const double vertex = 0.5 * (s.power[0] - s.power[2]) / denom;
  ASSERT_LT(denom, 0.0);
  ASSERT_LT(1.0 + vertex, 0.0);  // the unguarded vertex is negative

  core::CandidateOptions opts;
  opts.min_cycles = 1;
  const auto a = core::analyze_spectrum(s, opts);
  ASSERT_TRUE(a.dominant_frequency.has_value());
  EXPECT_GT(*a.dominant_frequency, 0.0);
  EXPECT_EQ(*a.dominant_frequency, s.frequencies[1]);
}

TEST(DftAnalysis, PeriodicityNames) {
  EXPECT_STREQ(core::periodicity_name(core::Periodicity::kPeriodic),
               "periodic");
  EXPECT_STREQ(
      core::periodicity_name(core::Periodicity::kPeriodicWithVariation),
      "periodic-with-variation");
  EXPECT_STREQ(core::periodicity_name(core::Periodicity::kAperiodic),
               "aperiodic");
}

// ---------------------------------------------------------------------------
// Detection accuracy sweep (property-style): FTIO must recover the period
// of burst trains across a parameter grid.
// ---------------------------------------------------------------------------

struct BurstCase {
  double period;
  double burst;
  double fs;
  double seconds;
};

class BurstDetection : public ::testing::TestWithParam<BurstCase> {};

TEST_P(BurstDetection, RecoversPeriodWithinOneBin) {
  const auto& c = GetParam();
  const auto x = bursty_signal(c.period, c.burst, c.fs, c.seconds);
  const auto s = sig::compute_spectrum(x, c.fs);
  const auto a = core::analyze_spectrum(s);
  ASSERT_TRUE(a.dominant_frequency.has_value())
      << "period=" << c.period << " burst=" << c.burst;
  EXPECT_NEAR(*a.dominant_frequency, 1.0 / c.period, s.frequency_step());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BurstDetection,
    ::testing::Values(BurstCase{10.0, 1.0, 1.0, 200.0},
                      BurstCase{10.0, 5.0, 1.0, 200.0},
                      BurstCase{25.0, 2.0, 1.0, 500.0},
                      BurstCase{50.0, 10.0, 1.0, 1000.0},
                      BurstCase{100.0, 10.0, 0.5, 2000.0},
                      BurstCase{8.0, 0.5, 10.0, 160.0},
                      BurstCase{111.67, 11.0, 10.0, 781.0},   // Fig. 2 shape
                      BurstCase{25.73, 1.0, 10.0, 380.0},     // Fig. 10 shape
                      BurstCase{4642.1, 300.0, 0.00625, 55000.0}  // Fig. 11
                      ));

class BurstDetectionNoisy : public ::testing::TestWithParam<double> {};

TEST_P(BurstDetectionNoisy, SurvivesUniformNoiseFloor) {
  const double noise = GetParam();
  const auto x = bursty_signal(20.0, 2.0, 1.0, 600.0, 10.0, noise, 99);
  const auto s = sig::compute_spectrum(x, 1.0);
  const auto a = core::analyze_spectrum(s);
  ASSERT_TRUE(a.dominant_frequency.has_value()) << "noise=" << noise;
  EXPECT_NEAR(*a.dominant_frequency, 0.05, s.frequency_step());
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, BurstDetectionNoisy,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0));
