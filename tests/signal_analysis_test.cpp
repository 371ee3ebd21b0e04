#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "core/ftio.hpp"
#include "signal/autocorrelation.hpp"
#include "signal/peaks.hpp"
#include "signal/spectrum.hpp"
#include "signal/step_function.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace core = ftio::core;
namespace sig = ftio::signal;

namespace {

/// Sampled cosine at frequency `f` Hz, amplitude 1, over `seconds` at `fs`.
std::vector<double> cosine(double f, double fs, double seconds,
                           double offset = 0.0) {
  const auto n = static_cast<std::size_t>(seconds * fs);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = offset + std::cos(2.0 * std::numbers::pi * f * t);
  }
  return x;
}

/// One discretisation as the pipeline runs it: the window
/// core::select_analysis_window picks over the whole curve, sampled by
/// core::discretize_window.
struct Discretized {
  core::AnalysisWindow window;
  std::vector<double> samples;
};

Discretized discretize(
    const sig::StepFunction& f, double fs,
    sig::SamplingMode mode = sig::SamplingMode::kPointSample) {
  core::FtioOptions opts;
  opts.sampling_frequency = fs;
  opts.sampling_mode = mode;
  Discretized d;
  d.window = core::select_analysis_window(f, opts);
  core::discretize_window(f, d.window, opts, 0, d.samples);
  return d;
}

/// The Sec. II-E abstraction error of discretising `f` at `fs`, as
/// analyze_bandwidth reports it.
double abstraction_error(const sig::StepFunction& f, double fs) {
  core::FtioOptions opts;
  opts.sampling_frequency = fs;
  opts.with_autocorrelation = false;
  return core::analyze_bandwidth(f, opts).abstraction_error;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

// ---------------------------------------------------------------------------
// Spectrum
// ---------------------------------------------------------------------------

TEST(Spectrum, FrequencyAxisFollowsFsOverN) {
  const auto x = cosine(1.0, 8.0, 4.0);  // N = 32
  const auto s = sig::compute_spectrum(x, 8.0);
  ASSERT_EQ(s.frequencies.size(), 17u);  // N/2 + 1
  EXPECT_DOUBLE_EQ(s.frequencies[0], 0.0);
  EXPECT_DOUBLE_EQ(s.frequencies[1], 0.25);  // fs/N = 8/32
  EXPECT_DOUBLE_EQ(s.frequencies.back(), 4.0);
  EXPECT_DOUBLE_EQ(s.frequency_step(), 0.25);
  EXPECT_EQ(s.inspected_bins(), 16u);
}

TEST(Spectrum, PureToneDominatesItsBin) {
  // 0.5 Hz tone sampled at 8 Hz for 32 s -> bin 16 of 256 samples.
  const auto x = cosine(0.5, 8.0, 32.0, 2.0);
  const auto s = sig::compute_spectrum(x, 8.0);
  std::size_t best = 1;
  for (std::size_t k = 2; k < s.power.size(); ++k) {
    if (s.power[k] > s.power[best]) best = k;
  }
  EXPECT_NEAR(s.frequencies[best], 0.5, 1e-9);
}

TEST(Spectrum, DcBinCapturesOffset) {
  std::vector<double> x(64, 3.0);
  const auto s = sig::compute_spectrum(x, 1.0);
  EXPECT_NEAR(s.amplitudes[0], 3.0 * 64.0, 1e-9);
  for (std::size_t k = 1; k < s.amplitudes.size(); ++k) {
    EXPECT_NEAR(s.amplitudes[k], 0.0, 1e-9);
  }
}

TEST(Spectrum, NormedPowerSumsToOne) {
  const auto x = cosine(0.25, 4.0, 64.0, 1.0);
  const auto s = sig::compute_spectrum(x, 4.0);
  double total = 0.0;
  for (double p : s.normed_power) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Spectrum, PowerIsAmplitudeSquaredOverN) {
  const auto x = cosine(0.25, 4.0, 16.0, 1.0);
  const auto s = sig::compute_spectrum(x, 4.0);
  for (std::size_t k = 0; k < s.power.size(); ++k) {
    EXPECT_NEAR(s.power[k],
                s.amplitudes[k] * s.amplitudes[k] / static_cast<double>(x.size()),
                1e-9);
  }
}

TEST(Spectrum, ParsevalEnergyConservation) {
  // Parseval over the single-sided layout: sum_n x_n^2 must equal the
  // total single-sided power p_0 [+ p_{N/2} for even N] + 2*sum of the
  // interior bins (each interior bin owns a conjugate twin that the
  // packed half-spectrum transform never materialises). Checked for even
  // and odd N so the Nyquist-bin bookkeeping is exercised both ways.
  for (std::size_t n : {32u, 33u, 97u, 360u, 1024u}) {
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i);
      x[i] = 2.5 + std::cos(0.37 * t) + 0.5 * std::sin(1.13 * t + 0.2);
    }
    const auto s = sig::compute_spectrum(x, 4.0);

    double time_energy = 0.0;
    for (double v : x) time_energy += v * v;

    const std::size_t half = n / 2;
    double freq_energy = s.power[0];
    for (std::size_t k = 1; k <= half; ++k) {
      const bool has_twin = !(n % 2 == 0 && k == half);
      freq_energy += (has_twin ? 2.0 : 1.0) * s.power[k];
    }
    EXPECT_NEAR(freq_energy, time_energy, 1e-8 * time_energy)
        << "n = " << n;
  }
}

TEST(Spectrum, ParsevalHoldsAcrossBlockedBitrevThreshold) {
  // Large power-of-two spectrum: the packed real transform inside
  // compute_spectrum runs a 2^17-point half transform, crossing the
  // cache-blocked bit-reversal threshold, and the whole path is planar
  // end-to-end. Parseval over the single-sided layout pins it.
  const std::size_t n = std::size_t{1} << 18;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x[i] = 1.25 + std::cos(0.0037 * t) + 0.25 * std::sin(0.41 * t + 0.7);
  }
  const auto s = sig::compute_spectrum(x, 10.0);

  double time_energy = 0.0;
  for (double v : x) time_energy += v * v;

  const std::size_t half = n / 2;
  double freq_energy = s.power[0] + s.power[half];
  for (std::size_t k = 1; k < half; ++k) freq_energy += 2.0 * s.power[k];
  EXPECT_NEAR(freq_energy, time_energy, 1e-8 * time_energy);
}

TEST(Spectrum, RejectsBadArguments) {
  EXPECT_THROW(sig::compute_spectrum(std::vector<double>{}, 1.0),
               ftio::util::InvalidArgument);
  EXPECT_THROW(sig::compute_spectrum(std::vector<double>{1.0}, 0.0),
               ftio::util::InvalidArgument);
  // Non-finite fs: +inf used to pass and yield frequencies[0] = NaN.
  for (const double fs : {std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(sig::compute_spectrum(std::vector<double>{1.0, 2.0}, fs),
                 ftio::util::InvalidArgument)
        << "fs=" << fs;
  }
}

TEST(Spectrum, ReconstructionMatchesEq1) {
  // Sum of all single-sided waves must reproduce the original signal.
  const double fs = 4.0;
  std::vector<double> x = cosine(0.5, fs, 8.0, 5.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] += 0.4 * std::cos(2.0 * std::numbers::pi * 1.0 *
                           (static_cast<double>(i) / fs));
  }
  const auto s = sig::compute_spectrum(x, fs);
  std::vector<sig::CosineWave> waves;
  for (std::size_t k = 1; k < s.frequencies.size(); ++k) {
    waves.push_back(sig::wave_for_bin(s, k));
  }
  const double dc = sig::wave_for_bin(s, 0).amplitude *
                    std::cos(sig::wave_for_bin(s, 0).phase);
  const auto rebuilt = sig::synthesize(waves, dc, fs, x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(rebuilt[i], x[i], 1e-6) << "sample " << i;
  }
}

TEST(Spectrum, EvenLengthNyquistRoundTripIsExact) {
  // Energy exactly at the Nyquist bin: x alternates sign each sample. For
  // even N the Nyquist bin, like DC, has no conjugate twin, so Eq. (1)
  // must not double it — the round trip is then exact to rounding.
  const double fs = 4.0;
  const std::size_t n = 32;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = 5.0 + std::cos(2.0 * std::numbers::pi * 0.5 * t) +
           0.7 * std::cos(2.0 * std::numbers::pi * 2.0 * t);  // fs/2 tone
  }
  const auto s = sig::compute_spectrum(x, fs);
  ASSERT_EQ(s.frequencies.size(), n / 2 + 1);
  std::vector<sig::CosineWave> waves;
  for (std::size_t k = 1; k < s.frequencies.size(); ++k) {
    waves.push_back(sig::wave_for_bin(s, k));
  }
  // The Nyquist wave carries the bare |X_k|/N amplitude.
  EXPECT_NEAR(waves.back().amplitude, 0.7, 1e-9);
  const double dc = sig::wave_for_bin(s, 0).amplitude *
                    std::cos(sig::wave_for_bin(s, 0).phase);
  const auto rebuilt = sig::synthesize(waves, dc, fs, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(rebuilt[i], x[i], 1e-12) << "sample " << i;
  }
}

// ---------------------------------------------------------------------------
// StepFunction
// ---------------------------------------------------------------------------

TEST(StepFunction, ValueLookup) {
  sig::StepFunction f({0.0, 1.0, 3.0}, {2.0, 5.0});
  EXPECT_DOUBLE_EQ(f.value_at(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(f.value_at(0.0), 2.0);
  EXPECT_DOUBLE_EQ(f.value_at(0.999), 2.0);
  EXPECT_DOUBLE_EQ(f.value_at(1.0), 5.0);
  EXPECT_DOUBLE_EQ(f.value_at(2.5), 5.0);
  EXPECT_DOUBLE_EQ(f.value_at(3.0), 0.0);  // right-open support
}

TEST(StepFunction, IntegralExact) {
  sig::StepFunction f({0.0, 1.0, 3.0}, {2.0, 5.0});
  EXPECT_DOUBLE_EQ(f.total_integral(), 2.0 + 10.0);
  EXPECT_DOUBLE_EQ(f.integral(0.5, 2.0), 1.0 + 5.0);
  EXPECT_DOUBLE_EQ(f.integral(-5.0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(f.integral(2.0, 99.0), 5.0);
  EXPECT_DOUBLE_EQ(f.integral(2.0, 2.0), 0.0);
}

TEST(StepFunction, ValidatesConstruction) {
  EXPECT_THROW(sig::StepFunction({0.0, 1.0}, {1.0, 2.0}),
               ftio::util::InvalidArgument);
  EXPECT_THROW(sig::StepFunction({1.0, 1.0}, {2.0}),
               ftio::util::InvalidArgument);
  EXPECT_THROW(sig::StepFunction({2.0, 1.0}, {2.0}),
               ftio::util::InvalidArgument);
}

TEST(StepFunction, EmptyBehaviour) {
  sig::StepFunction f;
  EXPECT_TRUE(f.empty());
  EXPECT_DOUBLE_EQ(f.value_at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(f.total_integral(), 0.0);
  EXPECT_DOUBLE_EQ(f.max_value(), 0.0);
}

TEST(StepFunction, MaxValue) {
  sig::StepFunction f({0.0, 1.0, 2.0, 3.0}, {1.0, 9.0, 4.0});
  EXPECT_DOUBLE_EQ(f.max_value(), 9.0);
}

TEST(StepFunction, TrimFrontDropsPrefixBitExact) {
  sig::StepFunction f({0.0, 1.0, 2.0, 3.0, 4.0}, {1.5, 9.25, 4.125, 7.0});
  f.trim_front(2);
  ASSERT_EQ(f.segment_count(), 2u);
  EXPECT_DOUBLE_EQ(f.start_time(), 2.0);
  EXPECT_DOUBLE_EQ(f.end_time(), 4.0);
  // Retained entries are the exact same doubles, evicted times read as 0.
  EXPECT_EQ(f.times()[0], 2.0);
  EXPECT_EQ(f.values()[0], 4.125);
  EXPECT_EQ(f.values()[1], 7.0);
  EXPECT_DOUBLE_EQ(f.value_at(1.5), 0.0);
  EXPECT_DOUBLE_EQ(f.value_at(2.5), 4.125);
}

TEST(StepFunction, TrimFrontZeroIsNoop) {
  sig::StepFunction f({0.0, 1.0, 2.0}, {3.0, 4.0});
  f.trim_front(0);
  EXPECT_EQ(f.segment_count(), 2u);
  EXPECT_DOUBLE_EQ(f.start_time(), 0.0);
}

TEST(StepFunction, ShrinkToFitPreservesContents) {
  std::vector<double> times{0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> values{1.0, 2.0, 3.0, 4.0, 5.0};
  times.reserve(1000);
  values.reserve(1000);
  sig::StepFunction f(std::move(times), std::move(values));
  const std::size_t before = f.memory_bytes();
  f.trim_front(3);
  f.shrink_to_fit();
  EXPECT_LT(f.memory_bytes(), before);
  EXPECT_DOUBLE_EQ(f.value_at(3.5), 4.0);
  EXPECT_DOUBLE_EQ(f.value_at(4.5), 5.0);
}

// ---------------------------------------------------------------------------
// Discretisation
// ---------------------------------------------------------------------------

TEST(Discretize, PointSamplingMatchesDefinition) {
  sig::StepFunction f({0.0, 1.0, 2.0}, {4.0, 8.0});
  const auto d = discretize(f, 2.0);
  // Samples at t = 0, 0.5, 1.0, 1.5.
  ASSERT_EQ(d.samples.size(), 4u);
  EXPECT_DOUBLE_EQ(d.samples[0], 4.0);
  EXPECT_DOUBLE_EQ(d.samples[1], 4.0);
  EXPECT_DOUBLE_EQ(d.samples[2], 8.0);
  EXPECT_DOUBLE_EQ(d.samples[3], 8.0);
  EXPECT_NEAR(abstraction_error(f, 2.0), 0.0, 1e-12);
}

TEST(Discretize, BinAverageIntegratesBins) {
  sig::StepFunction f({0.0, 0.5, 1.0}, {2.0, 6.0});
  const auto d = discretize(f, 1.0, sig::SamplingMode::kBinAverage);
  ASSERT_EQ(d.samples.size(), 1u);
  EXPECT_DOUBLE_EQ(d.samples[0], 4.0);
}

TEST(Discretize, UnderSamplingInflatesAbstractionError) {
  // A 1 ms burst of 1000 units: sampling at 1 Hz either misses it entirely
  // or wildly overestimates the volume -> abstraction error near 1 or huge.
  sig::StepFunction f({0.0, 0.001, 10.0}, {1000.0, 0.0});
  EXPECT_GT(abstraction_error(f, 1.0), 0.5);
  // Sampling well above the burst rate recovers the volume.
  EXPECT_LT(abstraction_error(f, 10000.0), 0.05);
}

TEST(Discretize, SampleCountIsCeilOfDurationTimesFs) {
  sig::StepFunction f({0.0, 2.5}, {1.0});
  EXPECT_EQ(discretize(f, 2.0).samples.size(), 5u);
  EXPECT_EQ(discretize(f, 1.0).samples.size(), 3u);  // ceil(2.5)
}

TEST(Discretize, NonZeroStartTimeHandled) {
  sig::StepFunction f({10.0, 11.0, 12.0}, {3.0, 7.0});
  const auto d = discretize(f, 1.0);
  ASSERT_EQ(d.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(d.window.start, 10.0);
  EXPECT_DOUBLE_EQ(d.samples[0], 3.0);
  EXPECT_DOUBLE_EQ(d.samples[1], 7.0);
}

TEST(Discretize, RejectsBadArguments) {
  sig::StepFunction f({0.0, 1.0}, {1.0});
  EXPECT_THROW(discretize(f, 0.0), ftio::util::InvalidArgument);
  // A negative fs once sized the grid from a negative count cast to
  // size_t (2^64 - 10 samples for fs = -5 over a 2 s curve).
  sig::StepFunction two_seconds({0.0, 2.0}, {1.0});
  EXPECT_THROW(discretize(two_seconds, -5.0), ftio::util::InvalidArgument);
  EXPECT_THROW(discretize(f, std::numeric_limits<double>::quiet_NaN()),
               ftio::util::InvalidArgument);
  EXPECT_THROW(discretize(sig::StepFunction{}, 1.0),
               ftio::util::InvalidArgument);
}

TEST(Discretize, EqualsPerSampleDefinitionBitForBit) {
  // discretize_window samples in one forward pass; the definition is one
  // value_at / integral lookup per sample. Seeded random curves and
  // windows, both modes, against that definition bit for bit. Boundaries
  // sit on the sample grid a third of the time (at fs = 4 Hz every grid
  // time is exact, so samples and bin ends land on them), and runs of
  // sub-sample segments make one sample step cross many boundaries.
  // Windows may start before the support and end after it; half the
  // curves are trimmed at the front first.
  ftio::util::Rng rng(25);
  std::size_t exact_hits = 0;
  std::size_t before_support = 0;
  std::size_t past_support = 0;
  std::size_t trimmed = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const double fs = iter % 2 == 0 ? 4.0 : rng.uniform(0.3, 20.0);
    const double dt = 1.0 / fs;
    const double origin = static_cast<double>(rng.uniform_int(-20, 20));
    const auto segments = rng.uniform_int(1, 300);
    std::vector<double> times{origin};
    std::vector<double> values;
    double grid_pos = 0.0;  // boundary position in sample steps
    for (std::int64_t k = 0; k < segments; ++k) {
      switch (rng.uniform_int(0, 2)) {
        case 0:
          grid_pos = std::floor(grid_pos) +
                     static_cast<double>(rng.uniform_int(1, 3));
          break;
        case 1:
          grid_pos += rng.uniform(0.01, 0.3);
          break;
        default:
          grid_pos += rng.uniform(0.3, 3.0);
      }
      times.push_back(origin + grid_pos * dt);
      values.push_back(rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 1e9));
    }
    sig::StepFunction f(times, values);
    if (segments > 1 && rng.bernoulli(0.5)) {
      f.trim_front(static_cast<std::size_t>(rng.uniform_int(1, segments - 1)));
      ++trimmed;
    }
    const auto boundaries = f.times();

    // Anchored on the grid, from before the support start to past the
    // retained one.
    const double start =
        origin + static_cast<double>(rng.uniform_int(-8, segments)) * dt;
    const double end =
        start + dt * rng.uniform(0.5, 2.0 * static_cast<double>(segments));
    const auto n = static_cast<std::size_t>(std::ceil((end - start) * fs));
    const core::AnalysisWindow window{start, end, n};
    if (start < f.start_time()) ++before_support;
    if (end > f.end_time()) ++past_support;

    for (const auto mode :
         {sig::SamplingMode::kPointSample, sig::SamplingMode::kBinAverage}) {
      core::FtioOptions opts;
      opts.sampling_frequency = fs;
      opts.sampling_mode = mode;
      // Entries below `first` must be left as they are.
      const auto first = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) / 4));
      constexpr double kUntouched = -1.0;
      std::vector<double> samples(first, kUntouched);
      core::discretize_window(f, window, opts, first, samples);
      ASSERT_EQ(samples.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double t = start + static_cast<double>(i) * dt;
        double expected = kUntouched;
        if (i >= first && mode == sig::SamplingMode::kPointSample) {
          expected = f.value_at(t);
        } else if (i >= first) {
          const double b = std::min(t + dt, end);
          expected = b > t ? f.integral(t, b) / (b - t) : 0.0;
        }
        if (std::binary_search(boundaries.begin(), boundaries.end(), t)) {
          ++exact_hits;
        }
        ASSERT_EQ(bits(samples[i]), bits(expected))
            << "iter " << iter << " sample " << i << " of " << n;
      }
    }
  }
  // The seeded draws reach every case the test names.
  EXPECT_GT(exact_hits, 1000u);
  EXPECT_GT(before_support, 20u);
  EXPECT_GT(past_support, 20u);
  EXPECT_GT(trimmed, 100u);
}

// ---------------------------------------------------------------------------
// Autocorrelation
// ---------------------------------------------------------------------------

TEST(Autocorrelation, LagZeroIsOne) {
  const auto x = cosine(0.5, 8.0, 16.0, 1.0);
  const auto acf = sig::autocorrelation(x);
  EXPECT_NEAR(acf[0], 1.0, 1e-12);
}

TEST(Autocorrelation, ValuesBoundedByOne) {
  const auto x = cosine(0.3, 4.0, 50.0, 2.0);
  for (double v : sig::autocorrelation(x)) {
    EXPECT_LE(std::abs(v), 1.0 + 1e-9);
  }
}

TEST(Autocorrelation, PeriodicSignalPeaksAtPeriod) {
  // 0.25 Hz tone at fs = 8 Hz -> period of 32 samples.
  const auto x = cosine(0.25, 8.0, 64.0);
  const auto acf = sig::autocorrelation(x);
  sig::PeakOptions options;
  options.min_height = 0.5;
  const auto peaks = sig::find_peaks(acf, options);
  ASSERT_FALSE(peaks.empty());
  EXPECT_NEAR(static_cast<double>(peaks.front().index), 32.0, 1.0);
}

TEST(Autocorrelation, CenteredVariantRemovesDc) {
  std::vector<double> x(128, 5.0);  // constant signal
  const auto raw = sig::autocorrelation(x);
  // Raw ACF of a constant stays ~1 at every lag0-normalised shifted overlap.
  EXPECT_GT(raw[10], 0.8);
  const auto centered = sig::autocorrelation_centered(x);
  EXPECT_NEAR(centered[10], 0.0, 1e-9);
}

TEST(Autocorrelation, EmptyThrows) {
  EXPECT_THROW(sig::autocorrelation(std::vector<double>{}),
               ftio::util::InvalidArgument);
}

TEST(Autocorrelation, MatchesDirectComputation) {
  const auto x = cosine(0.4, 4.0, 10.0, 0.5);
  const auto fast = sig::autocorrelation(x);
  // Direct O(N^2) reference.
  const std::size_t n = x.size();
  std::vector<double> direct(n, 0.0);
  for (std::size_t lag = 0; lag < n; ++lag) {
    for (std::size_t i = 0; i + lag < n; ++i) direct[lag] += x[i] * x[i + lag];
  }
  for (std::size_t lag = 1; lag < n; ++lag) direct[lag] /= direct[0];
  direct[0] = 1.0;
  for (std::size_t lag = 0; lag < n; ++lag) {
    EXPECT_NEAR(fast[lag], direct[lag], 1e-9) << "lag " << lag;
  }
}

TEST(FindPeaks, DetectsSimpleMaxima) {
  const std::vector<double> v{0, 1, 0, 2, 0, 3, 0};
  const auto peaks = sig::find_peaks(v);
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_EQ(peaks[0].index, 1u);
  EXPECT_EQ(peaks[1].index, 3u);
  EXPECT_EQ(peaks[2].index, 5u);
}

TEST(FindPeaks, EndpointsAreNotPeaks) {
  const std::vector<double> v{5, 1, 0, 1, 9};
  const auto peaks = sig::find_peaks(v);
  EXPECT_TRUE(peaks.empty());
}

TEST(FindPeaks, PlateauReportsMiddle) {
  const std::vector<double> v{0, 1, 2, 2, 2, 1, 0};
  const auto peaks = sig::find_peaks(v);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 3u);
}

TEST(FindPeaks, HeightFilter) {
  const std::vector<double> v{0, 1, 0, 5, 0};
  sig::PeakOptions options;
  options.min_height = 2.0;
  const auto peaks = sig::find_peaks(v, options);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 3u);
}

TEST(FindPeaks, ThresholdFilter) {
  // Peak at 3 rises only 0.5 above its neighbours.
  const std::vector<double> v{0, 2.0, 1.5, 2.0, 0, 5, 0};
  sig::PeakOptions options;
  options.min_threshold = 1.0;
  const auto peaks = sig::find_peaks(v, options);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 5u);
}

TEST(FindPeaks, DistanceFilterKeepsHighest) {
  // Peaks at 1 (h=3), 3 (h=5), 5 (h=4); distance 3 removes both neighbours
  // of the tallest peak (gaps of 2 samples).
  const std::vector<double> v{0, 3, 0, 5, 0, 4, 0};
  sig::PeakOptions options;
  options.min_distance = 3;
  const auto peaks = sig::find_peaks(v, options);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 3u);
}

TEST(FindPeaks, DistanceFilterKeepsFarApartPeaks) {
  const std::vector<double> v{0, 3, 0, 0, 0, 4, 0};
  sig::PeakOptions options;
  options.min_distance = 3;
  const auto peaks = sig::find_peaks(v, options);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0].index, 1u);
  EXPECT_EQ(peaks[1].index, 5u);
}

TEST(FindPeaks, ProminenceComputedAgainstHigherGround) {
  // Small bump on the flank of a big peak has low prominence.
  const std::vector<double> v{0, 10, 4, 5, 4, 0};
  const auto peaks = sig::find_peaks(v);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_DOUBLE_EQ(peaks[0].prominence, 10.0);
  EXPECT_DOUBLE_EQ(peaks[1].prominence, 1.0);
  sig::PeakOptions options;
  options.min_prominence = 2.0;
  const auto prominent = sig::find_peaks(v, options);
  ASSERT_EQ(prominent.size(), 1u);
  EXPECT_EQ(prominent[0].index, 1u);
}

TEST(FindPeaks, ShortInputHasNoPeaks) {
  EXPECT_TRUE(sig::find_peaks(std::vector<double>{1.0, 2.0}).empty());
  EXPECT_TRUE(sig::find_peaks(std::vector<double>{}).empty());
}
