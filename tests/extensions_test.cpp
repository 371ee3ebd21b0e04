// Tests for the extensions the paper names as future work (Sec. VI):
// wavelet-based time-frequency characterization, per-rank analysis, and
// online sampling-frequency adaptation.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "core/online.hpp"
#include "core/per_rank.hpp"
#include "engine/streaming.hpp"
#include "signal/wavelet.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"

namespace sig = ftio::signal;
namespace core = ftio::core;
namespace tr = ftio::trace;

namespace {

/// Signal whose dominant frequency switches from f1 to f2 halfway.
std::vector<double> switching_tone(double f1, double f2, double fs,
                                   double seconds) {
  const auto n = static_cast<std::size_t>(seconds * fs);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    const double f = i < n / 2 ? f1 : f2;
    x[i] = 2.0 + std::cos(2.0 * std::numbers::pi * f * t);
  }
  return x;
}

}  // namespace

// ---------------------------------------------------------------------------
// Morlet CWT
// ---------------------------------------------------------------------------

TEST(Wavelet, LogSpacedFrequencies) {
  const auto f = sig::log_spaced_frequencies(0.01, 1.0, 5);
  ASSERT_EQ(f.size(), 5u);
  EXPECT_NEAR(f.front(), 0.01, 1e-12);
  EXPECT_NEAR(f.back(), 1.0, 1e-9);
  // Log spacing: constant ratio.
  const double ratio = f[1] / f[0];
  for (std::size_t i = 2; i < f.size(); ++i) {
    EXPECT_NEAR(f[i] / f[i - 1], ratio, 1e-9);
  }
  EXPECT_THROW(sig::log_spaced_frequencies(0.0, 1.0, 5),
               ftio::util::InvalidArgument);
  EXPECT_THROW(sig::log_spaced_frequencies(0.1, 1.0, 1),
               ftio::util::InvalidArgument);
}

TEST(Wavelet, PureToneConcentratesAtItsFrequency) {
  const double fs = 4.0;
  std::vector<double> x(512);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::cos(2.0 * std::numbers::pi * 0.25 * static_cast<double>(i) / fs);
  }
  const auto freqs = sig::log_spaced_frequencies(0.05, 1.0, 16);
  const auto cwt = sig::morlet_cwt(x, fs, freqs);
  ASSERT_EQ(cwt.power.size(), 16u);
  ASSERT_EQ(cwt.time_steps(), x.size());
  const auto dom = cwt.frequencies[cwt.dominant_row()];
  EXPECT_NEAR(dom, 0.25, 0.05);
}

TEST(Wavelet, DcOffsetIsRemoved) {
  // A constant signal must produce (near) zero scalogram power.
  std::vector<double> x(256, 7.0);
  const auto freqs = sig::log_spaced_frequencies(0.05, 0.5, 8);
  const auto cwt = sig::morlet_cwt(x, 1.0, freqs);
  for (const auto& row : cwt.power) {
    for (double p : row) EXPECT_NEAR(p, 0.0, 1e-12);
  }
}

TEST(Wavelet, TracksFrequencySwitch) {
  const double fs = 4.0;
  const auto x = switching_tone(0.1, 0.4, fs, 512.0);
  const auto freqs = sig::log_spaced_frequencies(0.05, 1.0, 24);
  const auto cwt = sig::morlet_cwt(x, fs, freqs);
  const auto dom = cwt.dominant_frequency_over_time();
  // Away from the edges and the switch, the instantaneous dominant
  // frequency should match the active tone.
  const std::size_t n = dom.size();
  EXPECT_NEAR(dom[n / 4], 0.1, 0.04);
  EXPECT_NEAR(dom[3 * n / 4], 0.4, 0.12);
}

TEST(Wavelet, ChangePointNearTheSwitch) {
  const double fs = 4.0;
  const auto x = switching_tone(0.1, 0.4, fs, 512.0);
  const auto freqs = sig::log_spaced_frequencies(0.05, 1.0, 24);
  const auto cwt = sig::morlet_cwt(x, fs, freqs);
  const auto change = sig::strongest_change_point(cwt, 64);
  const std::size_t n = cwt.time_steps();
  ASSERT_TRUE(change.has_value());
  EXPECT_NEAR(static_cast<double>(*change), static_cast<double>(n) / 2.0,
              static_cast<double>(n) * 0.1);
}

TEST(Wavelet, NoChangePointInStationarySignal) {
  const double fs = 4.0;
  std::vector<double> x(1024);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::cos(2.0 * std::numbers::pi * 0.2 * static_cast<double>(i) / fs);
  }
  const auto freqs = sig::log_spaced_frequencies(0.05, 1.0, 16);
  const auto cwt = sig::morlet_cwt(x, fs, freqs);
  // "no shift" is nullopt, not index 0, so a genuine shift near the start
  // of the signal stays distinguishable.
  EXPECT_FALSE(sig::strongest_change_point(cwt, 128).has_value());
}

TEST(Wavelet, ScaleInvariantPowerOnPureSinusoid) {
  // Same-amplitude tones at very different frequencies must produce the
  // same peak scalogram power in their matching rows (L2-normalised
  // Morlet + the 1/s scale rectification); without the rectification the
  // low-frequency tone would read ~8x stronger here.
  const double fs = 4.0;
  const std::vector<double> freqs{0.05, 0.1, 0.2, 0.4};
  auto peak_power_of_tone = [&](double f0) {
    std::vector<double> x(2048);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] =
          std::cos(2.0 * std::numbers::pi * f0 * static_cast<double>(i) / fs);
    }
    const auto cwt = sig::morlet_cwt(x, fs, freqs);
    std::size_t row = 0;
    for (std::size_t r = 0; r < freqs.size(); ++r) {
      if (freqs[r] == f0) row = r;
    }
    EXPECT_EQ(cwt.dominant_row(), row);
    return cwt.power[row][x.size() / 2];  // centre: no edge effects
  };
  const double low = peak_power_of_tone(0.05);
  const double high = peak_power_of_tone(0.4);
  ASSERT_GT(low, 0.0);
  EXPECT_NEAR(high / low, 1.0, 0.05);
}

TEST(Wavelet, ResultIndependentOfThreadCount) {
  // 40 scale rows split into several batch tiles (the rows run through
  // the plan's batched inverse, fanned over workers tile-wise), so this
  // exercises the tile x thread interleaving — tile boundaries depend
  // only on the row index and batch rows are bit-identical to per-row
  // calls, hence the exact equality.
  const double fs = 4.0;
  const auto x = switching_tone(0.1, 0.4, fs, 256.0);
  const auto freqs = sig::log_spaced_frequencies(0.05, 1.0, 40);
  const auto serial = sig::morlet_cwt(x, fs, freqs, 6.0, 1);
  const auto parallel = sig::morlet_cwt(x, fs, freqs, 6.0, 4);
  const auto parallel3 = sig::morlet_cwt(x, fs, freqs, 6.0, 3);
  ASSERT_EQ(serial.power.size(), parallel.power.size());
  for (std::size_t f = 0; f < serial.power.size(); ++f) {
    for (std::size_t i = 0; i < serial.power[f].size(); ++i) {
      EXPECT_EQ(serial.power[f][i], parallel.power[f][i]);
      EXPECT_EQ(serial.power[f][i], parallel3.power[f][i]);
    }
  }
}

TEST(Wavelet, RejectsBadArguments) {
  std::vector<double> x(16, 1.0);
  std::vector<double> freqs{0.1};
  EXPECT_THROW(sig::morlet_cwt({}, 1.0, freqs), ftio::util::InvalidArgument);
  EXPECT_THROW(sig::morlet_cwt(x, 0.0, freqs), ftio::util::InvalidArgument);
  EXPECT_THROW(sig::morlet_cwt(x, 1.0, {}), ftio::util::InvalidArgument);
  std::vector<double> bad{-0.1};
  EXPECT_THROW(sig::morlet_cwt(x, 1.0, bad), ftio::util::InvalidArgument);
  // Non-finite fs, omega0 and frequencies: +inf used to pass and yield
  // NaN power rows (inf frequency or omega0) or an all-zero scalogram
  // (inf fs).
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {inf, nan}) {
    EXPECT_THROW(sig::morlet_cwt(x, v, freqs), ftio::util::InvalidArgument)
        << "fs=" << v;
    EXPECT_THROW(sig::morlet_cwt(x, 1.0, freqs, v),
                 ftio::util::InvalidArgument)
        << "omega0=" << v;
    const std::vector<double> non_finite{0.1, v};
    EXPECT_THROW(sig::morlet_cwt(x, 1.0, non_finite),
                 ftio::util::InvalidArgument)
        << "frequency=" << v;
  }
}

// ---------------------------------------------------------------------------
// Per-rank analysis
// ---------------------------------------------------------------------------

TEST(PerRank, DifferentRanksDifferentPeriods) {
  // Rank 0 writes every 10 s, rank 1 every 16 s, rank 2 never.
  tr::Trace t;
  t.rank_count = 3;
  for (int p = 0; p < 24; ++p) {
    t.requests.push_back(
        {0, p * 10.0, p * 10.0 + 1.5, 30'000'000, tr::IoKind::kWrite});
  }
  for (int p = 0; p < 15; ++p) {
    t.requests.push_back(
        {1, p * 16.0, p * 16.0 + 1.5, 30'000'000, tr::IoKind::kWrite});
  }
  core::FtioOptions opts;
  opts.sampling_frequency = 2.0;
  opts.with_metrics = false;
  const auto results = core::detect_per_rank(t, opts);
  ASSERT_EQ(results.size(), 3u);

  ASSERT_TRUE(results[0].has_io);
  ASSERT_TRUE(results[0].result.periodic());
  EXPECT_NEAR(results[0].result.period(), 10.0, 1.0);

  ASSERT_TRUE(results[1].has_io);
  ASSERT_TRUE(results[1].result.periodic());
  EXPECT_NEAR(results[1].result.period(), 16.0, 1.5);

  EXPECT_FALSE(results[2].has_io);
}

TEST(PerRank, AggregateCanDifferFromRanks) {
  // Two desynchronised ranks at the same period: each rank is clean even
  // though their aggregate fills more of the period.
  tr::Trace t;
  t.rank_count = 2;
  for (int p = 0; p < 20; ++p) {
    t.requests.push_back(
        {0, p * 12.0, p * 12.0 + 2.0, 30'000'000, tr::IoKind::kWrite});
    t.requests.push_back(
        {1, p * 12.0 + 6.0, p * 12.0 + 8.0, 30'000'000, tr::IoKind::kWrite});
  }
  core::FtioOptions opts;
  opts.sampling_frequency = 2.0;
  opts.with_metrics = false;
  const auto results = core::detect_per_rank(t, opts);
  for (const auto& r : results) {
    ASSERT_TRUE(r.has_io);
    ASSERT_TRUE(r.result.periodic());
    EXPECT_NEAR(r.result.period(), 12.0, 1.0);
  }
}

TEST(PerRank, RejectsEmptyTrace) {
  tr::Trace t;
  t.rank_count = 0;
  EXPECT_THROW(core::detect_per_rank(t, {}), ftio::util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Online fs adaptation
// ---------------------------------------------------------------------------

TEST(AutoFs, DerivesFsFromRequestGranularity) {
  ftio::engine::StreamingOptions options;
  core::OnlineOptions& o = options.online;
  o.base.sampling_frequency = 1.0;  // deliberately too coarse
  o.base.with_metrics = false;
  o.strategy = core::WindowStrategy::kGrowing;
  o.auto_sampling_frequency = true;
  o.max_auto_fs = 50.0;
  ftio::engine::StreamingSession p(options);

  // Bursts of 0.2 s requests every 5 s: suggest fs = 2/0.2 = 10 Hz.
  for (int i = 0; i < 12; ++i) {
    std::vector<tr::IoRequest> reqs;
    for (int r = 0; r < 4; ++r) {
      reqs.push_back({r, i * 5.0, i * 5.0 + 0.2, 10'000'000,
                      tr::IoKind::kWrite});
    }
    p.ingest(std::span<const tr::IoRequest>(reqs));
  }
  const auto pred = p.predict();
  ASSERT_TRUE(pred.found());
  EXPECT_NEAR(pred.period(), 5.0, 0.5);
  // The evaluation ran at the derived frequency, not the configured 1 Hz.
  EXPECT_GT(pred.sample_count, 55.0 * 5.0);  // ~10 Hz over ~55 s
}

TEST(AutoFs, ClampsToConfiguredMaximum) {
  ftio::engine::StreamingOptions options;
  core::OnlineOptions& o = options.online;
  o.base.sampling_frequency = 1.0;
  o.base.with_metrics = false;
  o.strategy = core::WindowStrategy::kGrowing;
  o.auto_sampling_frequency = true;
  o.max_auto_fs = 4.0;  // acts as the low-pass filter from Sec. VI
  ftio::engine::StreamingSession p(options);
  for (int i = 0; i < 10; ++i) {
    std::vector<tr::IoRequest> reqs{
        {0, i * 5.0, i * 5.0 + 0.001, 1'000'000, tr::IoKind::kWrite}};
    p.ingest(std::span<const tr::IoRequest>(reqs));
  }
  const auto pred = p.predict();
  // 45 s of data at <= 4 Hz: at most ~185 samples.
  EXPECT_LE(pred.sample_count, 200u);
}
