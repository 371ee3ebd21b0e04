// Property-based tests: randomised invariants that must hold for any
// input, seeded per test case via TEST_P so failures are reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/ftio.hpp"
#include "signal/autocorrelation.hpp"
#include "signal/fft.hpp"
#include "signal/spectrum.hpp"
#include "signal/step_function.hpp"
#include "trace/formats.hpp"
#include "trace/model.hpp"
#include "util/json.hpp"
#include "util/msgpack.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace u = ftio::util;
namespace sig = ftio::signal;
namespace tr = ftio::trace;
namespace core = ftio::core;

class PropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  u::Rng rng_{GetParam()};
};

// ---------------------------------------------------------------------------
// Codec properties
// ---------------------------------------------------------------------------

namespace {

/// Random JSON document of bounded depth.
u::Json random_json(u::Rng& rng, int depth) {
  const auto kind = rng.uniform_int(0, depth > 0 ? 6 : 4);
  switch (kind) {
    case 0: return u::Json(nullptr);
    case 1: return u::Json(rng.bernoulli(0.5));
    case 2: return u::Json(rng.uniform_int(-1'000'000'000, 1'000'000'000));
    case 3: return u::Json(rng.uniform(-1e6, 1e6));
    case 4: {
      std::string s;
      const auto len = rng.uniform_int(0, 12);
      for (int i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng.uniform_int(32, 126)));
      }
      return u::Json(std::move(s));
    }
    case 5: {
      auto arr = u::Json::array();
      const auto len = rng.uniform_int(0, 6);
      for (int i = 0; i < len; ++i) arr.push_back(random_json(rng, depth - 1));
      return arr;
    }
    default: {
      auto obj = u::Json::object();
      const auto len = rng.uniform_int(0, 6);
      for (int i = 0; i < len; ++i) {
        obj.set("k" + std::to_string(i), random_json(rng, depth - 1));
      }
      return obj;
    }
  }
}

/// Random request trace with plausible shapes.
tr::Trace random_trace(u::Rng& rng, int max_requests = 200) {
  tr::Trace t;
  t.app = "prop";
  t.rank_count = static_cast<int>(rng.uniform_int(1, 8));
  const auto n = rng.uniform_int(1, max_requests);
  for (int i = 0; i < n; ++i) {
    tr::IoRequest r;
    r.rank = static_cast<int>(rng.uniform_int(0, t.rank_count - 1));
    r.start = rng.uniform(0.0, 500.0);
    r.end = r.start + rng.uniform(0.01, 20.0);
    r.bytes = static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000'000));
    r.kind = rng.bernoulli(0.7) ? tr::IoKind::kWrite : tr::IoKind::kRead;
    t.requests.push_back(r);
  }
  return t;
}

}  // namespace

TEST_P(PropertyTest, JsonDumpParseIsIdentity) {
  for (int i = 0; i < 20; ++i) {
    const auto doc = random_json(rng_, 3);
    const auto again = u::Json::parse(doc.dump());
    EXPECT_EQ(again.dump(), doc.dump());
  }
}

TEST_P(PropertyTest, MsgpackEncodeDecodeIsIdentity) {
  for (int i = 0; i < 20; ++i) {
    const auto doc = random_json(rng_, 3);
    const auto decoded = u::msgpack::decode(u::msgpack::encode(doc));
    EXPECT_EQ(decoded.dump(), doc.dump());
  }
}

TEST_P(PropertyTest, TraceFormatsAgree) {
  const auto t = random_trace(rng_);
  const auto via_jsonl = tr::from_jsonl(tr::to_jsonl(t));
  const auto via_msgpack = tr::from_msgpack(tr::to_msgpack(t));
  const auto via_csv = tr::from_recorder_csv(tr::to_recorder_csv(t));
  ASSERT_EQ(via_jsonl.requests.size(), t.requests.size());
  ASSERT_EQ(via_msgpack.requests.size(), t.requests.size());
  ASSERT_EQ(via_csv.requests.size(), t.requests.size());
  for (std::size_t i = 0; i < t.requests.size(); ++i) {
    EXPECT_EQ(via_jsonl.requests[i].bytes, t.requests[i].bytes);
    EXPECT_EQ(via_msgpack.requests[i].bytes, t.requests[i].bytes);
    EXPECT_EQ(via_csv.requests[i].bytes, t.requests[i].bytes);
    EXPECT_NEAR(via_csv.requests[i].start, t.requests[i].start, 1e-6);
    EXPECT_EQ(via_jsonl.requests[i].kind, t.requests[i].kind);
  }
}

// ---------------------------------------------------------------------------
// Signal properties
// ---------------------------------------------------------------------------

TEST_P(PropertyTest, FftRoundTripOnRandomSizes) {
  // The inverse runs only at power-of-two N: draw log2 N in [1, 9].
  for (int rep = 0; rep < 4; ++rep) {
    const auto n = std::size_t{1} << rng_.uniform_int(1, 9);
    std::vector<sig::Complex> x(n);
    for (auto& v : x) v = {rng_.uniform(-5.0, 5.0), rng_.uniform(-5.0, 5.0)};
    const auto back = sig::ifft(sig::fft(x));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-8);
    }
  }
}

TEST_P(PropertyTest, SpectrumEnergyMatchesParseval) {
  const auto n = static_cast<std::size_t>(rng_.uniform_int(16, 512));
  std::vector<double> x(n);
  for (auto& v : x) v = rng_.uniform(0.0, 10.0);
  const auto s = sig::compute_spectrum(x, 1.0);
  // Sum of single-sided powers (doubling the interior bins) equals the
  // time-domain energy: sum x^2 = (1/N) sum |X_k|^2 over all N bins.
  double single_sided = s.power[0];
  const bool even = n % 2 == 0;
  for (std::size_t k = 1; k < s.power.size(); ++k) {
    const bool nyquist = even && k == s.power.size() - 1;
    single_sided += nyquist ? s.power[k] : 2.0 * s.power[k];
  }
  double energy = 0.0;
  for (double v : x) energy += v * v;
  EXPECT_NEAR(single_sided, energy, 1e-6 * energy + 1e-9);
}

TEST_P(PropertyTest, StepFunctionIntegralIsAdditive) {
  // Random step function: integral over [a, c] = [a, b] + [b, c].
  const auto segments = static_cast<std::size_t>(rng_.uniform_int(1, 30));
  std::vector<double> times{0.0};
  std::vector<double> values;
  for (std::size_t i = 0; i < segments; ++i) {
    times.push_back(times.back() + rng_.uniform(0.1, 5.0));
    values.push_back(rng_.uniform(0.0, 100.0));
  }
  const sig::StepFunction f(times, values);
  for (int rep = 0; rep < 10; ++rep) {
    double a = rng_.uniform(-1.0, f.end_time() + 1.0);
    double c = rng_.uniform(-1.0, f.end_time() + 1.0);
    if (a > c) std::swap(a, c);
    const double b = rng_.uniform(a, c);
    EXPECT_NEAR(f.integral(a, c), f.integral(a, b) + f.integral(b, c),
                1e-9 * (1.0 + std::abs(f.integral(a, c))));
  }
}

TEST_P(PropertyTest, BandwidthSweepConservesVolume) {
  const auto t = random_trace(rng_);
  const auto f = tr::bandwidth_signal(t);
  EXPECT_NEAR(f.total_integral(), static_cast<double>(t.total_bytes()),
              1e-6 * static_cast<double>(t.total_bytes()) + 1.0);
}

TEST_P(PropertyTest, BandwidthIsNonNegativeEverywhere) {
  const auto t = random_trace(rng_);
  const auto f = tr::bandwidth_signal(t);
  for (double v : f.values()) EXPECT_GE(v, 0.0);
}

TEST_P(PropertyTest, PerRankSignalsSumToAggregate) {
  const auto t = random_trace(rng_, 60);
  const auto aggregate = tr::bandwidth_signal(t);
  // Probe random time points: sum of per-rank bandwidths = aggregate.
  for (int rep = 0; rep < 20; ++rep) {
    const double at = rng_.uniform(aggregate.start_time(),
                                   aggregate.end_time());
    double sum = 0.0;
    for (int rank = 0; rank < t.rank_count; ++rank) {
      sum += tr::rank_bandwidth_signal(t, rank).value_at(at);
    }
    EXPECT_NEAR(sum, aggregate.value_at(at),
                1e-6 * (1.0 + aggregate.value_at(at)));
  }
}

TEST_P(PropertyTest, AutocorrelationBoundedAndSymmetricAtZero) {
  const auto n = static_cast<std::size_t>(rng_.uniform_int(8, 400));
  std::vector<double> x(n);
  for (auto& v : x) v = rng_.uniform(0.0, 3.0);
  const auto acf = sig::autocorrelation(x);
  EXPECT_NEAR(acf[0], 1.0, 1e-9);
  for (double v : acf) EXPECT_LE(std::abs(v), 1.0 + 1e-9);
}

// ---------------------------------------------------------------------------
// Detection invariances
// ---------------------------------------------------------------------------

namespace {

tr::Trace periodic_trace_with(u::Rng& rng, double period, double burst,
                              int phases, double t0 = 0.0,
                              std::uint64_t bytes = 80'000'000) {
  tr::Trace t;
  t.rank_count = 2;
  (void)rng;
  for (int p = 0; p < phases; ++p) {
    for (int r = 0; r < 2; ++r) {
      t.requests.push_back(
          {r, t0 + p * period, t0 + p * period + burst, bytes,
           tr::IoKind::kWrite});
    }
  }
  return t;
}

}  // namespace

TEST_P(PropertyTest, DetectionInvariantUnderTimeShift) {
  const double period = rng_.uniform(8.0, 30.0);
  const double burst = rng_.uniform(1.0, period / 3.0);
  const double shift = rng_.uniform(0.0, 1000.0);
  core::FtioOptions opts;
  opts.sampling_frequency = 2.0;
  opts.with_metrics = false;

  const auto base =
      core::detect(periodic_trace_with(rng_, period, burst, 16), opts);
  const auto shifted = core::detect(
      periodic_trace_with(rng_, period, burst, 16, shift), opts);
  ASSERT_TRUE(base.periodic());
  ASSERT_TRUE(shifted.periodic());
  EXPECT_NEAR(base.period(), shifted.period(), 0.5);
}

TEST_P(PropertyTest, DetectionInvariantUnderVolumeScaling) {
  const double period = rng_.uniform(8.0, 30.0);
  const double burst = rng_.uniform(1.0, period / 3.0);
  core::FtioOptions opts;
  opts.sampling_frequency = 2.0;
  opts.with_metrics = false;

  const auto small = core::detect(
      periodic_trace_with(rng_, period, burst, 16, 0.0, 1'000'000), opts);
  const auto large = core::detect(
      periodic_trace_with(rng_, period, burst, 16, 0.0, 50'000'000'000), opts);
  ASSERT_TRUE(small.periodic());
  ASSERT_TRUE(large.periodic());
  // Bandwidth amplitude scales by 50000x; the period must not move.
  EXPECT_NEAR(small.period(), large.period(), 1e-6);
  EXPECT_NEAR(small.confidence(), large.confidence(), 1e-6);
}

TEST_P(PropertyTest, MetricsBoundsHold) {
  const double period = rng_.uniform(10.0, 40.0);
  const double burst = rng_.uniform(1.0, period / 2.5);
  const auto t = periodic_trace_with(rng_, period, burst, 12);
  const auto bw = tr::bandwidth_signal(t);
  const auto m = core::compute_metrics(bw, 1.0 / period);
  EXPECT_GE(m.time_ratio_io, 0.0);
  EXPECT_LE(m.time_ratio_io, 1.0);
  EXPECT_GE(m.sigma_vol, 0.0);
  EXPECT_LE(m.sigma_vol, 0.5 + 1e-9);
  EXPECT_GE(m.sigma_time, 0.0);
  EXPECT_LE(m.sigma_time, 0.5 + 1e-9);
  EXPECT_GE(m.periodicity_score(), 0.0);
  EXPECT_LE(m.periodicity_score(), 1.0);
  EXPECT_GE(m.bytes_per_period, 0.0);
}

TEST_P(PropertyTest, WindowedDetectionSeesOnlyTheWindow) {
  // First half period P1, second half P2: restricting the window to one
  // half must recover that half's period.
  const double p1 = 10.0;
  const double p2 = 26.0;
  tr::Trace t = periodic_trace_with(rng_, p1, 2.0, 20);
  const double offset = 20 * p1 + 30.0;
  for (int p = 0; p < 12; ++p) {
    for (int r = 0; r < 2; ++r) {
      t.requests.push_back({r, offset + p * p2, offset + p * p2 + 2.0,
                            80'000'000, tr::IoKind::kWrite});
    }
  }
  core::FtioOptions opts;
  opts.sampling_frequency = 2.0;
  opts.with_metrics = false;
  opts.window_end = 20 * p1;
  const auto first = core::detect(t, opts);
  ASSERT_TRUE(first.periodic());
  EXPECT_NEAR(first.period(), p1, 1.0);

  opts.window_end.reset();
  opts.window_start = offset;
  const auto second = core::detect(t, opts);
  ASSERT_TRUE(second.periodic());
  EXPECT_NEAR(second.period(), p2, 2.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));
