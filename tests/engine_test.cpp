#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

#include "core/ftio.hpp"
#include "signal/step_function.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads/ior.hpp"

namespace eng = ftio::engine;
namespace core = ftio::core;

namespace {

std::vector<double> tone(std::size_t n, double freq, double fs,
                         std::uint64_t seed) {
  ftio::util::Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = 5.0 + 3.0 * std::cos(2.0 * std::numbers::pi * freq * t) +
           rng.uniform(-0.5, 0.5);
  }
  return x;
}

/// The step curve holding x[i] on [origin + i/fs, origin + (i+1)/fs).
ftio::signal::StepFunction step_curve(const std::vector<double>& x,
                                      double fs, double origin = 0.0) {
  std::vector<double> times(x.size() + 1);
  for (std::size_t i = 0; i < times.size(); ++i) {
    times[i] = origin + static_cast<double>(i) / fs;
  }
  return {std::move(times), x};
}

/// Field-by-field exact comparison: the batched path must run the very
/// same computation as the loop, so even the doubles match bit for bit.
void expect_identical(const core::FtioResult& a, const core::FtioResult& b) {
  EXPECT_EQ(a.periodic(), b.periodic());
  EXPECT_EQ(a.frequency(), b.frequency());
  EXPECT_EQ(a.confidence(), b.confidence());
  EXPECT_EQ(a.refined_confidence, b.refined_confidence);
  EXPECT_EQ(a.dft.verdict, b.dft.verdict);
  EXPECT_EQ(a.dft.candidates.size(), b.dft.candidates.size());
  EXPECT_EQ(a.sample_count, b.sample_count);
  EXPECT_EQ(a.window_start, b.window_start);
  EXPECT_EQ(a.window_end, b.window_end);
  EXPECT_EQ(a.abstraction_error, b.abstraction_error);
  ASSERT_EQ(a.acf.has_value(), b.acf.has_value());
  if (a.acf) {
    EXPECT_EQ(a.acf->period, b.acf->period);
    EXPECT_EQ(a.acf->confidence, b.acf->confidence);
  }
  ASSERT_EQ(a.metrics.has_value(), b.metrics.has_value());
  if (a.metrics) {
    EXPECT_EQ(a.metrics->sigma_vol, b.metrics->sigma_vol);
    EXPECT_EQ(a.metrics->sigma_time, b.metrics->sigma_time);
  }
}

}  // namespace

TEST(Engine, AnalyzeManyMatchesLoopedAnalyzeBandwidth) {
  const double fs = 2.0;
  std::vector<std::vector<double>> signals;
  signals.push_back(tone(400, 0.05, fs, 1));
  signals.push_back(tone(523, 0.11, fs, 2));   // prime N
  signals.push_back(tone(1024, 0.02, fs, 3));  // pow2 N
  signals.push_back(tone(600, 0.25, fs, 4));
  signals.push_back(std::vector<double>(300, 1.0));  // constant, aperiodic
  // Equal-length views: several workers run the same-size plan
  // concurrently, which must stay bit-identical to looped
  // analyze_bandwidth.
  signals.push_back(tone(400, 0.08, fs, 5));
  signals.push_back(tone(400, 0.12, fs, 6));
  signals.push_back(tone(1024, 0.06, fs, 7));

  core::FtioOptions opts;
  opts.sampling_frequency = fs;

  std::vector<ftio::signal::StepFunction> curves;
  for (const auto& s : signals) {
    curves.push_back(step_curve(s, fs, /*origin=*/10.0));
  }
  std::vector<eng::TraceView> views;
  for (const auto& c : curves) views.push_back(eng::TraceView::of(c));
  eng::EngineOptions engine;
  engine.threads = 4;
  const auto batch = eng::analyze_many(views, opts, engine);

  ASSERT_EQ(batch.size(), curves.size());
  for (std::size_t i = 0; i < curves.size(); ++i) {
    expect_identical(batch[i], core::analyze_bandwidth(curves[i], opts));
  }
}

TEST(Engine, AnalyzeManyMatchesDetectOnTraces) {
  std::vector<ftio::trace::Trace> traces;
  for (int ranks : {8, 16}) {
    ftio::workloads::IorConfig config;
    config.ranks = ranks;
    config.iterations = 6;
    config.compute_seconds = 50.0;
    traces.push_back(ftio::workloads::generate_ior_trace(config));
  }

  core::FtioOptions opts;
  opts.sampling_frequency = 10.0;

  const auto batch = eng::analyze_traces(traces, opts);
  ASSERT_EQ(batch.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    expect_identical(batch[i], core::detect(traces[i], opts));
  }
}

TEST(Engine, BandwidthViewMatchesAnalyzeBandwidth) {
  ftio::workloads::IorConfig config;
  config.ranks = 8;
  config.iterations = 5;
  const auto trace = ftio::workloads::generate_ior_trace(config);
  const auto bw = ftio::trace::bandwidth_signal(trace);

  core::FtioOptions opts;
  opts.sampling_frequency = 10.0;

  const eng::TraceView views[] = {eng::TraceView::of(bw)};
  const auto batch = eng::analyze_many(views, opts);
  ASSERT_EQ(batch.size(), 1u);
  expect_identical(batch[0], core::analyze_bandwidth(bw, opts));
}

TEST(Engine, ThreadCountDoesNotChangeResults) {
  const double fs = 1.0;
  std::vector<ftio::signal::StepFunction> curves;
  for (std::uint64_t s = 0; s < 12; ++s) {
    curves.push_back(step_curve(tone(200 + 37 * s, 0.04, fs, 100 + s), fs));
  }
  core::FtioOptions opts;
  opts.sampling_frequency = fs;

  std::vector<eng::TraceView> views;
  for (const auto& c : curves) views.push_back(eng::TraceView::of(c));

  eng::EngineOptions serial;
  serial.threads = 1;
  eng::EngineOptions wide;
  wide.threads = 8;
  const auto a = eng::analyze_many(views, opts, serial);
  const auto b = eng::analyze_many(views, opts, wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
}

TEST(Engine, EmptyBatchReturnsEmpty) {
  core::FtioOptions opts;
  EXPECT_TRUE(eng::analyze_many({}, opts).empty());
}

TEST(Engine, WorkerExceptionPropagatesToCaller) {
  // A bad view in a multi-threaded batch must surface as a catchable
  // exception on the calling thread, not std::terminate the process.
  const auto good = step_curve(tone(128, 0.05, 1.0, 11), 1.0);
  std::vector<eng::TraceView> views(4, eng::TraceView::of(good));
  views[2] = eng::TraceView{};  // no source set

  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  eng::EngineOptions engine;
  engine.threads = 4;
  EXPECT_THROW(eng::analyze_many(views, opts, engine),
               ftio::util::InvalidArgument);
}
