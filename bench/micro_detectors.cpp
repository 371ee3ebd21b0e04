// Microbenchmark: per-detector cost of the period-detector registry.
// Each registered method runs directly (DetectorRegistry detect() calls
// over precomputed artefacts), so the numbers isolate what one detector
// adds on top of the shared spectrum/ACF work; BM_DetectorPipeline
// prices the full three-detector analysis next to the seed {dft, acf}
// default.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "core/detectors.hpp"
#include "core/ftio.hpp"
#include "signal/autocorrelation.hpp"
#include "signal/spectrum.hpp"
#include "ref_kernel.hpp"

namespace {

namespace core = ftio::core;
namespace sig = ftio::signal;

/// LAMMPS-like discretised window: bursts of 3 samples every 27 samples
/// at 1 Hz — the shape every figure bench feeds the pipeline.
std::vector<double> burst_fixture(std::size_t n) {
  std::vector<double> x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (std::fmod(static_cast<double>(i), 27.0) < 3.0) x[i] = 1.2e9;
  }
  return x;
}

/// Trending fixture (the cfd-autoperiod target): ramp + sine.
std::vector<double> trend_fixture(std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x[i] = 2.0e6 * t + 2.0e7 * std::sin(2.0 * M_PI * t / 27.0);
  }
  return x;
}

/// Precomputed artefact bundle a DetectorInput points into.
struct Fixture {
  std::vector<double> samples;
  sig::Spectrum spectrum;
  std::vector<double> acf;
  core::FtioOptions options;

  explicit Fixture(std::vector<double> x) : samples(std::move(x)) {
    options.sampling_frequency = 1.0;
    spectrum = sig::compute_spectrum(samples, 1.0);
    acf = sig::autocorrelation(samples);
  }

  core::DetectorInput input() const {
    core::DetectorInput in;
    in.samples = samples;
    in.sampling_frequency = 1.0;
    in.spectrum = &spectrum;
    in.acf = &acf;
    in.options = &options;
    return in;
  }
};

void run_detector(benchmark::State& state, const char* name,
                  const Fixture& fixture) {
  const core::PeriodDetector* detector =
      core::DetectorRegistry::global().find(name);
  if (detector == nullptr) {
    state.SkipWithError("detector not registered");
    return;
  }
  const core::DetectorInput input = fixture.input();
  std::size_t found = 0;
  double period = 0.0;
  for (auto _ : state) {
    core::DetectorVerdict v = detector->detect(input);
    found += v.found ? 1 : 0;
    period = v.period;
    benchmark::DoNotOptimize(v);
  }
  state.counters["found"] =
      static_cast<double>(found) / static_cast<double>(state.iterations());
  state.counters["period_s"] = period;
}

const Fixture& bursts() {
  static const Fixture f(burst_fixture(1024));
  return f;
}

const Fixture& trending() {
  static const Fixture f(trend_fixture(1024));
  return f;
}

void BM_DetectorDft(benchmark::State& state) {
  run_detector(state, "dft", bursts());
}
BENCHMARK(BM_DetectorDft);

void BM_DetectorAcf(benchmark::State& state) {
  run_detector(state, "acf", bursts());
}
BENCHMARK(BM_DetectorAcf);

void BM_DetectorCfdAutoperiod(benchmark::State& state) {
  run_detector(state, "cfd-autoperiod", trending());
}
BENCHMARK(BM_DetectorCfdAutoperiod);

void BM_DetectorPipeline(benchmark::State& state) {
  // End-to-end analyze_samples: Arg 0 = the seed {dft, acf} default,
  // Arg 1 = all three built-ins fused. The gap between the two is the
  // full price of the extended registry on one window.
  const std::vector<double> x = burst_fixture(1024);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  if (state.range(0) != 0) {
    opts.detectors.detectors = {
        {"dft", 1.0}, {"acf", 1.0}, {"cfd-autoperiod", 1.0}};
  }
  std::size_t fused_found = 0;
  for (auto _ : state) {
    const core::FtioResult r = core::analyze_samples(x, opts);
    fused_found += r.fused.found() ? 1 : 0;
    benchmark::DoNotOptimize(r);
  }
  state.counters["fused_found"] =
      static_cast<double>(fused_found) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_DetectorPipeline)->Arg(0)->Arg(1);

}  // namespace

// Frozen cross-machine gate pivot (see bench/ref_kernel.hpp).
FTIO_REGISTER_REF_KERNEL_BENCH();

BENCHMARK_MAIN();
