// Microbenchmark: per-stage cost of the detection pipeline. The DFT
// verdict (Sec. II-B) and the ACF refinement (Sec. II-C) run directly
// over precomputed artefacts, so their numbers isolate what each stage
// adds on top of the shared spectrum/ACF transforms; BM_DetectorPipeline
// prices one full analyze_samples call.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "core/acf_analysis.hpp"
#include "core/candidates.hpp"
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

/// Precomputed artefacts the stage benchmarks read.
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
};

const Fixture& bursts() {
  static const Fixture f(burst_fixture(1024));
  return f;
}

void BM_DetectorDft(benchmark::State& state) {
  const Fixture& fixture = bursts();
  std::size_t found = 0;
  double period = 0.0;
  for (auto _ : state) {
    core::DftAnalysis dft =
        core::analyze_spectrum(fixture.spectrum, fixture.options.candidates);
    found += dft.dominant_frequency ? 1 : 0;
    period = dft.period();
    benchmark::DoNotOptimize(dft);
  }
  state.counters["found"] =
      static_cast<double>(found) / static_cast<double>(state.iterations());
  state.counters["period_s"] = period;
}
BENCHMARK(BM_DetectorDft);

void BM_DetectorAcf(benchmark::State& state) {
  const Fixture& fixture = bursts();
  std::size_t found = 0;
  double period = 0.0;
  for (auto _ : state) {
    core::AcfAnalysis acf = core::analyze_autocorrelation_prepared(
        fixture.acf, fixture.options.sampling_frequency, fixture.options.acf);
    found += acf.found() ? 1 : 0;
    period = acf.period;
    benchmark::DoNotOptimize(acf);
  }
  state.counters["found"] =
      static_cast<double>(found) / static_cast<double>(state.iterations());
  state.counters["period_s"] = period;
}
BENCHMARK(BM_DetectorAcf);

void BM_DetectorPipeline(benchmark::State& state) {
  // End-to-end analyze_samples with the paper defaults (DFT + ACF).
  const std::vector<double> x = burst_fixture(1024);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
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
// Arg 0 keeps the name the committed baseline and history gate on.
BENCHMARK(BM_DetectorPipeline)->Arg(0);

}  // namespace

// Frozen cross-machine gate pivot (see bench/ref_kernel.hpp).
FTIO_REGISTER_REF_KERNEL_BENCH();

BENCHMARK_MAIN();
