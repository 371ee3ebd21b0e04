// Microbenchmark: end-to-end FTIO analysis cost (Sec. III-C reports
// 2.2 s for LAMMPS, 5.7 s for IOR, 8.7 s for Nek5000, 3.6 s for HACC-IO
// in the Python realization — the C++ pipeline is far below that).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/ftio.hpp"
#include "engine/engine.hpp"
#include "trace/model.hpp"
#include "workloads/apps.hpp"
#include "workloads/ior.hpp"
#include "workloads/phase_library.hpp"
#include "workloads/semisynthetic.hpp"
#include "ref_kernel.hpp"

namespace {

void BM_DetectIor(benchmark::State& state) {
  ftio::workloads::IorConfig config;
  config.ranks = static_cast<int>(state.range(0));
  config.iterations = 8;
  config.compute_seconds = 100.0;
  const auto trace = ftio::workloads::generate_ior_trace(config);
  ftio::core::FtioOptions opts;
  opts.sampling_frequency = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftio::core::detect(trace, opts));
  }
  state.counters["requests"] = static_cast<double>(trace.requests.size());
}
BENCHMARK(BM_DetectIor)->Arg(32)->Arg(256)->Arg(1024);

void BM_DetectLammps(benchmark::State& state) {
  ftio::workloads::LammpsConfig config;
  config.ranks = 512;
  const auto trace = ftio::workloads::generate_lammps_trace(config);
  ftio::core::FtioOptions opts;
  opts.sampling_frequency = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftio::core::detect(trace, opts));
  }
}
BENCHMARK(BM_DetectLammps);

void BM_BandwidthSweep(benchmark::State& state) {
  ftio::workloads::IorConfig config;
  config.ranks = static_cast<int>(state.range(0));
  config.iterations = 8;
  const auto trace = ftio::workloads::generate_ior_trace(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftio::trace::bandwidth_signal(trace));
  }
  state.counters["requests"] = static_cast<double>(trace.requests.size());
}
// The 2048-rank sweep takes ~10 ms, so CI's 0.05 s budget would time
// only a handful of iterations; the floor keeps the gate window meaningful.
BENCHMARK(BM_BandwidthSweep)->Arg(256)->Arg(2048)->MinTime(0.5);

// IOR's requests share only 88 distinct times; the default semi-synthetic
// application (70,400 requests) spreads its event times out, which is the
// case the distribution sort in the sweep is built for.
void BM_BandwidthSweepSemi(benchmark::State& state) {
  const auto trace = ftio::workloads::generate_semisynthetic(
                         {}, ftio::workloads::make_phase_library())
                         .trace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftio::trace::bandwidth_signal(trace));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.requests.size()));
  state.counters["requests"] = static_cast<double>(trace.requests.size());
}
BENCHMARK(BM_BandwidthSweepSemi)->MinTime(0.5)->Unit(benchmark::kMillisecond);

// The same trace with its requests in a fixed random order: neither event
// run is nearly sorted, so the sweep spends its insertion budget and then
// falls back to the bucket sort. This row bounds that worst case.
void BM_BandwidthSweepShuffled(benchmark::State& state) {
  auto trace = ftio::workloads::generate_semisynthetic(
                   {}, ftio::workloads::make_phase_library())
                   .trace;
  std::mt19937_64 rng(20240527);
  std::shuffle(trace.requests.begin(), trace.requests.end(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftio::trace::bandwidth_signal(trace));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.requests.size()));
  state.counters["requests"] = static_cast<double>(trace.requests.size());
}
BENCHMARK(BM_BandwidthSweepShuffled)
    ->MinTime(0.5)
    ->Unit(benchmark::kMillisecond);

void BM_AutocorrelationRefinement(benchmark::State& state) {
  // The optional ACF pass cost the paper +0.26 s on LAMMPS.
  ftio::workloads::LammpsConfig config;
  config.ranks = 512;
  const auto trace = ftio::workloads::generate_lammps_trace(config);
  ftio::core::FtioOptions with;
  with.sampling_frequency = 10.0;
  with.with_autocorrelation = true;
  ftio::core::FtioOptions without = with;
  without.with_autocorrelation = false;
  const bool use_acf = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ftio::core::detect(trace, use_acf ? with : without));
  }
}
BENCHMARK(BM_AutocorrelationRefinement)->Arg(0)->Arg(1);

void BM_AnalyzeManyBatch(benchmark::State& state) {
  // A batch of 16 IOR traces through engine::analyze_many; Arg = worker
  // thread count, so this curve is the engine's thread-scaling profile.
  std::vector<ftio::trace::Trace> traces;
  for (int i = 0; i < 16; ++i) {
    ftio::workloads::IorConfig config;
    config.ranks = 64;
    config.iterations = 8;
    config.compute_seconds = 100.0 + 5.0 * i;  // varied N per trace
    traces.push_back(ftio::workloads::generate_ior_trace(config));
  }
  std::vector<ftio::engine::TraceView> views;
  for (const auto& t : traces) {
    views.push_back(ftio::engine::TraceView::of(t));
  }
  ftio::core::FtioOptions opts;
  opts.sampling_frequency = 10.0;
  ftio::engine::EngineOptions engine;
  engine.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftio::engine::analyze_many(views, opts, engine));
  }
  state.counters["traces"] = static_cast<double>(views.size());
}
BENCHMARK(BM_AnalyzeManyBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->MinTime(0.5)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// Frozen cross-machine gate pivot (see bench/ref_kernel.hpp).
FTIO_REGISTER_REF_KERNEL_BENCH();

BENCHMARK_MAIN();
