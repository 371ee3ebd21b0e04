// Microbenchmark: the streaming layer's scaling claims.
//
//  - BM_StreamingSessionLoop: a full online run of F flushes. The
//    session extends incremental state instead of re-running detect() on
//    the whole accumulated trace, so per-flush cost is ~O(analysis
//    window). Compare the per_flush_us counter across the F arguments:
//    it stays ~flat as F grows.
//  - BM_StreamingSessionHeavyTenant: one LAMMPS-256 tenant through the
//    ingest daemon's session template (adaptive window, compaction,
//    triage). Most flushes are triage skips that still compact the
//    curve, so per_flush_us carries the cost of eviction, and
//    final_bytes the memory it leaves behind.
//  - BM_MorletCwtColdPath vs BM_MorletCwt: the pre-streaming CWT rebuilt
//    per-row buffers through the allocating fft/ifft entry points on one
//    thread; the plan-handle path reuses one plan plus per-thread scratch
//    and fans rows across workers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "core/online.hpp"
#include "engine/streaming.hpp"
#include "signal/fft.hpp"
#include "signal/wavelet.hpp"
#include "ref_kernel.hpp"
#include "service/service.hpp"
#include "trace/model.hpp"
#include "util/stats.hpp"
#include "workloads/apps.hpp"
#include "workloads/phase_library.hpp"
#include "workloads/semisynthetic.hpp"

namespace {

std::vector<ftio::trace::IoRequest> phase(double start, double burst,
                                          int ranks) {
  std::vector<ftio::trace::IoRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    reqs.push_back(
        {r, start, start + burst, 50'000'000, ftio::trace::IoKind::kWrite});
  }
  return reqs;
}

ftio::core::OnlineOptions online_options() {
  ftio::core::OnlineOptions o;
  o.base.sampling_frequency = 2.0;
  o.base.with_metrics = false;
  o.strategy = ftio::core::WindowStrategy::kAdaptive;
  return o;
}

constexpr int kRanks = 64;
constexpr double kPeriod = 10.0;

void BM_StreamingSessionLoop(benchmark::State& state) {
  const auto flushes = static_cast<int>(state.range(0));
  std::vector<std::vector<ftio::trace::IoRequest>> chunks;
  for (int i = 0; i < flushes; ++i) chunks.push_back(phase(i * kPeriod, 2.0, kRanks));
  ftio::engine::StreamingOptions options;
  options.online = online_options();
  for (auto _ : state) {
    ftio::engine::StreamingSession session(options);
    for (const auto& chunk : chunks) {
      session.ingest(std::span<const ftio::trace::IoRequest>(chunk));
      benchmark::DoNotOptimize(session.predict());
    }
  }
  state.SetItemsProcessed(state.iterations() * flushes);
  state.counters["per_flush_us"] = benchmark::Counter(
      static_cast<double>(state.iterations() * flushes) * 1e-6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_StreamingSessionLoop)
    ->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// O(window) claim, long form: thousands of flushes through a compacted
// fixed-length session. mid_bytes vs final_bytes exposes whether the
// session state plateaus — without compaction final_bytes grows with
// the flush count, with it the two stay within the eviction slack.
void BM_StreamingSessionLongStream(benchmark::State& state) {
  const auto flushes = static_cast<int>(state.range(0));
  std::vector<std::vector<ftio::trace::IoRequest>> chunks;
  for (int i = 0; i < flushes; ++i)
    chunks.push_back(phase(i * kPeriod, 2.0, kRanks));
  ftio::engine::StreamingOptions options;
  options.online = online_options();
  options.online.strategy = ftio::core::WindowStrategy::kFixedLength;
  options.online.fixed_window = 60.0;
  options.compaction.enabled = true;
  options.compaction.max_history = 64;
  double mid_bytes = 0.0;
  double final_bytes = 0.0;
  double evicted_events = 0.0;
  for (auto _ : state) {
    ftio::engine::StreamingSession session(options);
    for (int i = 0; i < flushes; ++i) {
      session.ingest(std::span<const ftio::trace::IoRequest>(chunks[i]));
      benchmark::DoNotOptimize(session.predict());
      if (i == flushes / 2)
        mid_bytes = static_cast<double>(session.memory_bytes());
    }
    final_bytes = static_cast<double>(session.memory_bytes());
    evicted_events =
        static_cast<double>(session.compaction_stats().evicted_events);
  }
  state.SetItemsProcessed(state.iterations() * flushes);
  state.counters["per_flush_us"] = benchmark::Counter(
      static_cast<double>(state.iterations() * flushes) * 1e-6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["mid_bytes"] = mid_bytes;
  state.counters["final_bytes"] = final_bytes;
  state.counters["evicted_events"] = evicted_events;
}
BENCHMARK(BM_StreamingSessionLongStream)
    ->Arg(4096)
    ->MinTime(0.5)
    ->Unit(benchmark::kMillisecond);

// The curve-splice step of every flush on its own: one steady tenant's
// per-phase chunks (the default semi-synthetic application, ~3,500
// requests per I/O phase) extended in arrival order into a fresh
// IncrementalBandwidth. Each extend sorts its chunk's events and
// re-sweeps the appended tail.
void BM_IncrementalExtend(benchmark::State& state) {
  auto app = ftio::workloads::generate_semisynthetic(
      {}, ftio::workloads::make_phase_library());
  app.trace.sort_by_start();
  std::vector<std::vector<ftio::trace::IoRequest>> chunks;
  auto it = app.trace.requests.begin();
  for (std::size_t k = 0; k < app.phase_starts.size(); ++k) {
    const double next = k + 1 < app.phase_starts.size()
                            ? app.phase_starts[k + 1]
                            : std::numeric_limits<double>::infinity();
    const auto end = std::find_if(it, app.trace.requests.end(),
                                  [&](const ftio::trace::IoRequest& r) {
                                    return r.start >= next;
                                  });
    chunks.emplace_back(it, end);
    it = end;
  }
  for (auto _ : state) {
    ftio::trace::IncrementalBandwidth curve;
    for (const auto& chunk : chunks) {
      curve.extend(chunk);
      benchmark::DoNotOptimize(curve.curve());
    }
  }
  const auto flushes = static_cast<std::int64_t>(chunks.size());
  state.SetItemsProcessed(state.iterations() * flushes);
  state.counters["per_flush_us"] = benchmark::Counter(
      static_cast<double>(state.iterations() * flushes) * 1e-6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_IncrementalExtend)->Unit(benchmark::kMillisecond);

// Triage tier: the filter bank skips the full spectral pipeline while
// the dominant period is stable, so a steady stream costs O(1) per
// flush outside the cadence re-checks. triage_hit_rate reports the
// fraction of flushes answered by the bank.
void BM_StreamingSessionTriageLoop(benchmark::State& state) {
  const auto flushes = static_cast<int>(state.range(0));
  std::vector<std::vector<ftio::trace::IoRequest>> chunks;
  for (int i = 0; i < flushes; ++i)
    chunks.push_back(phase(i * kPeriod, 2.0, kRanks));
  ftio::engine::StreamingOptions options;
  options.online = online_options();
  options.compaction.enabled = true;
  options.compaction.max_history = 64;
  options.triage.enabled = true;
  double hit_rate = 0.0;
  double final_bytes = 0.0;
  for (auto _ : state) {
    ftio::engine::StreamingSession session(options);
    for (const auto& chunk : chunks) {
      session.ingest(std::span<const ftio::trace::IoRequest>(chunk));
      benchmark::DoNotOptimize(session.predict());
    }
    const auto& ts = session.triage_stats();
    hit_rate = static_cast<double>(ts.skipped) /
               static_cast<double>(ts.skipped + ts.full_analyses);
    final_bytes = static_cast<double>(session.memory_bytes());
  }
  state.SetItemsProcessed(state.iterations() * flushes);
  state.counters["per_flush_us"] = benchmark::Counter(
      static_cast<double>(state.iterations() * flushes) * 1e-6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["triage_hit_rate"] = hit_rate;
  state.counters["final_bytes"] = final_bytes;
}
BENCHMARK(BM_StreamingSessionTriageLoop)
    ->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// A daemon tenant with LAMMPS-256-shaped flushes: each of the app's dump
// phases (256 ranks, split at idle gaps of 1 s) is one chunk, and the
// run repeats the phases, shifted by whole repetitions, for 1024
// flushes through service::default_session_template().
void BM_StreamingSessionHeavyTenant(benchmark::State& state) {
  constexpr int kFlushes = 1024;
  ftio::workloads::LammpsConfig config;
  config.ranks = 256;
  auto trace = ftio::workloads::generate_lammps_trace(config);
  trace.sort_by_start();
  std::vector<std::vector<ftio::trace::IoRequest>> phases;
  double last_end = -std::numeric_limits<double>::infinity();
  for (const auto& r : trace.requests) {
    if (phases.empty() || r.start - last_end >= 1.0) phases.emplace_back();
    phases.back().push_back(r);
    last_end = std::max(last_end, r.end);
  }
  const double first = phases.front().front().start;
  const double last = phases.back().front().start;
  const double shift =
      (last - first) * static_cast<double>(phases.size()) /
      static_cast<double>(phases.size() - 1);
  std::vector<std::vector<ftio::trace::IoRequest>> chunks;
  for (int i = 0; i < kFlushes; ++i) {
    const auto repetition = static_cast<double>(
        static_cast<std::size_t>(i) / phases.size());
    auto chunk = phases[static_cast<std::size_t>(i) % phases.size()];
    for (auto& r : chunk) {
      r.start += shift * repetition;
      r.end += shift * repetition;
    }
    chunks.push_back(std::move(chunk));
  }
  const auto options = ftio::service::default_session_template();
  double final_bytes = 0.0;
  for (auto _ : state) {
    ftio::engine::StreamingSession session(options);
    for (const auto& chunk : chunks) {
      session.ingest(std::span<const ftio::trace::IoRequest>(chunk));
      benchmark::DoNotOptimize(session.predict());
    }
    final_bytes = static_cast<double>(session.memory_bytes());
  }
  state.SetItemsProcessed(state.iterations() * kFlushes);
  state.counters["per_flush_us"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kFlushes) * 1e-6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["final_bytes"] = final_bytes;
}
BENCHMARK(BM_StreamingSessionHeavyTenant)->Unit(benchmark::kMillisecond);

// Cold baseline with the pre-streaming loop structure: one allocating
// fft() for the signal, then per row a freshly allocated product vector,
// a dense exp sweep over every bin, and an allocating ifft(), all on the
// calling thread. The normalisation matches the fixed morlet_cwt so the
// comparison isolates the plan/scratch/support-window/parallel changes.
ftio::signal::CwtResult morlet_cwt_cold(std::span<const double> samples,
                                        double fs,
                                        std::span<const double> frequencies,
                                        double omega0) {
  using ftio::signal::Complex;
  const std::size_t n = samples.size();
  const std::size_t padded = ftio::signal::next_power_of_two(2 * n);
  const double mean = ftio::util::mean(samples);
  std::vector<Complex> x(padded, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < n; ++i) x[i] = Complex(samples[i] - mean, 0.0);
  const auto x_hat = ftio::signal::fft(x);

  ftio::signal::CwtResult result;
  result.sampling_frequency = fs;
  result.frequencies.assign(frequencies.begin(), frequencies.end());
  result.power.resize(frequencies.size());

  std::vector<double> omega(padded);
  for (std::size_t k = 0; k < padded; ++k) {
    const double f = (k <= padded / 2)
                         ? static_cast<double>(k)
                         : static_cast<double>(k) - static_cast<double>(padded);
    omega[k] = 2.0 * std::numbers::pi * f * fs / static_cast<double>(padded);
  }

  for (std::size_t fi = 0; fi < frequencies.size(); ++fi) {
    const double scale = omega0 / (2.0 * std::numbers::pi * frequencies[fi]);
    const double norm = std::pow(std::numbers::pi, -0.25) *
                        std::sqrt(2.0 * std::numbers::pi * scale * fs);
    std::vector<Complex> product(padded);
    for (std::size_t k = 0; k < padded; ++k) {
      if (omega[k] <= 0.0) {
        product[k] = Complex(0.0, 0.0);
        continue;
      }
      const double arg = scale * omega[k] - omega0;
      product[k] = x_hat[k] * (norm * std::exp(-0.5 * arg * arg));
    }
    const auto coefficients = ftio::signal::ifft(product);
    auto& row = result.power[fi];
    row.resize(n);
    const double rectify = 1.0 / scale;
    for (std::size_t i = 0; i < n; ++i) {
      row[i] = std::norm(coefficients[i]) * rectify;
    }
  }
  return result;
}

std::vector<double> cwt_test_signal(std::size_t n, double fs) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    const double f = i < n / 2 ? 0.1 : 0.25;
    x[i] = 2.0 + std::cos(2.0 * std::numbers::pi * f * t);
  }
  return x;
}

void BM_MorletCwtColdPath(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double fs = 2.0;
  const auto x = cwt_test_signal(n, fs);
  const auto freqs = ftio::signal::log_spaced_frequencies(0.02, 0.5, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(morlet_cwt_cold(x, fs, freqs, 6.0));
  }
}
BENCHMARK(BM_MorletCwtColdPath)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_MorletCwt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  const double fs = 2.0;
  const auto x = cwt_test_signal(n, fs);
  const auto freqs = ftio::signal::log_spaced_frequencies(0.02, 0.5, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftio::signal::morlet_cwt(x, fs, freqs, 6.0, threads));
  }
}
BENCHMARK(BM_MorletCwt)
    ->Args({4096, 1})->Args({4096, 0})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// Frozen cross-machine gate pivot (see bench/ref_kernel.hpp).
FTIO_REGISTER_REF_KERNEL_BENCH();

BENCHMARK_MAIN();
