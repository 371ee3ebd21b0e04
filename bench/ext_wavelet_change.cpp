// Extension (Sec. VI future work): merging FTIO with the wavelet
// transform "for a more comprehensive characterization ... where we need
// both [frequency and time resolution]". This bench builds an application
// whose I/O period doubles mid-run — the DFT alone reports a muddled
// global answer, while the Morlet scalogram localises the change in time.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/ftio.hpp"
#include "signal/wavelet.hpp"
#include "trace/model.hpp"

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::print_header(
      "Extension: wavelet time-frequency view of a period change",
      "an application switching from a 10 s to a 20 s period at t = 400 s");

  // Phase 1: bursts every 10 s until t = 400; phase 2: every 20 s after.
  ftio::trace::Trace t;
  t.rank_count = 4;
  auto add_phase = [&](double start) {
    for (int r = 0; r < 4; ++r) {
      t.requests.push_back(
          {r, start, start + 2.0, 40'000'000, ftio::trace::IoKind::kWrite});
    }
  };
  for (int i = 0; i < 40; ++i) add_phase(i * 10.0);
  for (int i = 0; i < 20; ++i) add_phase(400.0 + i * 20.0);

  // Global DFT answer.
  ftio::core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.with_metrics = false;
  const auto global = ftio::core::detect(t, opts);
  std::printf("global DFT verdict: %s",
              ftio::core::periodicity_name(global.dft.verdict));
  if (global.periodic()) {
    std::printf(", period %.2f s", global.period());
  }
  std::printf(" (mixes both regimes)\n\n");

  // Wavelet view.
  const auto bandwidth = ftio::trace::bandwidth_signal(t);
  const auto window = ftio::core::select_analysis_window(bandwidth, opts);
  std::vector<double> samples;
  ftio::core::discretize_window(bandwidth, window, opts, 0, samples);
  const auto freqs = ftio::signal::log_spaced_frequencies(0.02, 0.3, 32);
  const auto cwt = ftio::signal::morlet_cwt(samples, 1.0, freqs);
  const auto dominant = cwt.dominant_frequency_over_time();

  std::printf("instantaneous dominant period (median over 50 s blocks):\n");
  for (std::size_t block = 0; block + 50 <= dominant.size(); block += 50) {
    double acc = 0.0;
    for (std::size_t i = block; i < block + 50; ++i) acc += dominant[i];
    const double mean_f = acc / 50.0;
    std::printf("  t in [%3zu, %3zu) s: %.1f s\n", block, block + 50,
                1.0 / mean_f);
  }

  const auto change = ftio::signal::strongest_change_point(cwt, 60);
  if (change) {
    std::printf("\nstrongest change point: t = %zu s (ground truth: 400 s)\n",
                *change);
  } else {
    std::printf("\nstrongest change point: none detected "
                "(ground truth: 400 s)\n");
  }
  return 0;
}
