// Per-process analysis (Sec. VI: "there are use cases (e.g., cache
// management) which require knowing the behavior of individual
// processes"): an application whose ranks follow different I/O cadences —
// periodic checkpointers plus one logger — analysed rank by rank, then as
// an aggregate, plus the wavelet view that localises a mid-run change.
// The per-rank bandwidth curves and the aggregate trace all go through
// one engine::analyze_many batch.
//
//   ./examples/per_rank_analysis

#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/ftio.hpp"
#include "engine/engine.hpp"
#include "signal/wavelet.hpp"
#include "trace/model.hpp"

int main() {
  ftio::trace::Trace t;
  t.rank_count = 4;
  // Ranks 0-1: checkpoints every 20 s; rank 2: telemetry every 7 s;
  // rank 3: a log writer with no structure.
  for (int p = 0; p < 30; ++p) {
    for (int r = 0; r < 2; ++r) {
      t.requests.push_back({r, p * 20.0, p * 20.0 + 2.5, 200'000'000,
                            ftio::trace::IoKind::kWrite});
    }
  }
  for (int p = 0; p < 85; ++p) {
    t.requests.push_back({2, p * 7.0, p * 7.0 + 1.0, 20'000'000,
                          ftio::trace::IoKind::kWrite});
  }
  for (int p = 0; p < 120; ++p) {
    const double start = p * 5.0 + (p % 7) * 0.6;
    t.requests.push_back({3, start, start + 0.4, 500'000,
                          ftio::trace::IoKind::kWrite});
  }

  ftio::core::FtioOptions opts;
  opts.sampling_frequency = 2.0;
  opts.with_metrics = false;

  // One batch: the four per-rank bandwidth curves plus the aggregate
  // trace, fanned across worker threads with shared FFT plans. This
  // spells out the view-building that core::detect_per_rank (the
  // canonical per-rank helper) does internally, to show the raw engine
  // API; prefer detect_per_rank when you don't need the aggregate in the
  // same batch.
  std::vector<ftio::signal::StepFunction> rank_signals;
  rank_signals.reserve(static_cast<std::size_t>(t.rank_count));
  ftio::trace::BandwidthOptions bw;
  bw.kind = opts.kind;  // keep the direction filter consistent per rank
  for (int rank = 0; rank < t.rank_count; ++rank) {
    rank_signals.push_back(ftio::trace::rank_bandwidth_signal(t, rank, bw));
  }
  std::vector<ftio::engine::TraceView> views;
  std::vector<std::size_t> view_of_rank(rank_signals.size(), SIZE_MAX);
  for (std::size_t i = 0; i < rank_signals.size(); ++i) {
    if (rank_signals[i].empty()) continue;  // rank never did I/O
    view_of_rank[i] = views.size();
    views.push_back(ftio::engine::TraceView::of(rank_signals[i]));
  }
  views.push_back(ftio::engine::TraceView::of(t));
  const auto batch = ftio::engine::analyze_many(views, opts);

  std::printf("per-rank view:\n");
  for (int rank = 0; rank < t.rank_count; ++rank) {
    const std::size_t slot = view_of_rank[static_cast<std::size_t>(rank)];
    if (slot == SIZE_MAX) {
      std::printf("  rank %d: no I/O\n", rank);
      continue;
    }
    const auto& r = batch[slot];
    if (r.periodic()) {
      std::printf("  rank %d: period %.2f s (confidence %.0f%%)\n", rank,
                  r.period(), 100.0 * r.refined_confidence);
    } else {
      std::printf("  rank %d: %s\n", rank,
                  ftio::core::periodicity_name(r.dft.verdict));
    }
  }

  const auto& aggregate = batch.back();
  std::printf("\naggregate view: %s",
              ftio::core::periodicity_name(aggregate.dft.verdict));
  if (aggregate.periodic()) {
    std::printf(", period %.2f s (confidence %.0f%%)",
                aggregate.period(), 100.0 * aggregate.refined_confidence);
  }
  std::printf("\n(the checkpoint cadence dominates; the logger is noise "
              "below the V/L threshold)\n");

  // The two pipeline stages behind the aggregate verdict: the ACF
  // refinement of the DFT period, and the prediction fused from both.
  std::printf("\npipeline stages on the aggregate:\n");
  if (aggregate.acf && aggregate.acf->found()) {
    std::printf("  acf refinement: period %.2f s (confidence %.0f%%)\n",
                aggregate.acf->period, 100.0 * aggregate.acf->confidence);
  }
  if (aggregate.fused.found()) {
    std::printf("  fused: period %.2f s, confidence %.0f%%\n",
                aggregate.fused.period, 100.0 * aggregate.fused.confidence);
  } else {
    std::printf("  fused: no periodic verdict\n");
  }

  // Wavelet: when does rank 2's telemetry cadence change? Replace its
  // post-400 s stream with a half-rate one and inspect the scalogram.
  ftio::trace::Trace switched = t;
  std::erase_if(switched.requests, [](const ftio::trace::IoRequest& r) {
    return r.rank == 2 && r.start > 400.0;
  });
  for (int p = 0; p < 15; ++p) {
    switched.requests.push_back({2, 406.0 + p * 14.0, 406.0 + p * 14.0 + 1.0,
                                 20'000'000, ftio::trace::IoKind::kWrite});
  }
  const auto rank2 = ftio::trace::rank_bandwidth_signal(switched, 2);
  const auto window = ftio::core::select_analysis_window(rank2, opts);
  std::vector<double> samples;
  ftio::core::discretize_window(rank2, window, opts, 0, samples);
  const auto freqs = ftio::signal::log_spaced_frequencies(0.02, 0.5, 24);
  const auto cwt = ftio::signal::morlet_cwt(samples, 2.0, freqs);
  const auto change = ftio::signal::strongest_change_point(cwt, 120);
  if (change) {
    std::printf("\nwavelet view of rank 2 (cadence halves at 400 s): "
                "strongest change at t = %.0f s\n",
                static_cast<double>(*change) / 2.0);
  } else {
    std::printf("\nwavelet view of rank 2: no cadence change detected\n");
  }
  return 0;
}
