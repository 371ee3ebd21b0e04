// Online prediction (Sec. II-D): a HACC-IO-like loop runs on the virtual
// cluster with the TMIO tracer attached in online mode; after every flush,
// the predictor re-evaluates the period from the data collected so far.
//
//   ./examples/online_prediction
//
// Demonstrates: mpisim::VirtualCluster + tmio::Tracer in online mode +
// engine::StreamingSession — incremental, plan-cached online prediction
// (bit-identical to core::detect over the accumulated trace, ~O(window)
// per flush) with an ensemble of window strategies evaluated in the same
// batch, and the DBSCAN merging of predictions into probability-weighted
// intervals.
// Compaction bounds the session's memory to the analysis window, and the
// triage filter bank answers steady flushes without the full spectral
// pipeline; both report their stats at the end.

#include <cstdio>

#include "engine/streaming.hpp"
#include "mpisim/cluster.hpp"
#include "tmio/tracer.hpp"

int main() {
  constexpr int kRanks = 16;
  constexpr int kLoops = 16;

  ftio::mpisim::FileSystemModel fs{32e9, 32e9, 2e9};
  ftio::mpisim::VirtualCluster cluster(kRanks, fs);
  ftio::tmio::Tracer tracer(kRanks, {.mode = ftio::tmio::Mode::kOnline,
                                     .app_name = "hacc-io-like"});
  cluster.attach_tracer(&tracer);

  ftio::engine::StreamingOptions streaming;
  streaming.online.base.sampling_frequency = 2.0;
  streaming.online.base.with_metrics = false;
  streaming.online.strategy = ftio::core::WindowStrategy::kAdaptive;
  streaming.online.adaptive_hits = 3;
  // Evaluate the fixed look-back rule next to the adaptive one; all
  // windows of a flush share one analyze_many batch. (A kGrowing member
  // would look back over the whole stream and pin eviction off.)
  streaming.ensemble = {ftio::core::WindowStrategy::kFixedLength};
  streaming.online.fixed_window = 30.0;
  // Bound session memory to the reachable look-back, and let the triage
  // filter bank skip the spectral pipeline while the period holds steady.
  streaming.compaction.enabled = true;
  streaming.triage.enabled = true;
  ftio::engine::StreamingSession session(streaming);

  std::printf("loop  flush@   window           prediction\n");

  // The HACC-IO pattern: compute, write, read, verify — flushed per loop.
  // (Sec. III-B: "at the end of each loop iteration, we added a single
  // line to flush the collected data out to the trace file".)
  for (int loop = 0; loop < kLoops; ++loop) {
    cluster.run([&](ftio::mpisim::RankEnv& env) {
      env.compute(loop == 0 ? 12.0 : 6.5);  // first phase delayed by init
      env.collective_write(2'000'000'000, 4);
      env.collective_read(2'000'000'000, 4);
      env.compute(0.3);  // verify
    });

    // The flush line of this loop: grab the records accumulated since the
    // previous flush, ship them to the trace sink, and feed the same
    // chunk to the session (flushing first would mark them as already
    // consumed and unflushed_chunk would come back empty).
    // A few flushes in, widen the detector set: cfd-autoperiod validates
    // spectral hints of the detrended window on its ACF, alongside the
    // default {dft, acf} pair, from the next full analysis on. Swapping
    // detectors is free at any flush boundary — the incremental curve
    // and sample caches carry over.
    // (Once the triage bank answers steady flushes, full analyses — and
    // with them the registry — only rerun on drift or cadence checks.)
    if (loop == 3) {
      ftio::core::DetectorSetOptions detectors;
      detectors.detectors = {{"dft", 1.0}, {"acf", 1.0},
                             {"cfd-autoperiod", 1.0}};
      session.set_detectors(std::move(detectors));
    }

    const auto chunk = tracer.unflushed_chunk();
    tracer.flush(chunk.end_time());
    session.ingest(chunk);
    const auto p = session.predict();
    if (p.found()) {
      std::printf("%4d  %6.1fs  [%6.1f, %6.1f]  period %.2f s (conf %.0f%%)\n",
                  loop, p.at_time, p.window_start, p.window_end, p.period(),
                  100.0 * p.refined_confidence);
    } else {
      std::printf("%4d  %6.1fs  [%6.1f, %6.1f]  no dominant frequency yet\n",
                  loop, p.at_time, p.window_start, p.window_end);
    }
  }

  // Per-detector votes behind the last full analysis: each selected
  // method's verdict, the triage bank's corroborate-only vote when it
  // held a stable estimate, and the weighted fusion over all of them.
  const auto& last_full = session.last_result();
  std::printf("\ndetector votes (last full analysis):\n");
  for (const auto& v : last_full.detector_verdicts) {
    const bool corroborate =
        (v.capabilities & ftio::core::kCapCorroborateOnly) != 0;
    if (v.found) {
      std::printf("  %-14s period %6.2f s  confidence %3.0f%%%s\n",
                  v.name.c_str(), v.period, 100.0 * v.confidence,
                  corroborate ? "  (corroborate-only)" : "");
    } else {
      std::printf("  %-14s no period\n", v.name.c_str());
    }
  }
  if (last_full.fused.found()) {
    std::printf("  fused: period %.2f s, confidence %.0f%%, agreement "
                "%.0f%% over %zu votes\n",
                last_full.fused.period, 100.0 * last_full.fused.confidence,
                100.0 * last_full.fused.agreement, last_full.fused.supporting);
  }

  std::printf("\nmerged frequency intervals (DBSCAN over predictions):\n");
  for (const auto& iv : session.merged_intervals()) {
    std::printf("  [%.4f, %.4f] Hz  center %.4f Hz (period %.2f s)  "
                "probability %.0f%%\n",
                iv.low, iv.high, iv.center, 1.0 / iv.center,
                100.0 * iv.probability);
  }

  auto strategy_name = [](ftio::core::WindowStrategy s) {
    switch (s) {
      case ftio::core::WindowStrategy::kGrowing: return "growing";
      case ftio::core::WindowStrategy::kAdaptive: return "adaptive";
      case ftio::core::WindowStrategy::kFixedLength: return "fixed-length";
    }
    return "unknown";
  };
  std::printf("\nensemble view (last prediction per window strategy):\n");
  for (std::size_t i = 0; i < streaming.ensemble.size(); ++i) {
    const auto& history = session.ensemble_history(i);
    if (history.empty()) continue;
    const auto& last = history.back();
    if (last.found()) {
      std::printf("  %-12s period %.2f s (conf %.0f%%)\n",
                  strategy_name(streaming.ensemble[i]), last.period(),
                  100.0 * last.refined_confidence);
    } else {
      std::printf("  %-12s no dominant frequency\n",
                  strategy_name(streaming.ensemble[i]));
    }
  }

  const auto& cs = session.compaction_stats();
  std::printf("\nsession memory: %zu bytes resident, curve support starts "
              "at %.1f s\n  %zu compactions evicted %zu events / %zu "
              "segments, %zu windows clamped\n",
              session.memory_bytes(), cs.retained_start, cs.compactions,
              cs.evicted_events, cs.evicted_segments, cs.clamped_windows);

  const auto& ts = session.triage_stats();
  const auto est = session.triage_estimate();
  std::printf("triage: %zu full analyses, %zu skipped (drift %zu, "
              "confidence %zu, cadence %zu retriggers)\n",
              ts.full_analyses, ts.skipped, ts.drift_retriggers,
              ts.confidence_retriggers, ts.cadence_retriggers);
  if (est.valid()) {
    std::printf("  filter bank: period %.2f s at %.0f%% confidence after "
                "%zu observations\n",
                est.period, 100.0 * est.confidence, est.observations);
  }

  const auto overhead = tracer.overhead();
  std::printf("\ntracer overhead: %llu records in %.3f ms, %llu flushes in "
              "%.3f ms\n",
              static_cast<unsigned long long>(overhead.record_count),
              1e3 * overhead.record_seconds,
              static_cast<unsigned long long>(overhead.flush_count),
              1e3 * overhead.flush_seconds);
  return 0;
}
