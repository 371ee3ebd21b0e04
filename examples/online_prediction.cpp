// Online prediction (Sec. II-D): a HACC-IO-like loop runs on the virtual
// cluster with the TMIO tracer attached in online mode; after every flush,
// the predictor re-evaluates the period from the data collected so far.
//
//   ./examples/online_prediction
//
// Demonstrates: mpisim::VirtualCluster + tmio::Tracer in online mode +
// engine::StreamingSession — incremental, plan-cached online prediction
// with the adaptive window strategy (bit-identical to core::detect over
// the accumulated trace, ~O(window) per flush), and the DBSCAN merging of
// predictions into probability-weighted intervals.
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
                                     .path = {},
                                     .app_name = "hacc-io-like"});
  cluster.attach_tracer(&tracer);

  ftio::engine::StreamingOptions streaming;
  streaming.online.base.sampling_frequency = 2.0;
  streaming.online.base.with_metrics = false;
  streaming.online.strategy = ftio::core::WindowStrategy::kAdaptive;
  streaming.online.adaptive_hits = 3;
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

  // The two stages behind the last full analysis: the DFT verdict, its
  // ACF refinement, and the prediction fused from both.
  const auto& last_full = session.last_result();
  std::printf("\nlast full analysis:\n");
  if (last_full.periodic()) {
    std::printf("  dft: period %6.2f s  confidence %3.0f%%\n",
                last_full.period(), 100.0 * last_full.dft.confidence);
  } else {
    std::printf("  dft: no period\n");
  }
  if (last_full.acf && last_full.acf->found()) {
    std::printf("  acf: period %6.2f s  confidence %3.0f%%\n",
                last_full.acf->period, 100.0 * last_full.acf->confidence);
  }
  if (last_full.fused.found()) {
    std::printf("  fused: period %.2f s, confidence %.0f%%\n",
                last_full.fused.period, 100.0 * last_full.fused.confidence);
  }

  std::printf("\nmerged frequency intervals (DBSCAN over predictions):\n");
  for (const auto& iv : session.merged_intervals()) {
    std::printf("  [%.4f, %.4f] Hz  center %.4f Hz (period %.2f s)  "
                "probability %.0f%%\n",
                iv.low, iv.high, iv.center, 1.0 / iv.center,
                100.0 * iv.probability);
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
