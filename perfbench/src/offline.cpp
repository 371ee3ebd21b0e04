// offline_corpus: the paper's offline tool. Each trace goes from bytes
// (JSONL or MessagePack) through core::detect to an FtioResult, one trace
// at a time on one thread.
//
// The traced run alternates untraced corpus passes with traced ones. A
// traced pass runs the public pieces detect() is composed of and times
// each call; the untraced passes of the same run give the reference the
// stage sums reconcile against.

#include <bit>
#include <exception>

#include "common.hpp"
#include "inputs.hpp"
#include "signal/autocorrelation.hpp"
#include "signal/spectrum.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = ftio::core;

/// Per-stage busy time of the composed pipeline, in seconds.
struct StageTimes {
  double parse = 0.0;
  double sweep = 0.0;
  double window = 0.0;
  double spectrum = 0.0;
  double acf = 0.0;
  double detectors = 0.0;
  double finish = 0.0;

  double sum() const {
    return parse + sweep + window + spectrum + acf + detectors + finish;
  }
};

/// detect() spelled out as its public building blocks, each call timed:
/// bandwidth_signal -> select_analysis_window + discretize_window ->
/// compute_spectrum -> autocorrelation -> analyze_samples_prepared ->
/// finish_bandwidth_result.
core::FtioResult composed_detect(const CorpusEntry& entry, StageTimes& t) {
  auto mark = Clock::now();
  auto lap = [&mark](double& slot) {
    const auto now = Clock::now();
    slot += seconds_between(mark, now);
    mark = now;
  };
  const ftio::trace::Trace trace = entry.parse();
  lap(t.parse);
  const core::FtioOptions& options = entry.options;
  ftio::trace::BandwidthOptions bw;
  bw.kind = options.kind;
  const auto bandwidth = ftio::trace::bandwidth_signal(trace, bw);
  ftio::util::expect(!bandwidth.empty(), "detect: trace has no I/O requests");
  lap(t.sweep);
  const core::AnalysisWindow window =
      core::select_analysis_window(bandwidth, options);
  std::vector<double> samples;
  core::discretize_window(bandwidth, window, options, 0, samples);
  lap(t.window);
  ftio::signal::Spectrum spectrum =
      ftio::signal::compute_spectrum(samples, options.sampling_frequency);
  lap(t.spectrum);
  const std::vector<double> acf = ftio::signal::autocorrelation(samples);
  lap(t.acf);
  core::AnalysisArtifacts artifacts;
  artifacts.source_curve = &bandwidth;
  artifacts.acf = &acf;
  core::FtioResult result = core::analyze_samples_prepared(
      samples, options, window.start, std::move(spectrum), artifacts);
  lap(t.detectors);
  core::finish_bandwidth_result(bandwidth, window, samples, options, result);
  lap(t.finish);
  return result;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same_bits(const std::optional<double>& a, const std::optional<double>& b) {
  return a.has_value() == b.has_value() && (!a || same_bits(*a, *b));
}

/// Bit-for-bit equality of everything an analyst reads off a result.
bool same_result(const core::FtioResult& a, const core::FtioResult& b) {
  bool same = same_bits(a.dft.dominant_frequency, b.dft.dominant_frequency) &&
              same_bits(a.dft.confidence, b.dft.confidence) &&
              a.dft.candidates.size() == b.dft.candidates.size() &&
              same_bits(a.refined_confidence, b.refined_confidence) &&
              same_bits(a.fused.frequency, b.fused.frequency) &&
              same_bits(a.fused.confidence, b.fused.confidence) &&
              same_bits(a.abstraction_error, b.abstraction_error) &&
              same_bits(a.window_start, b.window_start) &&
              same_bits(a.window_end, b.window_end) &&
              a.sample_count == b.sample_count &&
              a.acf.has_value() == b.acf.has_value() &&
              a.metrics.has_value() == b.metrics.has_value();
  if (same && a.acf) {
    same = same_bits(a.acf->period, b.acf->period) &&
           same_bits(a.acf->confidence, b.acf->confidence);
  }
  if (same && a.metrics) {
    same = same_bits(a.metrics->sigma_vol, b.metrics->sigma_vol) &&
           same_bits(a.metrics->sigma_time, b.metrics->sigma_time) &&
           same_bits(a.metrics->time_ratio_io, b.metrics->time_ratio_io) &&
           a.metrics->period_count == b.metrics->period_count;
  }
  return same;
}

}  // namespace

Report run_offline_corpus(const RunConfig& config) {
  Report report;

  // Set-up: generate and encode the corpus (median of kSetupRepeats).
  std::vector<double> setups;
  std::vector<CorpusEntry> corpus;
  for (int i = 0; i < kSetupRepeats; ++i) {
    corpus.clear();
    const auto started = Clock::now();
    corpus = make_corpus(config.seed);
    setups.push_back(seconds_since(started));
  }

  // Warm-up pass (plan caches, allocator): also the reference results
  // for the quality and bit-identity checks.
  std::vector<core::FtioResult> reference;
  for (const CorpusEntry& entry : corpus) {
    reference.push_back(core::detect(entry.parse(), entry.options));
  }
  double error_sum = 0.0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& r = reference[i];
    error_sum += period_error(r.dft.dominant_frequency, corpus[i].true_period);
    StageTimes ignored;
    report.check(same_result(composed_detect(corpus[i], ignored), r),
                 "composed pipeline differs from core::detect on " +
                     corpus[i].name);
  }

  // Measurement: a fixed number of whole corpus passes (see
  // kOfflinePassesPerSecond). A traced run alternates untraced and traced
  // passes.
  const auto passes = static_cast<std::size_t>(
      std::max(2.0, std::round(config.seconds * kOfflinePassesPerSecond)));
  std::vector<Samples> trace_times(corpus.size());  // untraced, per trace
  double untraced_time = 0.0;
  std::size_t untraced_passes = 0;
  double traced_time = 0.0;
  std::size_t traced_passes = 0;
  StageTimes stages;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const bool traced = config.trace && pass % 2 == 1;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const CorpusEntry& entry = corpus[i];
      const auto t0 = Clock::now();
      ++report.attempted;
      try {
        if (traced) {
          composed_detect(entry, stages);
        } else {
          core::detect(entry.parse(), entry.options);
        }
      } catch (const std::exception&) {
        ++report.failed;
      }
      const double dt = seconds_since(t0);
      if (traced) {
        traced_time += dt;
      } else {
        untraced_time += dt;
        trace_times[i].add(dt);
      }
    }
    ++(traced ? traced_passes : untraced_passes);
  }

  if (!config.trace) {
    // Every pass repeats the same 19 operations, and on a shared machine
    // the pass rate swings between a fast and a slow state (by up to a
    // third) every few seconds; the share of slow seconds moved run
    // medians by 20-40%. Each trace's cost is therefore its fastest
    // untraced pass, the timeit rule, which every run reaches. Latency
    // percentiles are taken over those 19 minima (nearest-rank p99 of 19
    // is the slowest trace) and throughput is the corpus over their sum.
    Samples latency;
    double cost_sum = 0.0;
    for (Samples& times : trace_times) {
      const double fastest = times.quantile(0.0);
      latency.add(fastest);
      cost_sum += fastest;
    }
    EndToEnd e2e;
    e2e.setup_s = median(setups);
    e2e.ops_per_s = static_cast<double>(corpus.size()) / cost_sum;
    e2e.op_ms_p50 = latency.quantile(0.5) * 1e3;
    e2e.op_ms_p99 = latency.quantile(0.99) * 1e3;
    e2e.period_error_mean = error_sum / static_cast<double>(corpus.size());
    e2e.rss_mb_peak = peak_rss_mb();
    e2e.emit(report);
    std::fprintf(stderr,
                 "offline_corpus: %zu untraced passes of %zu traces timed; "
                 "each trace's latency is its fastest pass\n",
                 untraced_passes, corpus.size());
    return report;
  }

  // Per-layer report: means per corpus trace over the traced passes.
  const double traced_traces =
      static_cast<double>(traced_passes * corpus.size());
  const double per_trace_ms = 1e3 / traced_traces;
  std::size_t pass_bytes = 0;
  std::size_t pass_requests = 0;
  double n_sum = 0.0;
  std::size_t non_pow2 = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    pass_bytes += corpus[i].encoded_bytes();
    pass_requests += corpus[i].requests;
    n_sum += static_cast<double>(reference[i].sample_count);
    if (!std::has_single_bit(reference[i].sample_count)) ++non_pow2;
  }
  const double untraced_pass = untraced_time / static_cast<double>(untraced_passes);
  const double traced_pass = traced_time / static_cast<double>(traced_passes);
  const double stage_pass = stages.sum() / static_cast<double>(traced_passes);
  const double gap_pct = (stage_pass - untraced_pass) / untraced_pass * 100.0;
  LayerMetrics layers;
  layers.set("trace.parse_ms", stages.parse * per_trace_ms);
  layers.set("trace.parse_mb_per_s",
             static_cast<double>(pass_bytes * traced_passes) / 1e6 / stages.parse);
  layers.set("trace.sweep_ms", stages.sweep * per_trace_ms);
  layers.set("trace.requests", static_cast<double>(pass_requests));
  layers.set("core.window_ms", stages.window * per_trace_ms);
  layers.set("core.detectors_ms", stages.detectors * per_trace_ms);
  layers.set("core.finish_ms", stages.finish * per_trace_ms);
  layers.set("signal.spectrum_ms", stages.spectrum * per_trace_ms);
  layers.set("signal.acf_ms", stages.acf * per_trace_ms);
  layers.set("signal.window_n_mean", n_sum / static_cast<double>(corpus.size()));
  layers.set("signal.non_pow2_share",
             static_cast<double>(non_pow2) / static_cast<double>(corpus.size()));
  layers.set("tracing.overhead_pct", (traced_pass - untraced_pass) / untraced_pass * 100.0);
  layers.set("tracing.reconcile_gap_pct", gap_pct);
  report.check(std::abs(gap_pct) <= kReconcileTolerancePct,
               "traced stage sum does not reconcile with the untraced pass time");
  layers.emit(report);
  std::fprintf(stderr,
               "offline_corpus traced: %zu untraced + %zu traced passes, "
               "pass %.3f ms untraced, stage sum %.3f ms\n",
               untraced_passes, traced_passes, untraced_pass * 1e3, stage_pass * 1e3);
  return report;
}

}  // namespace perfbench
