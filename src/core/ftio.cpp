#include "core/ftio.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ftio::core {

namespace {

/// Periods within this relative factor (log scale) agree in the fused
/// prediction.
constexpr double kFusionPeriodTolerance = 0.15;

FusedPrediction fuse(const DftAnalysis& dft,
                     const std::optional<AcfAnalysis>& acf) {
  FusedPrediction out;
  const double period = dft.period();
  if (period <= 0.0) return out;
  // Each stage that ran counts once in the denominator; the ACF adds its
  // confidence only when its period agrees with the DFT period. The sum
  // runs from 0.0 in stage order and must stay so: the golden-bits test
  // in core_detectors_test pins the result, and perfbench's same_result
  // checks that its staged path and core::detect agree on it.
  double mass = 0.0;
  mass += dft.confidence;
  double stages = 1.0;
  if (acf) {
    stages += 1.0;
    const double tolerance = std::log1p(kFusionPeriodTolerance);
    if (acf->found() && std::abs(std::log(acf->period / period)) <= tolerance) {
      mass += acf->confidence;
    }
  }
  out.frequency = 1.0 / period;
  out.period = period;
  out.confidence = std::clamp(mass / stages, 0.0, 1.0);
  return out;
}

}  // namespace

FtioResult analyze_samples(std::span<const double> samples,
                           const FtioOptions& options, double origin,
                           const AnalysisArtifacts& artifacts) {
  ftio::util::expect(!samples.empty(), "analyze_samples: empty signal");
  ftio::util::expect(options.sampling_frequency > 0.0,
                     "analyze_samples: fs must be positive");
  return analyze_samples_prepared(
      samples, options, origin,
      ftio::signal::compute_spectrum(samples, options.sampling_frequency),
      artifacts);
}

FtioResult analyze_samples_prepared(std::span<const double> samples,
                                    const FtioOptions& options, double origin,
                                    ftio::signal::Spectrum spectrum,
                                    const AnalysisArtifacts& artifacts) {
  ftio::util::expect(!samples.empty(),
                     "analyze_samples_prepared: empty signal");
  ftio::util::expect(options.sampling_frequency > 0.0,
                     "analyze_samples_prepared: fs must be positive");

  FtioResult result;
  result.sampling_frequency = options.sampling_frequency;
  result.window_start = origin;
  result.window_end =
      origin + static_cast<double>(samples.size()) / options.sampling_frequency;
  result.sample_count = samples.size();

  // The paper pipeline: the DFT verdict (Sec. II-B), then the ACF
  // refinement and (c_d + c_a + c_s)/3 (Sec. II-C).
  result.dft = analyze_spectrum(spectrum, options.candidates);
  if (options.with_autocorrelation && artifacts.acf != nullptr) {
    result.acf = analyze_autocorrelation_prepared(
        *artifacts.acf, options.sampling_frequency, options.acf);
  } else if (options.with_autocorrelation) {
    result.acf = analyze_autocorrelation(samples, options.sampling_frequency,
                                         options.acf);
  }
  const double period = result.dft.period();
  result.refined_confidence =
      result.acf && period > 0.0
          ? merged_confidence(result.dft.confidence, *result.acf, period)
          : result.dft.confidence;
  result.fused = fuse(result.dft, result.acf);

  if (options.keep_spectrum) result.spectrum = std::move(spectrum);
  return result;
}

AnalysisWindow select_analysis_window(
    const ftio::signal::StepFunction& bandwidth, const FtioOptions& options) {
  ftio::util::expect(!bandwidth.empty(), "analyze_bandwidth: empty signal");

  // Clip to the requested window by re-sampling only inside it.
  double start = bandwidth.start_time();
  double end = bandwidth.end_time();
  if (options.window_start) start = std::max(start, *options.window_start);
  if (options.window_end) end = std::min(end, *options.window_end);
  if (options.skip_first_phase) {
    start = std::max(start, first_phase_end(bandwidth));
  }
  ftio::util::expect(end > start, "analyze_bandwidth: empty analysis window");

  const double duration = end - start;
  // Untrusted-input guard: a parsed trace with absurd timestamps (or a
  // non-finite duration) must be rejected here — casting an overflowing
  // or infinite sample count to an integer is undefined behaviour, and
  // allocating it would take the process down far from the bad input.
  const double scaled = duration * options.sampling_frequency;
  ftio::util::expect(std::isfinite(scaled) &&
                         scaled < 9.0e15,  // < 2^53: exact as a double
                     "analyze_bandwidth: window sample count not "
                     "representable (non-finite or absurd duration * fs)");
  const auto n = static_cast<std::size_t>(std::ceil(scaled));
  ftio::util::expect(n > 0, "analyze_bandwidth: window shorter than a sample");
  return {start, end, n};
}

void discretize_window(const ftio::signal::StepFunction& bandwidth,
                       const AnalysisWindow& window,
                       const FtioOptions& options, std::size_t first,
                       std::vector<double>& samples) {
  const std::size_t n = window.samples;
  const double start = window.start;
  samples.resize(n);
  const double dt = 1.0 / options.sampling_frequency;
  if (options.sampling_mode == ftio::signal::SamplingMode::kPointSample) {
    for (std::size_t i = first; i < n; ++i) {
      samples[i] = bandwidth.value_at(start + static_cast<double>(i) * dt);
    }
  } else {
    for (std::size_t i = first; i < n; ++i) {
      const double a = start + static_cast<double>(i) * dt;
      const double b = std::min(a + dt, window.end);
      samples[i] = b > a ? bandwidth.integral(a, b) / (b - a) : 0.0;
    }
  }
}

void finish_bandwidth_result(const ftio::signal::StepFunction& bandwidth,
                             const AnalysisWindow& window,
                             std::span<const double> samples,
                             const FtioOptions& options, FtioResult& result) {
  // The abstraction error (Sec. II-E / Fig. 6) and the Sec. II-C metrics
  // are report diagnostics; one flag gates both.
  if (!options.with_metrics) return;
  const double start = window.start;
  const double end = window.end;
  const double dt = 1.0 / options.sampling_frequency;
  const double original = bandwidth.integral(start, end);
  double discrete = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double a = start + static_cast<double>(i) * dt;
    discrete += samples[i] * std::max(std::min(dt, end - a), 0.0);
  }
  result.abstraction_error =
      original > 0.0 ? std::abs(discrete - original) / original : 0.0;

  if (result.periodic()) {
    result.metrics = compute_metrics(bandwidth, result.frequency());
  }
}

FtioResult analyze_bandwidth(const ftio::signal::StepFunction& bandwidth,
                             const FtioOptions& options) {
  const AnalysisWindow window = select_analysis_window(bandwidth, options);
  std::vector<double> samples;
  discretize_window(bandwidth, window, options, 0, samples);
  FtioResult result = analyze_samples(samples, options, window.start);
  finish_bandwidth_result(bandwidth, window, samples, options, result);
  return result;
}

FtioResult detect(const ftio::trace::Trace& trace, const FtioOptions& options) {
  ftio::trace::BandwidthOptions bw;
  bw.kind = options.kind;
  // Window clipping happens in analyze_bandwidth so that the noise
  // threshold and metrics see the same curve the spectrum saw.
  const auto bandwidth = ftio::trace::bandwidth_signal(trace, bw);
  ftio::util::expect(!bandwidth.empty(), "detect: trace has no I/O requests");
  return analyze_bandwidth(bandwidth, options);
}

double suggest_sampling_frequency(const ftio::trace::Trace& trace,
                                  double min_fs, double max_fs) {
  double min_duration = 0.0;
  for (const auto& r : trace.requests) {
    const double d = r.duration();
    if (d > 0.0 && (min_duration == 0.0 || d < min_duration)) {
      min_duration = d;
    }
  }
  return suggest_sampling_frequency(min_duration, min_fs, max_fs);
}

double suggest_sampling_frequency(double min_request_duration, double min_fs,
                                  double max_fs) {
  ftio::util::expect(min_fs > 0.0 && max_fs >= min_fs,
                     "suggest_sampling_frequency: bad clamp range");
  if (min_request_duration <= 0.0) return min_fs;
  return std::clamp(2.0 / min_request_duration, min_fs, max_fs);
}

double frequency_resolution(double time_window) {
  ftio::util::expect(time_window > 0.0,
                     "frequency_resolution: non-positive window");
  return 1.0 / time_window;
}

double first_phase_end(const ftio::signal::StepFunction& bandwidth) {
  const auto times = bandwidth.times();
  const auto values = bandwidth.values();
  bool in_phase = false;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] > 0.0) {
      in_phase = true;
    } else if (in_phase) {
      return times[i];  // first gap after the first active run
    }
  }
  return bandwidth.end_time();
}

}  // namespace ftio::core
