#include "core/ftio.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ftio::core {

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

  // Registry pipeline: run the selected detectors over the shared
  // artefacts, in selection order (the first is the fusion primary).
  // With the default selection this executes exactly the seed pipeline —
  // analyze_spectrum, then the ACF refinement and (c_d + c_a + c_s)/3.
  const std::span<const DetectorSelection> selections =
      effective_selections(options.detectors, options.with_autocorrelation);
  DetectorInput input;
  input.samples = samples;
  input.sampling_frequency = options.sampling_frequency;
  input.origin = origin;
  input.spectrum = &spectrum;
  input.acf = artifacts.acf;
  input.source_curve = artifacts.source_curve;
  input.options = &options;

  DetectorRegistry& registry = DetectorRegistry::global();
  result.detector_verdicts.reserve(selections.size());
  for (const DetectorSelection& selection : selections) {
    const PeriodDetector* detector = registry.find(selection.name);
    ftio::util::expect(detector != nullptr,
                       "analyze_samples: unknown detector in selection");
    ftio::util::expect(std::isfinite(selection.weight) &&
                           selection.weight >= 0.0,
                       "analyze_samples: detector weight must be finite "
                       "and >= 0");
    DetectorVerdict verdict = detector->detect(input);
    // The verdict invariants every registered detector (built-in or
    // plugged-in) must uphold — fusion and the confidence merge divide
    // by and cluster on these fields, so a malformed verdict corrupts
    // every downstream consumer silently.
    FTIO_CONTRACT(verdict.name == selection.name,
                  "detector verdict must carry the registry name");
    FTIO_CONTRACT(verdict.confidence >= 0.0 && verdict.confidence <= 1.0,
                  "detector confidence must be in [0, 1]");
    FTIO_CONTRACT(!verdict.found ||
                      (verdict.period > 0.0 && std::isfinite(verdict.period) &&
                       verdict.frequency > 0.0),
                  "a found verdict must name a positive finite period");
    FTIO_CONTRACT(verdict.found ||
                      (verdict.period == 0.0 && verdict.frequency == 0.0),
                  "a not-found verdict must leave period and frequency 0");
    verdict.weight = selection.weight;
    if (verdict.dft) {
      result.dft = std::move(*verdict.dft);
      verdict.dft.reset();
    }
    if (verdict.acf) {
      result.acf = std::move(*verdict.acf);
      verdict.acf.reset();
    }
    result.detector_verdicts.push_back(std::move(verdict));
  }
  result.refined_confidence =
      corroborated_confidence(result.detector_verdicts);
  result.fused =
      fuse_verdicts(result.detector_verdicts, options.detectors.fusion);

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
  // Abstraction error over the analysed window (Sec. II-E / Fig. 6).
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

  if (options.with_metrics && result.periodic()) {
    result.metrics = compute_metrics(bandwidth, result.frequency());
  }
}

FtioResult analyze_bandwidth(const ftio::signal::StepFunction& bandwidth,
                             const FtioOptions& options) {
  const AnalysisWindow window = select_analysis_window(bandwidth, options);
  std::vector<double> samples;
  discretize_window(bandwidth, window, options, 0, samples);
  AnalysisArtifacts artifacts;
  artifacts.source_curve = &bandwidth;
  FtioResult result =
      analyze_samples(samples, options, window.start, artifacts);
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
