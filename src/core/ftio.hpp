#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/acf_analysis.hpp"
#include "core/candidates.hpp"
#include "core/metrics.hpp"
#include "signal/spectrum.hpp"
#include "signal/step_function.hpp"
#include "trace/model.hpp"

namespace ftio::core {

/// Options of a complete FTIO evaluation (offline detection or one online
/// prediction step). Field defaults follow the paper.
struct FtioOptions {
  /// Sampling frequency fs in Hz (Sec. II-E). The paper's experiments use
  /// 10 Hz for IOR/LAMMPS/HACC-IO and 1 Hz for the synthetic studies.
  double sampling_frequency = 10.0;
  /// Restrict the analysis to [window_start, window_end] seconds; the
  /// full trace when unset. Shrinking this window is how FTIO adapts to
  /// changing behaviour (Sec. II-D / Fig. 11).
  std::optional<double> window_start;
  std::optional<double> window_end;
  /// Analyse only this direction of I/O (both when unset).
  std::optional<ftio::trace::IoKind> kind;
  /// Drop everything before the end of the first I/O phase ("as the first
  /// phase is often prolonged due to initialization overheads, FTIO
  /// provides an option to skip it", Sec. III-B).
  bool skip_first_phase = false;
  /// Candidate extraction knobs (Z-score threshold, tolerance, method).
  CandidateOptions candidates;
  /// Run the autocorrelation refinement (Sec. II-C). Costs one extra FFT.
  /// The only switch in the detection pipeline: the DFT stage always
  /// runs, the ACF pass runs when this is set.
  bool with_autocorrelation = true;
  AcfOptions acf;
  /// Compute the report diagnostics: the Sec. II-E abstraction error,
  /// and sigma_vol / R_IO / sigma_time when a period was found. No
  /// prediction field reads either; off, both stay at their defaults.
  bool with_metrics = true;
  /// Keep the full spectrum in the result (needed to plot/synthesize the
  /// Figs. 12-14 style output; costs O(N) memory).
  bool keep_spectrum = false;
  /// Discretisation mode (point sampling matches the paper's definition).
  ftio::signal::SamplingMode sampling_mode =
      ftio::signal::SamplingMode::kPointSample;
};

/// The DFT verdict and its ACF refinement folded into one prediction.
/// Found exactly when the DFT stage found a period, which it names; the
/// confidence is c_d, plus c_a when the ACF period lies within 15%
/// (log scale) of the DFT period, over the number of stages that ran.
/// perfbench's offline bit-identity check reads it.
struct FusedPrediction {
  std::optional<double> frequency;  ///< Hz, unset when aperiodic
  double period = 0.0;              ///< seconds, 0 when aperiodic
  double confidence = 0.0;          ///< in [0, 1]

  bool found() const { return frequency.has_value(); }
};

/// Complete result of one FTIO evaluation.
struct FtioResult {
  /// DFT stage (Sec. II-B): verdict, dominant frequency, candidates, c_d.
  DftAnalysis dft;
  /// Autocorrelation refinement (Sec. II-C), empty when
  /// with_autocorrelation was off.
  std::optional<AcfAnalysis> acf;
  /// (c_d + c_a + c_s)/3 (merged_confidence) when both the DFT stage and
  /// the ACF found a period, c_d alone otherwise.
  double refined_confidence = 0.0;
  /// The DFT verdict and its ACF refinement as one prediction.
  FusedPrediction fused;
  /// Characterization metrics, present when a period was found and
  /// with_metrics was set.
  std::optional<PeriodicityMetrics> metrics;
  /// Full spectrum when keep_spectrum was set.
  std::optional<ftio::signal::Spectrum> spectrum;

  // Analysis context.
  double sampling_frequency = 0.0;  ///< fs used
  double window_start = 0.0;        ///< analysed window [s]
  double window_end = 0.0;
  std::size_t sample_count = 0;     ///< N
  /// Discrete-vs-original volume error over the window (Sec. II-E);
  /// 0 unless with_metrics was set.
  double abstraction_error = 0.0;

  /// Convenience accessors.
  bool periodic() const { return dft.dominant_frequency.has_value(); }
  double frequency() const { return dft.dominant_frequency.value_or(0.0); }
  double period() const { return dft.period(); }
  /// The analysis confidence: refined_confidence, which equals the bare
  /// c_d whenever the ACF did not corroborate. Callers that want the
  /// pure DFT figure read dft.confidence.
  double confidence() const { return refined_confidence; }
};

/// Precomputed artefacts for one analysis. All fields are optional: the
/// pipeline computes a missing artefact from the samples. Pointed-to
/// objects must outlive the call. A caller that already holds the
/// window's ACF (perfbench/src/offline.cpp times the transform stages
/// separately) passes it through `acf`.
struct AnalysisArtifacts {
  /// signal::autocorrelation(samples); read by the ACF refinement.
  const std::vector<double>* acf = nullptr;
  /// The continuous bandwidth curve the samples were discretised from.
  /// Nothing reads it: it stays only because perfbench/src/offline.cpp
  /// sets it.
  const ftio::signal::StepFunction* source_curve = nullptr;
};

/// Analyses an already-discretised signal (samples at fs Hz).
/// `origin` is the absolute time of samples[0] (used only for reporting).
FtioResult analyze_samples(std::span<const double> samples,
                           const FtioOptions& options, double origin = 0.0,
                           const AnalysisArtifacts& artifacts = {});

/// analyze_samples with the spectrum supplied by the caller, for callers
/// that compute the transform stages themselves (perfbench/src/offline.cpp
/// does, to time them apart from the DFT and ACF stages). `spectrum` must
/// be compute_spectrum(samples, fs); artefacts follow the
/// AnalysisArtifacts contract. Results are identical to analyze_samples.
FtioResult analyze_samples_prepared(std::span<const double> samples,
                                    const FtioOptions& options, double origin,
                                    ftio::signal::Spectrum spectrum,
                                    const AnalysisArtifacts& artifacts = {});

// ---------------------------------------------------------------------------
// Bandwidth-analysis building blocks. analyze_bandwidth is exactly the
// composition select_analysis_window -> discretize_window ->
// analyze_samples -> finish_bandwidth_result; they are exposed so the
// streaming engine can run the identical pipeline over its incrementally
// maintained curve, and so callers that only need the samples (a wavelet
// view, say) discretise exactly as the pipeline does.
// ---------------------------------------------------------------------------

/// The sampling grid of one bandwidth evaluation: N = `samples` points at
/// spacing 1/fs anchored at `start`, covering [start, end].
struct AnalysisWindow {
  double start = 0.0;
  double end = 0.0;
  std::size_t samples = 0;
};

/// Window-selection step of analyze_bandwidth: clips the curve support to
/// the option window (and past the first phase when skip_first_phase is
/// set) and sizes the grid. Throws InvalidArgument when the curve is
/// empty, when options.sampling_frequency is not positive, or when the
/// window is empty or shorter than one sample.
AnalysisWindow select_analysis_window(
    const ftio::signal::StepFunction& bandwidth, const FtioOptions& options);

/// The one discretiser (Sec. II-B1 / II-E): fills samples[first, N) with
/// x_i = bandwidth.value_at(t_i) at t_i = start + i / fs, or under
/// SamplingMode::kBinAverage with integral(t_i, b_i) / (b_i - t_i), where
/// b_i = min(t_i + 1/fs, window.end) — bit for bit, in one forward pass
/// over the curve. `samples` is resized to window.samples; entries below
/// `first` are left untouched. Every caller in the tree passes 0; the
/// parameter stays because perfbench/src/offline.cpp passes it.
void discretize_window(const ftio::signal::StepFunction& bandwidth,
                       const AnalysisWindow& window,
                       const FtioOptions& options, std::size_t first,
                       std::vector<double>& samples);

/// Fills the bandwidth-derived fields of a result computed from `samples`
/// over `window`: the Sec. II-E abstraction error, and the
/// characterization metrics when a period was found. Both only under
/// FtioOptions::with_metrics; without it the call leaves `result` as is.
void finish_bandwidth_result(const ftio::signal::StepFunction& bandwidth,
                             const AnalysisWindow& window,
                             std::span<const double> samples,
                             const FtioOptions& options, FtioResult& result);

/// Discretises a bandwidth curve at options.sampling_frequency (honouring
/// the window options) and analyses it.
FtioResult analyze_bandwidth(const ftio::signal::StepFunction& bandwidth,
                             const FtioOptions& options);

/// The offline "detection" entry point (Sec. II): builds the application-
/// level bandwidth from the request trace, then runs the full pipeline.
FtioResult detect(const ftio::trace::Trace& trace, const FtioOptions& options);

// ---------------------------------------------------------------------------
// Parameter selection (Sec. II-E)
// ---------------------------------------------------------------------------

/// Suggests a sampling frequency from the smallest bandwidth-change
/// granularity in the trace: fs = 2 / min request duration (Nyquist of the
/// fastest change), clamped to [min_fs, max_fs]. "As our approach captures
/// the time spent on each I/O request, we can find the smallest change in
/// bandwidth over time and use it to calculate fs."
double suggest_sampling_frequency(const ftio::trace::Trace& trace,
                                  double min_fs = 0.01, double max_fs = 10000.0);

/// Same rule from an already-known minimum positive request duration
/// (<= 0 means "no positive duration seen" and yields min_fs). The
/// streaming engine maintains that minimum incrementally instead of
/// re-scanning the trace per flush.
double suggest_sampling_frequency(double min_request_duration, double min_fs,
                                  double max_fs);

/// Frequency-domain resolution for a time window: 1/dt (Sec. II-B1).
double frequency_resolution(double time_window);

/// End time of the first I/O phase of a bandwidth curve: the end of the
/// first maximal run of non-zero bandwidth. Used by skip_first_phase.
double first_phase_end(const ftio::signal::StepFunction& bandwidth);

}  // namespace ftio::core
