#pragma once

#include <optional>
#include <span>
#include <vector>

namespace ftio::core {

/// Tuning for the autocorrelation refinement (Sec. II-C).
struct AcfOptions {
  /// Minimum ACF height for a peak (the paper uses find_peaks with 0.15).
  double peak_threshold = 0.15;
  /// |weighted z-score| above which an inter-peak period is filtered out
  /// before averaging.
  double outlier_zscore = 1.0;
};

/// Result of the autocorrelation pass.
struct AcfAnalysis {
  /// Lag (in seconds) of each detected ACF peak after lag 0.
  std::vector<double> peak_lags;
  /// Inter-peak periods before outlier filtering ("17 periods" in the
  /// IOR example).
  std::vector<double> raw_periods;
  /// Periods that survived the weighted Z-score filter ("5 candidates").
  std::vector<double> candidate_periods;
  /// Average of the candidates, the ACF period estimate (0 if none).
  double period = 0.0;
  /// Confidence c_a = 1 - sigma/mean over the candidates (0 if none).
  double confidence = 0.0;

  bool found() const { return period > 0.0; }
};

/// Runs the Sec. II-C autocorrelation pipeline on a discretised signal:
/// ACF -> find_peaks(threshold) -> inter-peak gaps / fs -> weighted-mean
/// Z-score filter (weights = ACF heights) -> average + coefficient of
/// variation confidence.
AcfAnalysis analyze_autocorrelation(std::span<const double> samples, double fs,
                                    const AcfOptions& options = {});

/// The peak/period/confidence stages of analyze_autocorrelation on an
/// already-computed, lag-0-normalised ACF (lags 0..N-1 of an N-sample
/// signal), for callers that already computed signal::autocorrelation
/// (analyze_samples reads AnalysisArtifacts::acf through it). Results
/// are identical to analyze_autocorrelation on the original samples.
AcfAnalysis analyze_autocorrelation_prepared(std::span<const double> acf,
                                             double fs,
                                             const AcfOptions& options = {});

/// Similarity c_s of the DFT period to the ACF candidates: 1 minus the
/// coefficient of variation of {candidates..., dft_period}, clamped to
/// [0, 1] (Sec. II-C "we find the similarity ... using the coefficient
/// of variation"). Returns 0 when there are no candidates or the period
/// is non-positive.
double dft_acf_similarity(const AcfAnalysis& acf, double dft_period);

/// Refined confidence (c_d + c_a + c_s) / 3 as in the Sec. II-C example.
double merged_confidence(double dft_confidence, const AcfAnalysis& acf,
                         double dft_period);

}  // namespace ftio::core
