#include "core/acf_analysis.hpp"

#include <algorithm>
#include <cmath>

#include "signal/autocorrelation.hpp"
#include "signal/peaks.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace ftio::core {

AcfAnalysis analyze_autocorrelation(std::span<const double> samples, double fs,
                                    const AcfOptions& options) {
  ftio::util::expect(fs > 0.0, "analyze_autocorrelation: fs must be positive");
  if (samples.size() < 3) return {};
  return analyze_autocorrelation_prepared(
      ftio::signal::autocorrelation(samples), fs, options);
}

AcfAnalysis analyze_autocorrelation_prepared(std::span<const double> acf,
                                             double fs,
                                             const AcfOptions& options) {
  ftio::util::expect(fs > 0.0,
                     "analyze_autocorrelation_prepared: fs must be positive");
  AcfAnalysis out;
  if (acf.size() < 3) return out;

  // The ACF decays from 1 over one burst width (the decorrelation width);
  // noise on that slope and on each period hump creates clusters of
  // micro-maxima with near-1 heights that would dominate the weighted
  // filter. Two standard countermeasures: (1) only lags past the first
  // drop below the threshold can carry period information, and (2) peaks
  // closer than one decorrelation width collapse to the highest one.
  std::size_t first_drop = 0;
  while (first_drop < acf.size() && acf[first_drop] >= options.peak_threshold) {
    ++first_drop;
  }
  ftio::signal::PeakOptions peak_opts;
  peak_opts.min_height = options.peak_threshold;
  if (first_drop < acf.size() && first_drop > 1) {
    peak_opts.min_distance = first_drop;
  }
  auto peaks = ftio::signal::find_peaks(acf, peak_opts);
  if (first_drop < acf.size()) {
    std::erase_if(peaks, [&](const ftio::signal::Peak& p) {
      return p.index < first_drop;
    });
  }
  if (peaks.size() < 2) {
    // A single peak still yields one period estimate: its lag from zero.
    if (peaks.size() == 1 && peaks[0].index > 0) {
      const double period = static_cast<double>(peaks[0].index) / fs;
      out.peak_lags = {period};
      out.raw_periods = {period};
      out.candidate_periods = {period};
      out.period = period;
      out.confidence = 1.0;  // no spread observable
    }
    return out;
  }

  out.peak_lags.reserve(peaks.size());
  for (const auto& p : peaks) {
    out.peak_lags.push_back(static_cast<double>(p.index) / fs);
  }

  // Inter-peak gaps, measured in samples then divided by fs (Sec. II-C);
  // the gap from lag 0 to the first peak is included as well since lag 0
  // is by definition the strongest correlation.
  std::vector<double> weights;
  out.raw_periods.reserve(peaks.size());
  out.raw_periods.push_back(static_cast<double>(peaks[0].index) / fs);
  weights.push_back(peaks[0].height);
  for (std::size_t i = 1; i < peaks.size(); ++i) {
    out.raw_periods.push_back(
        static_cast<double>(peaks[i].index - peaks[i - 1].index) / fs);
    weights.push_back(peaks[i].height);
  }

  // Weighted Z-score filter: the mean is ACF-weighted so that strong
  // (true-period) peaks dominate it and spurious small gaps filter out.
  const double mu_w = ftio::util::weighted_mean(out.raw_periods, weights);
  double var = 0.0;
  for (double p : out.raw_periods) var += (p - mu_w) * (p - mu_w);
  var /= static_cast<double>(out.raw_periods.size());
  const double sigma = std::sqrt(var);

  if (sigma == 0.0) {
    out.candidate_periods = out.raw_periods;
  } else {
    for (double p : out.raw_periods) {
      if (std::abs(p - mu_w) / sigma <= options.outlier_zscore) {
        out.candidate_periods.push_back(p);
      }
    }
    if (out.candidate_periods.empty()) {
      // Degenerate spread: fall back to the weighted mean itself.
      out.candidate_periods.push_back(mu_w);
    }
  }

  out.period = ftio::util::mean(out.candidate_periods);
  out.confidence = std::clamp(
      1.0 - ftio::util::coefficient_of_variation(out.candidate_periods), 0.0,
      1.0);
  return out;
}

double dft_acf_similarity(const AcfAnalysis& acf, double dft_period) {
  if (acf.candidate_periods.empty() || dft_period <= 0.0) return 0.0;
  std::vector<double> merged = acf.candidate_periods;
  merged.push_back(dft_period);
  return std::clamp(1.0 - ftio::util::coefficient_of_variation(merged), 0.0,
                    1.0);
}

double merged_confidence(double dft_confidence, const AcfAnalysis& acf,
                         double dft_period) {
  if (!acf.found()) return dft_confidence;
  const double cs = dft_acf_similarity(acf, dft_period);
  return (dft_confidence + acf.confidence + cs) / 3.0;
}

}  // namespace ftio::core
