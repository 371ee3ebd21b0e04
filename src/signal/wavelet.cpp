#include "signal/wavelet.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "signal/fft.hpp"
#include "signal/plan.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace ftio::signal {

std::size_t CwtResult::dominant_row() const {
  std::size_t best = 0;
  double best_energy = -1.0;
  for (std::size_t f = 0; f < power.size(); ++f) {
    double energy = 0.0;
    for (double p : power[f]) energy += p;
    if (energy > best_energy) {
      best_energy = energy;
      best = f;
    }
  }
  return best;
}

std::vector<double> CwtResult::dominant_frequency_over_time() const {
  std::vector<double> out(time_steps(), 0.0);
  for (std::size_t n = 0; n < out.size(); ++n) {
    std::size_t best = 0;
    for (std::size_t f = 1; f < power.size(); ++f) {
      if (power[f][n] > power[best][n]) best = f;
    }
    out[n] = frequencies.empty() ? 0.0 : frequencies[best];
  }
  return out;
}

CwtResult morlet_cwt(std::span<const double> samples, double fs,
                     std::span<const double> frequencies, double omega0,
                     unsigned threads) {
  ftio::util::expect(!samples.empty(), "morlet_cwt: empty signal");
  ftio::util::expect(std::isfinite(fs) && fs > 0.0,
                     "morlet_cwt: fs must be finite and positive");
  ftio::util::expect(!frequencies.empty(), "morlet_cwt: no frequencies");
  ftio::util::expect(std::isfinite(omega0) && omega0 > 0.0,
                     "morlet_cwt: omega0 must be finite and positive");
  for (double f : frequencies) {
    ftio::util::expect(std::isfinite(f) && f > 0.0,
                       "morlet_cwt: frequencies must be finite and positive");
  }

  const std::size_t n = samples.size();
  const std::size_t padded = next_power_of_two(2 * n);

  // One shared plan serves the forward transform and every per-scale
  // inverse; the handle keeps the tables alive across calls even if the
  // cache evicts them.
  const auto plan = get_plan(padded);

  // Mean-removed, zero-padded signal spectrum (computed once, through the
  // plan's packed real fast path, straight into planar re/im lanes). The
  // analytic Morlet window below only ever reads the positive-frequency
  // bins k in [1, padded/2], so the single-sided half spectrum is all
  // that is needed — the mirrored upper half is never computed or stored,
  // and no interleaved std::complex buffer exists on the row path.
  const double mean = ftio::util::mean(samples);
  std::vector<double> x(padded, 0.0);
  for (std::size_t i = 0; i < n; ++i) x[i] = samples[i] - mean;
  std::vector<double> xh_re(padded / 2 + 1);
  std::vector<double> xh_im(padded / 2 + 1);
  plan->forward_real_half_planar(x, xh_re, xh_im);

  CwtResult result;
  result.sampling_frequency = fs;
  result.frequencies.assign(frequencies.begin(), frequencies.end());
  result.power.resize(frequencies.size());

  // Angular frequency grid of the padded FFT — positive frequencies
  // only, matching the half spectrum: the analytic wavelet never reads a
  // bin above padded/2.
  std::vector<double> omega(padded / 2 + 1);
  for (std::size_t k = 0; k < omega.size(); ++k) {
    omega[k] = 2.0 * std::numbers::pi * static_cast<double>(k) * fs /
               static_cast<double>(padded);
  }

  // Rows are independent: each runs one padded-size inverse transform
  // through the shared plan, fanned across workers. The product and
  // coefficient lanes are per-thread scratch reused across rows (and
  // across calls), so the hot loop does no allocation, and the result
  // does not depend on the thread count.
  ftio::util::parallel_for(
      frequencies.size(),
      [&](std::size_t fi) {
        thread_local std::vector<double> prod_re;
        thread_local std::vector<double> prod_im;
        thread_local std::vector<double> coef_re;
        thread_local std::vector<double> coef_im;
        prod_re.assign(padded, 0.0);
        prod_im.assign(padded, 0.0);
        coef_re.resize(padded);
        coef_im.resize(padded);

        // Morlet: psi_hat(s*w) = pi^{-1/4} exp(-(s*w - omega0)^2 / 2),
        // analytic (zero for negative frequencies). Scale from pseudo-
        // frequency: f = omega0 / (2*pi*s) => s = omega0 / (2*pi*f).
        const double scale =
            omega0 / (2.0 * std::numbers::pi * frequencies[fi]);
        // L2 normalisation (Torrence & Compo 1998, Eq. 6): the factor
        // sqrt(2*pi*scale*fs) gives every daughter wavelet unit
        // discrete energy, sum_k |psi_hat(s*w_k)|^2 = padded.
        const double norm = std::pow(std::numbers::pi, -0.25) *
                            std::sqrt(2.0 * std::numbers::pi * scale * fs);

        // The analytic wavelet lives on the positive-frequency bins
        // k in [1, padded/2], and the Gaussian underflows to exactly 0
        // once |scale*w - omega0| exceeds ~39 (exp(-745) is the smallest
        // positive double), so only the bins inside that band need the
        // exp at all — for low pseudo-frequencies that is a small
        // fraction of the spectrum.
        constexpr double kGaussianCut = 40.0;
        const double bins_per_omega =
            static_cast<double>(padded) / (2.0 * std::numbers::pi * fs);
        const std::size_t half = padded / 2;
        // Clamp in double before narrowing: extreme pseudo-frequencies
        // make these bin counts overflow size_t otherwise.
        const double half_bins = static_cast<double>(half);
        std::size_t k_lo = 1;
        if (omega0 > kGaussianCut) {
          const double lo_bins =
              std::ceil((omega0 - kGaussianCut) / scale * bins_per_omega);
          k_lo = lo_bins <= 1.0 ? 1
                                : static_cast<std::size_t>(
                                      std::min(lo_bins, half_bins + 1.0));
        }
        const double hi_bins =
            std::floor((omega0 + kGaussianCut) / scale * bins_per_omega);
        const std::size_t k_hi =
            hi_bins <= 0.0
                ? 0
                : static_cast<std::size_t>(std::min(hi_bins, half_bins));
        for (std::size_t k = k_lo; k <= k_hi; ++k) {
          const double arg = scale * omega[k] - omega0;
          const double window = norm * std::exp(-0.5 * arg * arg);
          prod_re[k] = xh_re[k] * window;
          prod_im[k] = xh_im[k] * window;
        }

        plan->inverse_planar(prod_re, prod_im, coef_re, coef_im);

        // Scalogram power, rectified by 1/scale (Liu et al. 2007): under
        // the L2 normalisation alone |W|^2 of a pure tone grows with the
        // matched scale, biasing every row comparison toward low
        // frequencies; dividing by the scale makes equal-amplitude tones
        // produce equal power whichever row they match.
        auto& row = result.power[fi];
        row.resize(n);
        const double rectify = 1.0 / scale;
        for (std::size_t i = 0; i < n; ++i) {
          row[i] = (coef_re[i] * coef_re[i] + coef_im[i] * coef_im[i]) *
                   rectify;
        }
      },
      threads);
  return result;
}

std::vector<double> log_spaced_frequencies(double lo, double hi,
                                           std::size_t count) {
  ftio::util::expect(lo > 0.0 && hi > lo, "log_spaced_frequencies: bad range");
  ftio::util::expect(count >= 2, "log_spaced_frequencies: need >= 2 points");
  std::vector<double> out(count);
  const double step = std::log(hi / lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = lo * std::exp(step * static_cast<double>(i));
  }
  return out;
}

std::optional<std::size_t> strongest_change_point(const CwtResult& cwt,
                                                  std::size_t window) {
  const std::size_t n = cwt.time_steps();
  if (n < 2 * window + 1 || window == 0 || cwt.power.empty()) {
    return std::nullopt;
  }
  const auto dominant = cwt.dominant_frequency_over_time();

  // Compare median dominant frequency left vs right of each centre.
  auto median_of = [&](std::size_t lo, std::size_t hi) {
    std::vector<double> values(dominant.begin() + static_cast<std::ptrdiff_t>(lo),
                               dominant.begin() + static_cast<std::ptrdiff_t>(hi));
    return ftio::util::median(values);
  };

  std::size_t best = 0;
  double best_shift = 0.0;
  for (std::size_t c = window; c + window < n; ++c) {
    const double left = median_of(c - window, c);
    const double right = median_of(c, c + window);
    if (left <= 0.0 || right <= 0.0) continue;
    const double shift = std::abs(std::log(right / left));
    if (shift > best_shift) {
      best_shift = shift;
      best = c;
    }
  }
  // Only report a genuine shift (> ~15% frequency ratio).
  if (best_shift > 0.14) return best;
  return std::nullopt;
}

}  // namespace ftio::signal
