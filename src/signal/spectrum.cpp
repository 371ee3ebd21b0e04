#include "signal/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "signal/batch_util.hpp"
#include "signal/plan.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace ftio::signal {

double Spectrum::frequency_step() const {
  if (total_samples == 0) return 0.0;
  return sampling_frequency / static_cast<double>(total_samples);
}

namespace {

/// The post-transform half of compute_spectrum: derives the Sec. II-B1
/// spectrum fields from the packed single-sided bins. One shared function
/// (not two copies) so the batched and per-signal paths produce the same
/// instruction sequence — and therefore identical doubles — bit for bit.
Spectrum finish_spectrum(const double* bin_re, const double* bin_im,
                         std::size_t n, double fs) {
  const std::size_t half = n / 2;  // single-sided: k in [0, N/2]
  Spectrum s;
  s.sampling_frequency = fs;
  s.total_samples = n;
  s.frequencies.resize(half + 1);
  s.amplitudes.resize(half + 1);
  s.phases.resize(half + 1);
  s.power.resize(half + 1);
  s.normed_power.resize(half + 1);

  double total_power = 0.0;
  for (std::size_t k = 0; k <= half; ++k) {
    s.frequencies[k] =
        static_cast<double>(k) * fs / static_cast<double>(n);
    s.amplitudes[k] = std::hypot(bin_re[k], bin_im[k]);
    s.phases[k] = std::atan2(bin_im[k], bin_re[k]);
    s.power[k] = s.amplitudes[k] * s.amplitudes[k] / static_cast<double>(n);
    total_power += s.power[k];
  }
  for (std::size_t k = 0; k <= half; ++k) {
    s.normed_power[k] = total_power > 0.0 ? s.power[k] / total_power : 0.0;
  }
  return s;
}

}  // namespace

Spectrum compute_spectrum(std::span<const double> samples, double fs) {
  ftio::util::expect(!samples.empty(), "compute_spectrum: empty signal");
  ftio::util::expect(fs > 0.0, "compute_spectrum: fs must be positive");

  // Plan-cached packed real transform into per-thread planar scratch:
  // only the single-sided N/2+1 bins the spectrum reads are ever computed
  // or stored (the conjugate-symmetric upper half no longer exists), the
  // lanes stay split re[]/im[] end-to-end (no interleaved std::complex
  // buffer anywhere on the path), and the buffers are reused across calls
  // instead of reallocated.
  const std::size_t n = samples.size();
  const std::size_t half = n / 2;
  thread_local std::vector<double> bin_re;
  thread_local std::vector<double> bin_im;
  bin_re.resize(half + 1);
  bin_im.resize(half + 1);
  get_plan(n)->forward_real_half_planar(samples, bin_re, bin_im);
  return finish_spectrum(bin_re.data(), bin_im.data(), n, fs);
}

std::vector<Spectrum> compute_spectra(
    std::span<const std::span<const double>> signals, double fs,
    unsigned threads) {
  ftio::util::expect(fs > 0.0, "compute_spectra: fs must be positive");
  std::vector<Spectrum> out(signals.size());
  if (signals.empty()) return out;
  for (const auto& s : signals) {
    ftio::util::expect(!s.empty(), "compute_spectra: empty signal");
  }

  // Group the windows by length: every same-length group runs its
  // forward transforms through the plan's stage-major batched execution,
  // split over cache-resident batch tiles across workers. Batched rows
  // are bit-identical to per-signal transforms and finish_spectrum is the
  // one shared epilogue, so out[i] always equals compute_spectrum
  // (signals[i], fs) exactly, whatever the grouping.
  detail::grouped_batch_tiles(
      signals.size(), threads,
      [&](std::size_t i) { return signals[i].size(); },
      [&](std::size_t i) { out[i] = compute_spectrum(signals[i], fs); },
      [&](const FftPlan& plan, std::span<const std::size_t> tile) {
        const std::size_t n = plan.size();
        const std::size_t bins = n / 2 + 1;
        const std::size_t rows = tile.size();
        thread_local std::vector<double> in_rows;
        thread_local std::vector<double> bin_re;
        thread_local std::vector<double> bin_im;
        in_rows.resize(rows * n);
        bin_re.resize(rows * bins);
        bin_im.resize(rows * bins);
        for (std::size_t r = 0; r < rows; ++r) {
          const auto& sig = signals[tile[r]];
          std::copy(sig.begin(), sig.end(),
                    in_rows.begin() + static_cast<std::ptrdiff_t>(r * n));
        }
        plan.rfft_half_planar_batch_into(rows, n, in_rows, bins, bin_re,
                                         bin_im);
        for (std::size_t r = 0; r < rows; ++r) {
          out[tile[r]] = finish_spectrum(bin_re.data() + r * bins,
                                         bin_im.data() + r * bins, n, fs);
        }
      });
  return out;
}

CosineWave wave_for_bin(const Spectrum& spectrum, std::size_t k) {
  ftio::util::expect(k < spectrum.frequencies.size(),
                     "wave_for_bin: bin out of range");
  const double n = static_cast<double>(spectrum.total_samples);
  CosineWave w;
  w.frequency = spectrum.frequencies[k];
  // Eq. (1): DC contributes X_0/N; interior bins contribute 2|X_k|/N. The
  // Nyquist bin of an even-length transform has no conjugate twin in the
  // single-sided half, so like DC it is not doubled.
  const bool has_twin =
      k > 0 && !(spectrum.total_samples % 2 == 0 &&
                 k == spectrum.total_samples / 2);
  w.amplitude = (has_twin ? 2.0 : 1.0) * spectrum.amplitudes[k] / n;
  w.phase = spectrum.phases[k];
  return w;
}

std::vector<double> synthesize(std::span<const CosineWave> waves,
                               double dc_offset, double fs,
                               std::size_t n_samples) {
  ftio::util::expect(fs > 0.0, "synthesize: fs must be positive");
  std::vector<double> out(n_samples, dc_offset);
  for (const auto& w : waves) {
    for (std::size_t i = 0; i < n_samples; ++i) {
      const double t = static_cast<double>(i) / fs;
      out[i] += w.amplitude *
                std::cos(2.0 * std::numbers::pi * w.frequency * t + w.phase);
    }
  }
  return out;
}

}  // namespace ftio::signal
