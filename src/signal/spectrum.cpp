#include "signal/spectrum.hpp"

#include <cmath>
#include <numbers>

#include "signal/plan.hpp"
#include "util/error.hpp"

namespace ftio::signal {

double Spectrum::frequency_step() const {
  if (total_samples == 0) return 0.0;
  return sampling_frequency / static_cast<double>(total_samples);
}

Spectrum compute_spectrum(std::span<const double> samples, double fs) {
  ftio::util::expect(!samples.empty(), "compute_spectrum: empty signal");
  ftio::util::expect(std::isfinite(fs) && fs > 0.0,
                     "compute_spectrum: fs must be finite and positive");

  // Plan-cached packed real transform into per-thread planar scratch:
  // only the single-sided N/2+1 bins the spectrum reads are ever computed
  // or stored (the conjugate-symmetric upper half no longer exists), the
  // lanes stay split re[]/im[] end-to-end (no interleaved std::complex
  // buffer anywhere on the path), and the buffers are reused across calls
  // instead of reallocated.
  const std::size_t n = samples.size();
  const std::size_t half = n / 2;  // single-sided: k in [0, N/2]
  thread_local std::vector<double> bin_re;
  thread_local std::vector<double> bin_im;
  bin_re.resize(half + 1);
  bin_im.resize(half + 1);
  get_plan(n)->forward_real_half_planar(samples, bin_re, bin_im);

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
