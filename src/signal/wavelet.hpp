#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace ftio::signal {

/// Continuous wavelet transform with a Morlet mother wavelet.
///
/// The paper's conclusion names this as the designated extension: "our
/// approach rests on DFT, which has a high-frequency resolution but no
/// time resolution. We plan to explore merging the result with the wavelet
/// transform for a more comprehensive characterization, to prepare for
/// cases where we need both." (Sec. VI). The CWT localises each frequency
/// in time, so a change in the I/O period becomes visible as a shift of
/// scalogram power.
struct CwtResult {
  double sampling_frequency = 0.0;
  /// Analysed pseudo-frequencies in Hz, one row per entry.
  std::vector<double> frequencies;
  /// power[f][n] = |W(f, t_n)|^2 / s(f), the scale-rectified scalogram
  /// (Liu et al. 2007): equal-amplitude tones carry equal power whichever
  /// analysed frequency they match, so row comparisons are unbiased.
  std::vector<std::vector<double>> power;

  std::size_t time_steps() const {
    return power.empty() ? 0 : power.front().size();
  }

  /// Index of the frequency with the most total energy.
  std::size_t dominant_row() const;

  /// For each time step, the analysed frequency with the highest
  /// scalogram power — the instantaneous dominant frequency.
  std::vector<double> dominant_frequency_over_time() const;
};

/// Computes the Morlet CWT of `samples` (sampled at `fs`) for the given
/// pseudo-frequencies. `omega0` is the Morlet centre frequency parameter
/// (6.0 gives the usual time/frequency trade-off). FFT-based through one
/// shared plan handle at the padded size, so each scale costs O(N log N)
/// with no per-row table rebuilds or allocations; the per-frequency rows
/// fan across util::parallel_for (`threads` workers, 0 = all cores; the
/// result does not depend on the thread count). The signal mean is
/// removed first (the DC offset otherwise bleeds into every scale).
/// Throws InvalidArgument for an empty signal or frequency list, or when
/// fs, omega0 or any frequency is not finite and positive.
CwtResult morlet_cwt(std::span<const double> samples, double fs,
                     std::span<const double> frequencies,
                     double omega0 = 6.0, unsigned threads = 0);

/// Convenience: logarithmically spaced frequencies between lo and hi Hz.
std::vector<double> log_spaced_frequencies(double lo, double hi,
                                           std::size_t count);

/// Detects the strongest change point of the time-frequency behaviour:
/// compares the dominant analysed frequency in a sliding pair of windows
/// and returns the sample index where it shifts the most, or nullopt when
/// the dominant frequency never genuinely shifts (so a detected shift is
/// distinguishable from "no shift" even at low indices). `window` is the
/// comparison half-width in samples.
std::optional<std::size_t> strongest_change_point(const CwtResult& cwt,
                                                  std::size_t window);

}  // namespace ftio::signal
