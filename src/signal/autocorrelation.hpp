#pragma once

#include <span>
#include <vector>

namespace ftio::signal {

/// Autocorrelation function of `samples` for lags 0..N-1, matching the
/// non-normalised NumPy `correlate(x, x, mode='full')[N-1:]` the paper
/// uses (Sec. II-C), then normalised by the lag-0 value so ACF(0) = 1 and
/// values lie in [-1, 1]. Computed with an FFT-based convolution in
/// O(N log N). The mean is NOT subtracted, mirroring the reference
/// implementation's use of raw `numpy.correlate`.
std::vector<double> autocorrelation(std::span<const double> samples);

/// Mean-removed (statistical) ACF variant, provided for callers that want
/// the textbook definition; also lag-0 normalised.
std::vector<double> autocorrelation_centered(std::span<const double> samples);

}  // namespace ftio::signal
