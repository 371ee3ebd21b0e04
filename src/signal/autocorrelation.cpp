#include "signal/autocorrelation.hpp"

#include <algorithm>

#include "signal/fft.hpp"
#include "signal/plan.hpp"
#include "util/error.hpp"

namespace ftio::signal {

std::vector<double> autocorrelation(std::span<const double> samples) {
  ftio::util::expect(!samples.empty(), "autocorrelation: empty signal");
  const std::size_t n = samples.size();

  // Zero-pad to >= 2N to turn circular correlation into linear correlation.
  // The signal is real, so the whole pipeline stays on the packed
  // single-sided planar layout: planar rfft -> |X_k|^2 over the M/2+1
  // bins -> planar real inverse. Both transforms are half-size, the
  // mirrored spectrum half is never materialised, and no interleaved
  // std::complex buffer exists anywhere on the path — the power loop is
  // two stride-1 double lanes the compiler vectorises. Buffers are
  // per-thread scratch and the M-point plan comes from the cache, so
  // repeated ACF calls (the Sec. III-A sweeps run thousands) neither
  // reallocate nor recompute twiddles.
  const std::size_t m = next_power_of_two(2 * n);
  thread_local std::vector<double> padded;
  thread_local std::vector<double> spec_re;
  thread_local std::vector<double> spec_im;
  padded.assign(m, 0.0);
  std::copy(samples.begin(), samples.end(), padded.begin());

  const auto plan = get_plan(m);
  spec_re.resize(m / 2 + 1);
  spec_im.resize(m / 2 + 1);
  plan->forward_real_half_planar(padded, spec_re, spec_im);
  // |X_k|^2 into the re lane, im zeroed: the power spectrum of a real
  // signal is real and even, so its inverse transform is again real —
  // exactly the packed-inverse contract.
  double* __restrict re = spec_re.data();
  double* __restrict im = spec_im.data();
  for (std::size_t k = 0; k < spec_re.size(); ++k) {
    re[k] = re[k] * re[k] + im[k] * im[k];
    im[k] = 0.0;
  }
  plan->inverse_real_half_planar(spec_re, spec_im,
                                 padded);  // padded now holds the ACF

  std::vector<double> acf(n, 0.0);
  const double lag0 = padded[0];
  if (lag0 == 0.0) {
    // All-zero signal: define ACF as 1 at lag 0.
    acf[0] = 1.0;
    return acf;
  }
  for (std::size_t lag = 0; lag < n; ++lag) {
    acf[lag] = padded[lag] / lag0;
  }
  return acf;
}

}  // namespace ftio::signal
