#include "signal/fft.hpp"

#include <cmath>
#include <numbers>

#include "signal/plan.hpp"
#include "util/error.hpp"

namespace ftio::signal {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Deinterleave into planar lanes, transform out of place, interleave.
std::vector<Complex> planar_adapter(std::span<const Complex> input,
                                    bool inverse) {
  const std::size_t n = input.size();
  std::vector<double> lanes(4 * n);
  const std::span<double> in_re(lanes.data(), n);
  const std::span<double> in_im(lanes.data() + n, n);
  const std::span<double> out_re(lanes.data() + 2 * n, n);
  const std::span<double> out_im(lanes.data() + 3 * n, n);
  for (std::size_t i = 0; i < n; ++i) {
    in_re[i] = input[i].real();
    in_im[i] = input[i].imag();
  }
  const auto plan = get_plan(n);
  if (inverse) {
    plan->inverse_planar(in_re, in_im, out_re, out_im);
  } else {
    plan->forward_planar(in_re, in_im, out_re, out_im);
  }
  std::vector<Complex> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = Complex(out_re[i], out_im[i]);
  return out;
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::vector<Complex> fft(std::span<const Complex> input) {
  ftio::util::expect(!input.empty(), "fft: empty input");
  return planar_adapter(input, /*inverse=*/false);
}

std::vector<Complex> ifft(std::span<const Complex> input) {
  ftio::util::expect(is_power_of_two(input.size()),
                     "ifft: size must be a power of two");
  return planar_adapter(input, /*inverse=*/true);
}

std::vector<Complex> dft_direct(std::span<const Complex> input) {
  const std::size_t n = input.size();
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -kTwoPi * static_cast<double>(k) *
                           static_cast<double>(j) / static_cast<double>(n);
      out[k] += input[j] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

}  // namespace ftio::signal
