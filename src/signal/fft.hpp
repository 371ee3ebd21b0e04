#pragma once

#include <complex>
#include <span>
#include <vector>

namespace ftio::signal {

using Complex = std::complex<double>;

/// Discrete Fourier transform X_k = sum_n x_n * exp(-2*pi*i*k*n/N), the
/// definition in Sec. II-B1 of the paper. Runs the split-radix core when N
/// is a power of two and Bluestein's chirp-z algorithm otherwise, so every
/// N costs O(N log N), through the process-wide plan cache
/// (signal/plan.hpp): tables are computed once per size and reused across
/// calls and threads.
///
/// fft and ifft are the one interleaved std::complex adapter over the
/// planar FftPlan API: they deinterleave into re/im lanes, run the planar
/// transform and interleave the result. Library code, and any caller that
/// holds split lanes or a real signal, uses the FftPlan methods
/// (forward_planar, forward_real_half_planar) directly.
std::vector<Complex> fft(std::span<const Complex> input);

/// Inverse transform: x_n = (1/N) sum_k X_k * exp(+2*pi*i*k*n/N).
std::vector<Complex> ifft(std::span<const Complex> input);

/// Reference O(N^2) DFT used for validating the FFT in tests.
std::vector<Complex> dft_direct(std::span<const Complex> input);

/// True when n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

}  // namespace ftio::signal
