// Microbenchmark: FFT / spectrum / autocorrelation throughput, backing the
// paper's claim that the analysis cost is negligible (Sec. III-C: the
// longest analyses took 2.2-8.7 s including Python overhead; the numeric
// kernels here are the dominant cost in this C++ realization).
//
// The PlanCached/ColdPlan pairs quantify the plan cache: the cold path
// constructs a fresh FftPlan per call — recomputing twiddles, bit-reversal,
// the Bluestein chirp, and the chirp's FFT like the pre-cache
// implementation did on every transform — while the cached path reuses the
// process-wide plan and per-thread scratch. The baseline approximates
// (does not bit-reproduce) the seed cost model: the Bluestein sub-plan's
// own twiddle table can come from the warm global cache, where the seed
// generated those twiddles incrementally inline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "signal/autocorrelation.hpp"
#include "signal/fft.hpp"
#include "signal/plan.hpp"
#include "signal/spectrum.hpp"
#include "signal/wavelet.hpp"

namespace {

std::vector<double> tone(std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 5.0 + std::cos(2.0 * std::numbers::pi * 0.01 *
                          static_cast<double>(i));
  }
  return x;
}

std::vector<ftio::signal::Complex> complex_tone(std::size_t n) {
  const auto x = tone(n);
  std::vector<ftio::signal::Complex> c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = {x[i], 0.0};
  return c;
}

// --- plan-cached vs. cold-path pairs ---------------------------------------
// Sizes: 4096 (power of two), 4099 and 7817 (primes; 7817 is the paper's
// IOR sample count), 6480 (highly composite). Every row runs the planar
// forward transform on preallocated caller-owned lanes.

void BM_FftPlanCached(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto re = tone(n);
  const std::vector<double> im(n, 0.0);
  std::vector<double> out_re(n), out_im(n);
  for (auto _ : state) {
    ftio::signal::get_plan(n)->forward_planar(re, im, out_re, out_im);
    benchmark::DoNotOptimize(out_re.data());
    benchmark::DoNotOptimize(out_im.data());
  }
}
BENCHMARK(BM_FftPlanCached)->Arg(4096)->Arg(4099)->Arg(7817)->Arg(6480);

void BM_FftColdPlan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto re = tone(n);
  const std::vector<double> im(n, 0.0);
  std::vector<double> out_re(n), out_im(n);
  for (auto _ : state) {
    // Fresh tables per call: the seed implementation's per-invocation
    // cost model.
    const ftio::signal::FftPlan plan(n);
    plan.forward_planar(re, im, out_re, out_im);
    benchmark::DoNotOptimize(out_re.data());
    benchmark::DoNotOptimize(out_im.data());
  }
}
BENCHMARK(BM_FftColdPlan)->Arg(4096)->Arg(4099)->Arg(7817)->Arg(6480);

// --- split-radix half-spectrum core vs the retained reference kernel ------
// BM_RfftHalfPlanarPlanCached is the planar packed single-sided
// transform every consumer runs (caller-owned re/im lanes, no
// interleaved buffer anywhere); BM_RfftRadix2Scalar is the scalar
// radix-2 reference kernel with all tables prebuilt. The acceptance
// ratio for the split-radix core is Radix2Scalar / PlanarPlanCached at
// the power-of-two sizes.

void BM_RfftHalfPlanarPlanCached(benchmark::State& state) {
  const auto x = tone(static_cast<std::size_t>(state.range(0)));
  std::vector<double> out_re(x.size() / 2 + 1);
  std::vector<double> out_im(x.size() / 2 + 1);
  for (auto _ : state) {
    ftio::signal::get_plan(x.size())->forward_real_half_planar(x, out_re,
                                                               out_im);
    benchmark::DoNotOptimize(out_re.data());
    benchmark::DoNotOptimize(out_im.data());
  }
}
BENCHMARK(BM_RfftHalfPlanarPlanCached)->Arg(4096)->Arg(1 << 16);

void BM_FftPlanarPlanCached(benchmark::State& state) {
  // Planar complex transform on caller-owned lanes — the wavelet-row
  // shape (no interleave/deinterleave at the plan boundary).
  const auto c = complex_tone(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = c.size();
  std::vector<double> in_re(n), in_im(n), out_re(n), out_im(n);
  for (std::size_t i = 0; i < n; ++i) {
    in_re[i] = c[i].real();
    in_im[i] = c[i].imag();
  }
  for (auto _ : state) {
    ftio::signal::get_plan(n)->forward_planar(in_re, in_im, out_re, out_im);
    benchmark::DoNotOptimize(out_re.data());
    benchmark::DoNotOptimize(out_im.data());
  }
}
BENCHMARK(BM_FftPlanarPlanCached)->Arg(4096)->Arg(1 << 16)->Arg(1 << 18);

void BM_RfftRadix2Scalar(benchmark::State& state) {
  namespace sig = ftio::signal;
  const auto x = tone(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = x.size();
  const std::size_t h = n / 2;
  // Warm tables, exactly what the pre-radix-4 plan owned for this path.
  const sig::detail::Radix2Tables tables(h);
  std::vector<sig::Complex> unpack(h + 1);
  for (std::size_t k = 0; k <= h; ++k) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(n);
    unpack[k] = sig::Complex(std::cos(angle), std::sin(angle));
  }
  std::vector<sig::Complex> packed(h);
  std::vector<sig::Complex> out(n);
  for (auto _ : state) {
    for (std::size_t j = 0; j < h; ++j) {
      packed[j] = sig::Complex(x[2 * j], x[2 * j + 1]);
    }
    sig::detail::radix2_scalar(packed, tables, /*invert=*/false);
    for (std::size_t k = 0; k <= h; ++k) {
      const sig::Complex zk = packed[k % h];
      const sig::Complex zmk = std::conj(packed[(h - k) % h]);
      const sig::Complex even = 0.5 * (zk + zmk);
      const sig::Complex odd = sig::Complex(0.0, -0.5) * (zk - zmk);
      const sig::Complex xk = even + unpack[k] * odd;
      out[k] = xk;
      if (k > 0 && k < h) out[n - k] = std::conj(xk);
    }
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_RfftRadix2Scalar)->Arg(4096)->Arg(1 << 16);

void BM_RfftSeedColdPath(benchmark::State& state) {
  // The seed rfft: complexify the real signal, then run the full-size
  // complex transform with per-call tables (no half-size fast path).
  const auto x = tone(static_cast<std::size_t>(state.range(0)));
  const std::size_t n = x.size();
  std::vector<double> re(n), im(n), out_re(n), out_im(n);
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), re.begin());
    std::fill(im.begin(), im.end(), 0.0);
    const ftio::signal::FftPlan plan(n);
    plan.forward_planar(re, im, out_re, out_im);
    benchmark::DoNotOptimize(out_re.data());
    benchmark::DoNotOptimize(out_im.data());
  }
}
BENCHMARK(BM_RfftSeedColdPath)->Arg(4096)->Arg(7817);

// --- the CWT's per-row inverse transforms --------------------------------

void BM_CwtRowsSingleThread(benchmark::State& state) {
  // morlet_cwt over 32 scale rows, each one padded-size inverse_planar
  // through the shared plan (single-threaded here — the bench isolates
  // the per-row transform cost, not the thread fan-out).
  const auto x = tone(static_cast<std::size_t>(state.range(0)));
  const auto freqs = ftio::signal::log_spaced_frequencies(0.001, 0.4, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ftio::signal::morlet_cwt(x, 10.0, freqs, 6.0, /*threads=*/1));
  }
}
BENCHMARK(BM_CwtRowsSingleThread)->Arg(2048)->Unit(benchmark::kMillisecond);

// --- cold plan construction ------------------------------------------------
// Tracks the table-building cost per fresh plan (bit-reversal, leaf
// schedule, split-radix twiddles folded from the recursive root table);
// the plan cache amortises this, but sweeps over many distinct sizes and
// cache-cold services still pay it.

void BM_ColdPlanBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ftio::signal::FftPlan plan(n);
    benchmark::DoNotOptimize(&plan);
  }
}
BENCHMARK(BM_ColdPlanBuild)->Arg(4096)->Arg(1 << 16);

// --- original throughput benchmarks (now plan-cached internally) -----------

void BM_FftPowerOfTwo(benchmark::State& state) {
  const auto c = complex_tone(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftio::signal::fft(c));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FftPowerOfTwo)->RangeMultiplier(4)->Range(256, 1 << 18)
    ->Complexity(benchmark::oNLogN);

void BM_FftBluesteinPrime(benchmark::State& state) {
  // 7817 is the paper's IOR sample count — a non power of two.
  const auto c = complex_tone(7817);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftio::signal::fft(c));
  }
}
BENCHMARK(BM_FftBluesteinPrime);

void BM_Spectrum(benchmark::State& state) {
  const auto x = tone(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftio::signal::compute_spectrum(x, 10.0));
  }
}
BENCHMARK(BM_Spectrum)->Arg(7817)->Arg(1 << 16);

void BM_Autocorrelation(benchmark::State& state) {
  const auto x = tone(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftio::signal::autocorrelation(x));
  }
}
BENCHMARK(BM_Autocorrelation)->Arg(7817)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
