#include "signal/plan.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <numbers>
#include <thread>
#include <vector>

#include "signal/fft.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace sig = ftio::signal;
using sig::Complex;

namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  ftio::util::Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& c : v) c = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  ftio::util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

double max_abs_diff(const std::vector<Complex>& a,
                    const std::vector<Complex>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

/// Accuracy budget: rounding grows with transform size; Bluestein pays
/// for three internal power-of-two passes.
double tolerance(std::size_t n) {
  return 1e-9 * std::sqrt(static_cast<double>(n)) + 1e-10;
}

// Power-of-two, prime, and highly-composite sizes (the paper's 7817-sample
// IOR trace is prime).
const std::size_t kSizes[] = {1,  2,   4,   8,  16,  64,  256, 1024,
                              3,  5,   7,   31, 97,  101, 769,
                              6,  12,  60,  120, 360, 1000, 1260};

/// Runs a plan's planar forward (or inverse) transform on the lanes of x.
std::vector<Complex> run_planar(const sig::FftPlan& plan,
                                const std::vector<Complex>& x,
                                bool inverse = false) {
  const std::size_t n = x.size();
  std::vector<double> re(n), im(n);
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
  if (inverse) {
    plan.inverse_planar(re, im, re, im);
  } else {
    plan.forward_planar(re, im, re, im);
  }
  std::vector<Complex> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = Complex(re[i], im[i]);
  return out;
}

/// Packed single-sided spectrum (N/2 + 1 bins) of a real signal.
std::vector<Complex> half_spectrum(const std::vector<double>& x) {
  const std::size_t bins = x.size() / 2 + 1;
  std::vector<double> re(bins), im(bins);
  sig::get_plan(x.size())->forward_real_half_planar(x, re, im);
  std::vector<Complex> out(bins);
  for (std::size_t k = 0; k < bins; ++k) out[k] = Complex(re[k], im[k]);
  return out;
}

/// Complex copy of a real signal.
std::vector<Complex> complexify(const std::vector<double>& x) {
  std::vector<Complex> c(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) c[i] = Complex(x[i], 0.0);
  return c;
}

}  // namespace

TEST(FftPlan, ForwardMatchesDirectDft) {
  for (std::size_t n : kSizes) {
    const auto x = random_signal(n, 1000 + n);
    const auto want = sig::dft_direct(x);
    const auto got = sig::fft(x);  // plan-cached path
    ASSERT_EQ(got.size(), n);
    EXPECT_LE(max_abs_diff(got, want), tolerance(n)) << "n = " << n;
  }
}

TEST(FftPlan, RfftMatchesDirectDft) {
  for (std::size_t n : kSizes) {
    const auto x = random_real(n, 2000 + n);
    const auto want = sig::dft_direct(complexify(x));
    const auto got = half_spectrum(x);  // half-size fast path for even n
    ASSERT_EQ(got.size(), n / 2 + 1);
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_LE(std::abs(got[k] - want[k]), tolerance(n))
          << "n = " << n << " bin " << k;
    }
  }
}

TEST(FftPlan, IfftInvertsFft) {
  for (std::size_t n : kSizes) {
    if (!sig::is_power_of_two(n)) continue;  // inverses are pow2-only
    const auto x = random_signal(n, 3000 + n);
    const auto roundtrip = sig::ifft(sig::fft(x));
    EXPECT_LE(max_abs_diff(roundtrip, x), tolerance(n)) << "n = " << n;
  }
}

TEST(FftPlan, RepeatedCallsAreBitForBitIdentical) {
  // The cached plan must make repeated transforms exactly reproducible —
  // no scratch-state leakage between calls.
  for (std::size_t n : {256u, 97u, 360u}) {
    const auto x = random_signal(n, 4000 + n);
    const auto a = sig::fft(x);
    const auto b = sig::fft(x);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)), 0)
        << "n = " << n;
  }
}

namespace {

/// Bluestein's chirp-z DFT written the textbook way on std::complex,
/// with the same operation order as the plan: chirp angle -pi*(k^2 mod
/// 2N)/N, kernel bhat = FFT_m of the wrapped conjugate chirp (m =
/// next_pow2(2N-1)), convolution as ifft(fft(x * chirp) * bhat) at m,
/// then times the chirp.
std::vector<Complex> textbook_bluestein(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  const std::size_t m = sig::next_power_of_two(2 * n - 1);
  std::vector<Complex> chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle = -std::numbers::pi * static_cast<double>(k2) /
                         static_cast<double>(n);
    chirp[k] = Complex(std::cos(angle), std::sin(angle));
  }
  std::vector<Complex> b(m, Complex(0.0, 0.0));
  b[0] = std::conj(chirp[0]);
  for (std::size_t k = 1; k < n; ++k) b[k] = b[m - k] = std::conj(chirp[k]);
  const auto bhat = sig::fft(b);
  std::vector<Complex> a(m, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) a[k] = x[k] * chirp[k];
  auto spec = sig::fft(a);
  for (std::size_t i = 0; i < m; ++i) spec[i] *= bhat[i];
  const auto conv = sig::ifft(spec);
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = conv[k] * chirp[k];
  return out;
}

void expect_lanes_eq(const std::vector<double>& re,
                     const std::vector<double>& im,
                     const std::vector<Complex>& want, const char* what) {
  ASSERT_EQ(re.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(re[i], want[i].real())
        << what << " re n=" << want.size() << " i=" << i;
    ASSERT_EQ(im[i], want[i].imag())
        << what << " im n=" << want.size() << " i=" << i;
  }
}

}  // namespace

TEST(FftPlan, BluesteinBitIdenticalToTextbook) {
  // Every non-power-of-two forward transform is Bluestein, so pin it bit
  // for bit against the std::complex formulation above: fft, the in-place
  // planar form and the odd-N real transform.
  for (const std::size_t n : {3u, 97u, 100u, 360u, 4099u, 7817u}) {
    const auto x = random_signal(n, 8800 + n);
    const auto want = textbook_bluestein(x);

    const auto split = [](const std::vector<Complex>& v) {
      std::vector<double> re(v.size()), im(v.size());
      for (std::size_t i = 0; i < v.size(); ++i) {
        re[i] = v[i].real();
        im[i] = v[i].imag();
      }
      return std::pair{re, im};
    };
    const auto [fre, fim] = split(sig::fft(x));
    expect_lanes_eq(fre, fim, want, "fft");
    auto [re, im] = split(x);
    sig::get_plan(n)->forward_planar(re, im, re, im);
    expect_lanes_eq(re, im, want, "in-place forward_planar");

    if (n % 2 == 1) {
      // Odd N: the packed real transform is the same Bluestein run on the
      // real lane alone.
      const auto xr = random_real(n, 8900 + n);
      auto want_real = textbook_bluestein(complexify(xr));
      want_real.resize(n / 2 + 1);
      std::vector<double> hre(n / 2 + 1), him(n / 2 + 1);
      sig::get_plan(n)->forward_real_half_planar(xr, hre, him);
      expect_lanes_eq(hre, him, want_real, "odd-N forward_real_half_planar");
    }
  }
}

TEST(FftPlan, SplitRadixCoreMatchesRadix2ReferenceOnEveryPow2) {
  // Property: the split-radix planar core and the scalar interleaved
  // radix-2 reference kernel are the same transform, on every
  // power-of-two size up to 2^18 (both parities of log2 N, so both leaf
  // patterns of the (2,4) base pass are covered; 2^18 also crosses the
  // cache-blocked bit-reversal threshold and the depth-first recursion
  // cutover at detail::kSplitRadixLeafLen).
  for (std::size_t n = 2; n <= (std::size_t{1} << 18); n <<= 1) {
    const auto x = random_signal(n, 4200 + n);

    const sig::detail::Radix2Tables tables(n);
    std::vector<Complex> want(x);
    sig::detail::radix2_scalar(want, tables, /*invert=*/false);

    const sig::FftPlan plan(n);
    const auto got = run_planar(plan, x);
    EXPECT_LE(max_abs_diff(got, want), tolerance(n)) << "forward n = " << n;

    // Inverse agreement (reference kernel omits the 1/N scaling).
    std::vector<Complex> want_inv(x);
    sig::detail::radix2_scalar(want_inv, tables, /*invert=*/true);
    for (auto& v : want_inv) v /= static_cast<double>(n);
    const auto got_inv = run_planar(plan, x, /*inverse=*/true);
    EXPECT_LE(max_abs_diff(got_inv, want_inv), tolerance(n))
        << "inverse n = " << n;
  }
}

TEST(FftPlan, PlanarMatchesInterleavedBitForBit) {
  // The fft/ifft adapters must produce the planar transform's bits lane
  // for lane — forward at pow2 (split-radix core) and non-pow2
  // (Bluestein) sizes alike, inverse at the pow2 sizes it accepts, plus
  // the documented full-aliasing in-place form.
  for (std::size_t n : {2u, 8u, 64u, 97u, 360u, 1024u, 4096u}) {
    const auto x = random_signal(n, 8100 + n);
    const auto plan = sig::get_plan(n);
    std::vector<double> in_re(n), in_im(n);
    for (std::size_t i = 0; i < n; ++i) {
      in_re[i] = x[i].real();
      in_im[i] = x[i].imag();
    }

    const auto want = sig::fft(x);
    std::vector<double> out_re(n), out_im(n);
    plan->forward_planar(in_re, in_im, out_re, out_im);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out_re[i], want[i].real()) << "fwd re n=" << n << " i=" << i;
      EXPECT_EQ(out_im[i], want[i].imag()) << "fwd im n=" << n << " i=" << i;
    }

    // In-place planar call (full aliasing) must match the out-of-place.
    std::vector<double> io_re(in_re), io_im(in_im);
    plan->forward_planar(io_re, io_im, io_re, io_im);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(io_re[i], out_re[i]) << "in-place re n=" << n << " i=" << i;
      EXPECT_EQ(io_im[i], out_im[i]) << "in-place im n=" << n << " i=" << i;
    }

    if (!sig::is_power_of_two(n)) continue;
    const auto want_inv = sig::ifft(x);
    plan->inverse_planar(in_re, in_im, out_re, out_im);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out_re[i], want_inv[i].real())
          << "inv re n=" << n << " i=" << i;
      EXPECT_EQ(out_im[i], want_inv[i].imag())
          << "inv im n=" << n << " i=" << i;
    }
  }
}

TEST(FftPlan, BlockedBitrevLargeTransformsMatchReference) {
  // 2^17 complex / 2^18 real cross detail::kBlockedBitrevMinN, so the
  // COBRA-tiled permutation (and, for the real inverse, the
  // linearise-then-permute fold) runs on every path checked here.
  ASSERT_GE(std::size_t{1} << 17, sig::detail::kBlockedBitrevMinN);

  const std::size_t n = std::size_t{1} << 17;
  const auto x = random_signal(n, 9000);
  const sig::detail::Radix2Tables tables(n);
  std::vector<Complex> want(x);
  sig::detail::radix2_scalar(want, tables, /*invert=*/false);
  const auto got = sig::fft(x);
  EXPECT_LE(max_abs_diff(got, want), tolerance(n));

  // Planar lanes across the blocked gather match the interleaved bits.
  std::vector<double> in_re(n), in_im(n), out_re(n), out_im(n);
  for (std::size_t i = 0; i < n; ++i) {
    in_re[i] = x[i].real();
    in_im[i] = x[i].imag();
  }
  sig::get_plan(n)->forward_planar(in_re, in_im, out_re, out_im);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out_re[i], got[i].real()) << "i = " << i;
    ASSERT_EQ(out_im[i], got[i].imag()) << "i = " << i;
  }

  // Packed real round trip at 2N: the half transform is exactly n.
  const auto xr = random_real(2 * n, 9001);
  std::vector<double> hre(n + 1), him(n + 1), back(2 * n);
  const auto plan2n = sig::get_plan(2 * n);
  plan2n->forward_real_half_planar(xr, hre, him);
  plan2n->inverse_real_half_planar(hre, him, back);
  double err = 0.0;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    err = std::max(err, std::abs(back[i] - xr[i]));
  }
  EXPECT_LE(err, tolerance(2 * n));
}

TEST(FftPlan, RfftHalfMatchesComplexTransform) {
  // The packed half spectrum must match the complex transform of the
  // complexified signal on the non-redundant bins, across power-of-two,
  // even non-pow2, odd, and prime N — including the N=2 and N=4 corner
  // sizes whose "interior" is only DC and Nyquist.
  const std::size_t sizes[] = {1, 2,  4,   6,   8,   12,  16, 31, 60,
                               97, 101, 128, 360, 769, 1000, 1024, 4096};
  for (std::size_t n : sizes) {
    const auto x = random_real(n, 5200 + n);
    const auto full = sig::fft(complexify(x));
    const auto half = half_spectrum(x);
    ASSERT_EQ(half.size(), n / 2 + 1) << "n = " << n;
    for (std::size_t k = 0; k < half.size(); ++k) {
      EXPECT_LE(std::abs(half[k] - full[k]), tolerance(n))
          << "n = " << n << " bin " << k;
    }
  }
}

TEST(FftPlan, RfftHalfNyquistBinIsReal) {
  // Even N: bin N/2 of a real signal satisfies X_{N/2} = conj(X_{N/2}).
  for (std::size_t n : {2u, 4u, 6u, 16u, 360u}) {
    const auto x = random_real(n, 6200 + n);
    const auto half = half_spectrum(x);
    EXPECT_LE(std::abs(half[n / 2].imag()), tolerance(n)) << "n = " << n;
    EXPECT_LE(std::abs(half[0].imag()), tolerance(n)) << "n = " << n;
  }
}

TEST(FftPlan, InverseRealHalfRoundTrips) {
  // The planar real-half inverse recovers x from its packed spectrum at
  // every power-of-two N it accepts, the N = 1 and N = 2 corners included.
  const std::size_t sizes[] = {1, 2, 4, 8, 16, 128, 1024};
  for (std::size_t n : sizes) {
    const auto x = random_real(n, 7200 + n);
    const auto plan = sig::get_plan(n);
    std::vector<double> hre(n / 2 + 1), him(n / 2 + 1), back(n);
    plan->forward_real_half_planar(x, hre, him);
    plan->inverse_real_half_planar(hre, him, back);
    double err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      err = std::max(err, std::abs(back[i] - x[i]));
    }
    EXPECT_LE(err, tolerance(n)) << "n = " << n;
  }
}

TEST(GetPlan, HitsAndMisses) {
  const auto p1 = sig::get_plan(777);
  const auto p2 = sig::get_plan(777);
  EXPECT_EQ(p1.get(), p2.get()) << "second lookup must reuse the plan";
}

TEST(GetPlan, LruEviction) {
  // Fresh odd non-power-of-two sizes that no other test looks up: their
  // constructor defers every table to the first transform, so each miss
  // is cheap.
  const auto fresh = [](std::size_t i) { return 2001 + 2 * i; };

  // kPlanCacheSlots newer sizes push a held plan out: a new lookup
  // builds a different one.
  const auto held = sig::get_plan(fresh(0));
  for (std::size_t i = 1; i <= sig::kPlanCacheSlots; ++i) {
    (void)sig::get_plan(fresh(i));
  }
  EXPECT_NE(sig::get_plan(fresh(0)).get(), held.get());

  // A plan touched within the last kPlanCacheSlots - 1 lookups stays,
  // however long ago it was built: the second round's lookups would have
  // pushed it out if hits did not refresh it.
  const std::size_t base = sig::kPlanCacheSlots + 1;
  const auto kept = sig::get_plan(fresh(base));
  std::size_t next = base + 1;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 1; i < sig::kPlanCacheSlots; ++i) {
      (void)sig::get_plan(fresh(next++));
    }
    EXPECT_EQ(sig::get_plan(fresh(base)).get(), kept.get())
        << "round " << round;
  }

  // The evicted handle still transforms (shared ownership).
  const auto x = random_signal(held->size(), 9);
  EXPECT_LE(max_abs_diff(run_planar(*held, x), sig::dft_direct(x)),
            tolerance(held->size()));
}

TEST(GetPlan, ThreadSafetyUnderParallelFor) {
  // Hammer the global cache from many workers with a mix of sizes that
  // alias (racing lookups of one size) and verify every result against
  // a reference computed up front. No other test looks these sizes up,
  // so the first lookups of each miss and race to build, whatever the
  // test order.
  const std::size_t sizes[] = {303, 601, 1203, 2402, std::size_t{1} << 15};
  struct Case {
    std::vector<Complex> input;
    std::vector<Complex> want;
  };
  std::vector<Case> cases;
  for (std::size_t n : sizes) {
    Case c;
    c.input = random_signal(n, 7000 + n);
    if ((n & (n - 1)) == 0) {
      const sig::detail::Radix2Tables tables(n);
      c.want = c.input;
      sig::detail::radix2_scalar(c.want, tables, /*invert=*/false);
    } else {
      c.want = sig::dft_direct(c.input);
    }
    cases.push_back(std::move(c));
  }

  const std::size_t kIterations = 96;
  std::vector<double> errors(kIterations, 0.0);
  ftio::util::parallel_for(kIterations, [&](std::size_t i) {
    const auto& c = cases[i % cases.size()];
    errors[i] = max_abs_diff(sig::fft(c.input), c.want);
  }, /*threads=*/8);

  for (std::size_t i = 0; i < kIterations; ++i) {
    EXPECT_LE(errors[i], tolerance(cases[i % cases.size()].input.size()))
        << "iteration " << i;
  }
}

TEST(GetPlan, ConcurrentSameSizeLookupsShareOnePlan) {
  // All workers race get_plan on one size that no other test looks up
  // (not even as a Bluestein sub-plan), so the lookups miss whatever the
  // test order. Racing misses may each build, but the first plan
  // published is the one every thread gets.
  constexpr std::size_t kThreads = 8;
  const std::size_t n = std::size_t{1} << 16;

  std::vector<std::shared_ptr<const sig::FftPlan>> plans(kThreads);
  std::vector<std::thread> workers;
  std::atomic<std::size_t> arrived{0};
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Rendezvous so the lookups overlap as much as the scheduler allows.
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      plans[t] = sig::get_plan(n);
    });
  }
  for (auto& w : workers) w.join();

  ASSERT_NE(plans[0], nullptr);
  EXPECT_EQ(plans[0]->size(), n);
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(plans[t].get(), plans[0].get()) << "thread " << t;
  }
}

TEST(FftPlan, InverseRejectsNonPowerOfTwo) {
  // Inverse transforms run only at power-of-two N; any other size throws
  // instead of zero-padding, which would change the result.
  for (const std::size_t n : {3u, 97u, 360u, 7817u}) {
    const auto x = random_signal(n, 9900 + n);
    EXPECT_THROW(static_cast<void>(sig::ifft(x)), ftio::util::InvalidArgument)
        << "n = " << n;
    const auto plan = sig::get_plan(n);
    std::vector<double> re(n), im(n), out_re(n), out_im(n);
    EXPECT_THROW(plan->inverse_planar(re, im, out_re, out_im),
                 ftio::util::InvalidArgument)
        << "n = " << n;
    std::vector<double> hre(n / 2 + 1), him(n / 2 + 1), back(n);
    EXPECT_THROW(plan->inverse_real_half_planar(hre, him, back),
                 ftio::util::InvalidArgument)
        << "n = " << n;
  }
}
