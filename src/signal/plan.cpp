#include "signal/plan.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <future>
#include <list>
#include <mutex>
#include <numbers>
#include <unordered_map>
#include <utility>

#include "util/annotated.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ftio::signal {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// exp(-2*pi*i*k/n) with the quarter-period points snapped to their exact
/// values. sin(pi) rounds to ~1.22e-16 rather than 0, and that residue
/// multiplied into a nonzero bin turns an exactly-zero spectrum line into
/// noise (visible on constant signals, whose off-DC bins cancel exactly).
/// The planar aliasing contract shared by every planar entry point: an
/// input lane and an output lane must either be the same array (full
/// alias, the documented in-place form) or not overlap at all. Partial
/// overlap silently corrupts the permuted gather, so Debug/sanitizer
/// builds reject it here instead of producing a plausible wrong
/// spectrum.
inline bool alias_full_or_disjoint(const double* in, const double* out,
                                   std::size_t n) {
  if (in == out) return true;
  return in + n <= out || out + n <= in;
}

Complex unit_root(std::size_t k, std::size_t n) {
  if (k == 0) return Complex(1.0, 0.0);
  if (4 * k == n) return Complex(0.0, -1.0);
  if (2 * k == n) return Complex(-1.0, 0.0);
  if (4 * k == 3 * n) return Complex(0.0, 1.0);
  const double angle = -kTwoPi * static_cast<double>(k) /
                       static_cast<double>(n);
  return Complex(std::cos(angle), std::sin(angle));
}

/// Bit-reversal permutation for a power-of-two n, the classic in-place
/// increment loop stored once. Shared by the plan constructor and the
/// detail:: reference tables (the kernels are independent; the
/// permutation is just data).
std::vector<std::uint32_t> build_bitrev(std::size_t n) {
  std::vector<std::uint32_t> bitrev(n);
  if (n < 2) return bitrev;
  bitrev[0] = 0;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev[i] = static_cast<std::uint32_t>(j);
  }
  return bitrev;
}

/// Calls fn(p) for every node of length `len` in the split-radix
/// recursion tree over a size-n root — the classic is/id block
/// enumeration (Sorensen et al.): positions of size-len sub-transforms
/// in bit-reversed data are exactly these scattered arithmetic runs.
template <class Fn>
void for_each_split_node(std::size_t n, std::size_t len, Fn&& fn) {
  std::size_t ix = 0;
  std::size_t id = 2 * len;
  while (ix < n) {
    for (std::size_t p = ix; p < n; p += id) fn(p);
    ix = 2 * id - len;
    id *= 4;
  }
}

/// Per-thread scratch lanes. Each pair is dedicated to one call site so
/// that nested transforms (real-input path -> half plan's Bluestein ->
/// power-of-two passes) never step on each other's lanes:
///   re/im   — the real-input paths: the packed N/2 signal and its
///             spectrum, or for odd N the rebuilt full spectrum the
///             inverse transforms
///   re2/im2 — the copy that makes in-place power-of-two planar calls
///             alias-safe, and the linearised fold of the blocked
///             inverse-real path
///   bre/bim — transposed batch-tile lanes (batch entry points only;
///             never nested)
///   cre/cim — Bluestein: the chirped, zero-padded m-point input, and
///             later the convolution in natural order
///   pre/pim — Bluestein: the bit-reversed m-point lanes the forward
///             pass and the kernel product run in
/// Buffers only grow, so steady-state transforms do no allocation at all.
struct Workspace {
  std::vector<double> re;
  std::vector<double> im;
  std::vector<double> re2;
  std::vector<double> im2;
  std::vector<double> bre;
  std::vector<double> bim;
  std::vector<double> cre;
  std::vector<double> cim;
  std::vector<double> pre;
  std::vector<double> pim;
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

// ---------------------------------------------------------------------------
// Bit-reversal permutation: simple and cache-blocked (COBRA) forms
// ---------------------------------------------------------------------------

constexpr std::size_t kTileBits = 5;
constexpr std::size_t kTile = std::size_t{1} << kTileBits;  // 32x32 tiles

/// Blocked out[i] = in[bitrev[i]] for n >= 2^(2*kTileBits). Index i is
/// split (hi:mid:lo) with kTileBits hi/lo bits; for each mid value the
/// 32x32 (hi, lo) tile is gathered with stride-1 reads, transposed
/// through an L1-resident buffer, and written with stride-1 stores —
/// both big arrays stream one 256-byte run at a time instead of striding
/// across the whole array per element (Carter & Gatlin's COBRA).
void permute_planar_blocked(const std::uint32_t* bitrev, std::size_t n,
                            const double* in_re, const double* in_im,
                            double* out_re, double* out_im) {
  const unsigned sh =
      static_cast<unsigned>(std::countr_zero(n)) - kTileBits;
  const std::size_t mid = n >> (2 * kTileBits);
  std::uint8_t revt[kTile];  // kTileBits-bit reversal, read off the table
  for (std::size_t i = 0; i < kTile; ++i) {
    revt[i] = static_cast<std::uint8_t>(bitrev[i] >> sh);
  }
  double tre[kTile * kTile];
  double tim[kTile * kTile];
  for (std::size_t m = 0; m < mid; ++m) {
    const std::size_t mr = bitrev[m << kTileBits] >> kTileBits;
    for (std::size_t jh = 0; jh < kTile; ++jh) {
      const double* __restrict sr = in_re + (jh << sh) + (m << kTileBits);
      const double* __restrict si = in_im + (jh << sh) + (m << kTileBits);
      for (std::size_t jl = 0; jl < kTile; ++jl) {
        const std::size_t slot =
            static_cast<std::size_t>(revt[jl]) * kTile + jh;
        tre[slot] = sr[jl];
        tim[slot] = si[jl];
      }
    }
    for (std::size_t ih = 0; ih < kTile; ++ih) {
      double* __restrict dr = out_re + (ih << sh) + (mr << kTileBits);
      double* __restrict di = out_im + (ih << sh) + (mr << kTileBits);
      const double* __restrict rr = tre + ih * kTile;
      const double* __restrict ri = tim + ih * kTile;
      for (std::size_t il = 0; il < kTile; ++il) {
        dr[il] = rr[revt[il]];
        di[il] = ri[revt[il]];
      }
    }
  }
}

/// Blocked deinterleaving gather, same tiling with paired source reads.
void permute_pairs_blocked(const std::uint32_t* bitrev, std::size_t n,
                           const double* pairs, double* out_re,
                           double* out_im) {
  const unsigned sh =
      static_cast<unsigned>(std::countr_zero(n)) - kTileBits;
  const std::size_t mid = n >> (2 * kTileBits);
  std::uint8_t revt[kTile];
  for (std::size_t i = 0; i < kTile; ++i) {
    revt[i] = static_cast<std::uint8_t>(bitrev[i] >> sh);
  }
  double tre[kTile * kTile];
  double tim[kTile * kTile];
  for (std::size_t m = 0; m < mid; ++m) {
    const std::size_t mr = bitrev[m << kTileBits] >> kTileBits;
    for (std::size_t jh = 0; jh < kTile; ++jh) {
      const double* __restrict src =
          pairs + 2 * ((jh << sh) + (m << kTileBits));
      for (std::size_t jl = 0; jl < kTile; ++jl) {
        const std::size_t slot =
            static_cast<std::size_t>(revt[jl]) * kTile + jh;
        tre[slot] = src[2 * jl];
        tim[slot] = src[2 * jl + 1];
      }
    }
    for (std::size_t ih = 0; ih < kTile; ++ih) {
      double* __restrict dr = out_re + (ih << sh) + (mr << kTileBits);
      double* __restrict di = out_im + (ih << sh) + (mr << kTileBits);
      const double* __restrict rr = tre + ih * kTile;
      const double* __restrict ri = tim + ih * kTile;
      for (std::size_t il = 0; il < kTile; ++il) {
        dr[il] = rr[revt[il]];
        di[il] = ri[revt[il]];
      }
    }
  }
}

}  // namespace

namespace detail {

void bitrev_permute_planar(const std::uint32_t* bitrev, std::size_t n,
                           const double* in_re, const double* in_im,
                           double* out_re, double* out_im) {
  if (n >= kBlockedBitrevMinN) {
    permute_planar_blocked(bitrev, n, in_re, in_im, out_re, out_im);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = bitrev[i];
    out_re[i] = in_re[s];
    out_im[i] = in_im[s];
  }
}

void bitrev_permute_pairs(const std::uint32_t* bitrev, std::size_t n,
                          const double* pairs, double* out_re,
                          double* out_im) {
  if (n >= kBlockedBitrevMinN) {
    permute_pairs_blocked(bitrev, n, pairs, out_re, out_im);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = 2 * static_cast<std::size_t>(bitrev[i]);
    out_re[i] = pairs[s];
    out_im[i] = pairs[s + 1];
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// FftPlan
// ---------------------------------------------------------------------------

FftPlan::FftPlan(std::size_t n) : n_(n), pow2_(is_power_of_two(n)) {
  ftio::util::expect(n >= 1, "FftPlan: size must be >= 1");
  ftio::util::expect(n <= (std::size_t{1} << 31),
                     "FftPlan: size exceeds 2^31");

  if (pow2_ && n_ >= 2) {
    bitrev_ = build_bitrev(n_);

    if (n_ >= 4) {
      // Leaf schedule for the fused (2,4) base pass: enumerate the
      // size-2 and size-4 nodes of the split-radix tree and type every
      // aligned 4-block. The tree guarantees each block is either one
      // size-4 node or a pair of size-2 nodes; expect() pins that
      // invariant so a schedule bug fails at plan build, not as silent
      // numerical corruption.
      std::vector<std::uint8_t> is2(n_ / 2, 0);
      for_each_split_node(n_, 2, [&](std::size_t p) { is2[p / 2] = 1; });
      base4_.assign(n_ / 4, 0);
      for_each_split_node(n_, 4, [&](std::size_t p) { base4_[p / 4] = 1; });
      for (std::size_t b = 0; b < base4_.size(); ++b) {
        if (base4_[b]) {
          ftio::util::expect(is2[2 * b] && !is2[2 * b + 1],
                             "FftPlan: bad split-radix leaf schedule");
        } else {
          ftio::util::expect(is2[2 * b] && is2[2 * b + 1],
                             "FftPlan: bad split-radix leaf schedule");
        }
      }
    }

    // Combine stages of length 8..N with the (w^k, w^{3k}) twiddle pair,
    // all folded out of one recursive root table: the stage-L twiddle
    // exp(-2*pi*i*k/L) is the root-stage twiddle at index k*N/L, bit for
    // bit — scaling the angle's numerator and denominator by the same
    // power of two commutes with IEEE rounding, and the quarter-period
    // snap conditions scale identically. Only the two length-N/4 root
    // tables pay a cos/sin evaluation (~N/2 calls); every shorter stage
    // is a strided copy, which roughly halves the trigonometry that
    // dominated cold plan construction.
    if (n_ >= 8) {
      const std::size_t root_quarter = n_ / 4;
      std::vector<double> rw1re(root_quarter), rw1im(root_quarter);
      std::vector<double> rw3re(root_quarter), rw3im(root_quarter);
      for (std::size_t k = 0; k < root_quarter; ++k) {
        const Complex w1 = unit_root(k, n_);
        const Complex w3 = unit_root(3 * k, n_);
        rw1re[k] = w1.real();
        rw1im[k] = w1.imag();
        rw3re[k] = w3.real();
        rw3im[k] = w3.imag();
      }
      for (std::size_t len = 8; len < n_; len <<= 1) {
        SplitStage stage;
        stage.len = len;
        const std::size_t quarter = len / 4;
        const std::size_t step = n_ / len;
        stage.w1re.resize(quarter);
        stage.w1im.resize(quarter);
        stage.w3re.resize(quarter);
        stage.w3im.resize(quarter);
        for (std::size_t k = 0; k < quarter; ++k) {
          stage.w1re[k] = rw1re[k * step];
          stage.w1im[k] = rw1im[k * step];
          stage.w3re[k] = rw3re[k * step];
          stage.w3im[k] = rw3im[k * step];
        }
        stages_.push_back(std::move(stage));
      }
      SplitStage root;
      root.len = n_;
      root.w1re = std::move(rw1re);
      root.w1im = std::move(rw1im);
      root.w3re = std::move(rw3re);
      root.w3im = std::move(rw3im);
      stages_.push_back(std::move(root));
    }
  } else if (!pow2_) {
    m_ = next_power_of_two(2 * n_ - 1);
  }
}

namespace {

/// One split-radix L-combine over planar lanes rooted at `re`/`im`
/// (an L-long block in bit-reversed order whose halves/quarters already
/// hold their sub-spectra): U = first half, Z = third quarter, Z' =
/// fourth quarter. For k < L/4, with w = exp(-2*pi*i*k/L):
///   t1 = w^k Z_k + w^{3k} Z'_k        t2 = w^k Z_k - w^{3k} Z'_k
///   X_k = U_k + t1                    X_{k+L/2}  = U_k - t1
///   X_{k+L/4} = U_{k+L/4} -+ i t2     X_{k+3L/4} = U_{k+L/4} +- i t2
/// (upper signs forward, lower inverse; inverse also conjugates the
/// twiddles). Four loads and four stores per k across four disjoint
/// stride-1 lanes — the shape auto-vectorisers handle.
template <bool Inv>
void split_combine(double* re, double* im, std::size_t quarter,
                   const double* w1re, const double* w1im,
                   const double* w3re, const double* w3im) {
  double* __restrict ur = re;
  double* __restrict ui = im;
  double* __restrict vr = re + quarter;
  double* __restrict vi = im + quarter;
  double* __restrict zr = re + 2 * quarter;
  double* __restrict zi = im + 2 * quarter;
  double* __restrict sr = re + 3 * quarter;
  double* __restrict si = im + 3 * quarter;
  const double* __restrict w1r = w1re;
  const double* __restrict w1i = w1im;
  const double* __restrict w3r = w3re;
  const double* __restrict w3i = w3im;
  for (std::size_t k = 0; k < quarter; ++k) {
    const double a1r = w1r[k];
    const double a1i = Inv ? -w1i[k] : w1i[k];
    const double a3r = w3r[k];
    const double a3i = Inv ? -w3i[k] : w3i[k];
    const double tzr = a1r * zr[k] - a1i * zi[k];
    const double tzi = a1r * zi[k] + a1i * zr[k];
    const double tsr = a3r * sr[k] - a3i * si[k];
    const double tsi = a3r * si[k] + a3i * sr[k];
    const double t1r = tzr + tsr, t1i = tzi + tsi;
    const double t2r = tzr - tsr, t2i = tzi - tsi;
    const double u0r = ur[k], u0i = ui[k];
    const double u1r = vr[k], u1i = vi[k];
    ur[k] = u0r + t1r;
    ui[k] = u0i + t1i;
    zr[k] = u0r - t1r;
    zi[k] = u0i - t1i;
    if constexpr (Inv) {
      vr[k] = u1r - t2i;
      vi[k] = u1i + t2r;
      sr[k] = u1r + t2i;
      si[k] = u1i - t2r;
    } else {
      vr[k] = u1r + t2i;
      vi[k] = u1i - t2r;
      sr[k] = u1r - t2i;
      si[k] = u1i + t2r;
    }
  }
}

// ---------------------------------------------------------------------------
// Batched stage-major kernels. A batch group is kBatchGroup rows stored
// interleaved down the batch axis: element k of group row g lives at
// lane[k * kBatchGroup + g]. Every split-radix pass keeps its original
// stride-1 loop shape — the index space just grows by the group factor,
// with the twiddle tables duplicated group-wise so twiddle loads stay
// vectorisable — which means the long combine stages vectorise exactly
// like the single-signal core while the short L=8/16 combines (2-4
// iteration loops there) get kBatchGroup times the trip count and
// vectorise down the batch axis. The arithmetic per row is the verbatim
// single-signal formulas (the L-combine literally reuses split_combine;
// plan.cpp is compiled with -ffp-contract=off), so row b of a batch call
// is bit-identical to the single-signal call on row b.
// ---------------------------------------------------------------------------

/// Rows per interleaved batch group. Measured on the 1-core container, 2
/// beats 4 and 8: the kernels are load/store- and L1-traffic-bound, so a
/// small group (working set 2 x N x 16 B, twiddle streams only 2x) that
/// keeps the depth-first sub-blocks L1-resident wins over wider groups
/// whose extra SIMD lanes the memory ports cannot feed.
constexpr std::size_t kBatchGroup = 2;

// The batch kernels are explicitly SIMD: every loop below is free of
// loop-carried dependencies (each iteration touches only its own index
// across disjoint lanes), which `#pragma omp simd` asserts so the
// vectoriser stops versioning for aliasing and emits packed code — the
// single-signal kernels' 12-stream butterflies defeat GCC's cost model
// and run scalar, which is exactly the gap the batch layout closes. On
// x86-64 each kernel additionally carries a runtime-dispatched
// x86-64-v3 clone (FFTW-style), so the portable SSE2 binary runs the
// batch axis 256 bits wide on AVX2 hosts. plan.cpp is compiled with
// -ffp-contract=off, so every clone performs the same IEEE operations
// and batch results stay bit-identical to the single-signal path.
// GCC only: clang's target_clones support on function templates is not
// reliable across the versions CI builds with; its builds simply run the
// portable codegen (still correct, still SIMD via the pragmas — and the
// FTIO_X86_64_V3 build compiles everything at v3 anyway).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    defined(__has_attribute)
#if __has_attribute(target_clones)
#define FTIO_BATCH_KERNEL \
  __attribute__((target_clones("default", "arch=x86-64-v3")))
#endif
#endif
#ifndef FTIO_BATCH_KERNEL
#define FTIO_BATCH_KERNEL
#endif

/// The fused (2,4) base pass of split_iterative over an interleaved
/// group: per 4-block the G-wide butterflies are contiguous 4*G doubles
/// per lane.
template <bool Inv>
FTIO_BATCH_KERNEL void gbatch_base_pass(double* __restrict re,
                                        double* __restrict im,
                                        std::size_t n,
                                        const std::uint8_t* __restrict t4) {
  constexpr std::size_t G = kBatchGroup;
  for (std::size_t i = 0, b = 0; i < n; i += 4, ++b) {
    double* __restrict r = re + i * G;
    double* __restrict m = im + i * G;
    if (t4[b]) {
#pragma omp simd
      for (std::size_t g = 0; g < G; ++g) {
        const double ar = r[g], ai = m[g];
        const double br = r[G + g], bi = m[G + g];
        const double cr = r[2 * G + g], ci = m[2 * G + g];
        const double dr = r[3 * G + g], di = m[3 * G + g];
        const double t0r = ar + br, t0i = ai + bi;
        const double t1r = ar - br, t1i = ai - bi;
        const double t2r = cr + dr, t2i = ci + di;
        const double t3r = cr - dr, t3i = ci - di;
        r[g] = t0r + t2r;
        m[g] = t0i + t2i;
        r[2 * G + g] = t0r - t2r;
        m[2 * G + g] = t0i - t2i;
        if constexpr (Inv) {
          r[G + g] = t1r - t3i;
          m[G + g] = t1i + t3r;
          r[3 * G + g] = t1r + t3i;
          m[3 * G + g] = t1i - t3r;
        } else {
          r[G + g] = t1r + t3i;
          m[G + g] = t1i - t3r;
          r[3 * G + g] = t1r - t3i;
          m[3 * G + g] = t1i + t3r;
        }
      }
    } else {
      // Two independent size-2 nodes: (columns i, i+1) and (i+2, i+3).
#pragma omp simd
      for (std::size_t g = 0; g < G; ++g) {
        const double ar = r[g], ai = m[g];
        const double br = r[G + g], bi = m[G + g];
        const double cr = r[2 * G + g], ci = m[2 * G + g];
        const double dr = r[3 * G + g], di = m[3 * G + g];
        r[g] = ar + br;
        m[g] = ai + bi;
        r[G + g] = ar - br;
        m[G + g] = ai - bi;
        r[2 * G + g] = cr + dr;
        m[2 * G + g] = ci + di;
        r[3 * G + g] = cr - dr;
        m[3 * G + g] = ci - di;
      }
    }
  }
}

/// gbatch_base_pass with the bit-reversal gather fused in: the butterfly
/// operands load straight from the G source rows (the elements the base
/// pass was about to read anyway) and only the results are written to the
/// interleaved scratch — sequentially — so the separate permutation pass
/// over the group working set disappears. Loads stream each row's
/// L1-sized window; `sel` maps a permuted index to its lane offset within
/// a row (identity for planar lanes, 2*s / 2*s+1 for packed real pairs).
template <bool Inv, class SelRe, class SelIm>
FTIO_BATCH_KERNEL void gbatch_base_gather(
    const double* __restrict row_re, const double* __restrict row_im,
    std::size_t stride, const std::uint32_t* __restrict bp, std::size_t n,
    const std::uint8_t* __restrict t4, double* __restrict re,
    double* __restrict im, SelRe sel_re, SelIm sel_im) {
  constexpr std::size_t G = kBatchGroup;
  for (std::size_t i = 0, b = 0; i < n; i += 4, ++b) {
    const std::size_t s0 = bp[i];
    const std::size_t s1 = bp[i + 1];
    const std::size_t s2 = bp[i + 2];
    const std::size_t s3 = bp[i + 3];
    // Prefetch the next block's operand lines: the bit-reversed columns
    // land on fresh cache lines in every row window, and the windows
    // together exceed L1, so demand loads would stall otherwise.
    if (i + 16 < n) {
      const std::size_t p0 = bp[i + 12];
      const std::size_t p2 = bp[i + 14];
      const bool planar = row_im != row_re;
      for (std::size_t g = 0; g < G; ++g) {
        const double* __restrict rr = row_re + g * stride;
        __builtin_prefetch(rr + sel_re(p0));
        __builtin_prefetch(rr + sel_re(p2));
        if (planar) {
          const double* __restrict ri = row_im + g * stride;
          __builtin_prefetch(ri + sel_im(p0));
          __builtin_prefetch(ri + sel_im(p2));
        }
      }
    }
    double* __restrict r = re + i * G;
    double* __restrict m = im + i * G;
    if (t4[b]) {
#pragma omp simd
      for (std::size_t g = 0; g < G; ++g) {
        const double* __restrict rr = row_re + g * stride;
        const double* __restrict ri = row_im + g * stride;
        const double ar = rr[sel_re(s0)], ai = ri[sel_im(s0)];
        const double br = rr[sel_re(s1)], bi = ri[sel_im(s1)];
        const double cr = rr[sel_re(s2)], ci = ri[sel_im(s2)];
        const double dr = rr[sel_re(s3)], di = ri[sel_im(s3)];
        const double t0r = ar + br, t0i = ai + bi;
        const double t1r = ar - br, t1i = ai - bi;
        const double t2r = cr + dr, t2i = ci + di;
        const double t3r = cr - dr, t3i = ci - di;
        r[g] = t0r + t2r;
        m[g] = t0i + t2i;
        r[2 * G + g] = t0r - t2r;
        m[2 * G + g] = t0i - t2i;
        if constexpr (Inv) {
          r[G + g] = t1r - t3i;
          m[G + g] = t1i + t3r;
          r[3 * G + g] = t1r + t3i;
          m[3 * G + g] = t1i - t3r;
        } else {
          r[G + g] = t1r + t3i;
          m[G + g] = t1i - t3r;
          r[3 * G + g] = t1r - t3i;
          m[3 * G + g] = t1i + t3r;
        }
      }
    } else {
#pragma omp simd
      for (std::size_t g = 0; g < G; ++g) {
        const double* __restrict rr = row_re + g * stride;
        const double* __restrict ri = row_im + g * stride;
        const double ar = rr[sel_re(s0)], ai = ri[sel_im(s0)];
        const double br = rr[sel_re(s1)], bi = ri[sel_im(s1)];
        const double cr = rr[sel_re(s2)], ci = ri[sel_im(s2)];
        const double dr = rr[sel_re(s3)], di = ri[sel_im(s3)];
        r[g] = ar + br;
        m[g] = ai + bi;
        r[G + g] = ar - br;
        m[G + g] = ai - bi;
        r[2 * G + g] = cr + dr;
        m[2 * G + g] = ci + di;
        r[3 * G + g] = cr - dr;
        m[3 * G + g] = ci - di;
      }
    }
  }
}

/// split_combine over the G-times-larger interleaved index space with the
/// group-duplicated twiddle streams: identical per-row formulas, explicit
/// SIMD (the quarter*G-long loop is dependency-free). Kept as a plain
/// always-inline body so the cloned kernels below absorb it into their
/// own ISA level instead of paying a dispatched call per tree node.
template <bool Inv>
[[gnu::always_inline]] inline void gbatch_combine_body(
    double* __restrict re, double* __restrict im, std::size_t quarter,
    const double* __restrict w1r, const double* __restrict w1i,
    const double* __restrict w3r, const double* __restrict w3i) {
  double* __restrict ur = re;
  double* __restrict ui = im;
  double* __restrict vr = re + quarter;
  double* __restrict vi = im + quarter;
  double* __restrict zr = re + 2 * quarter;
  double* __restrict zi = im + 2 * quarter;
  double* __restrict sr = re + 3 * quarter;
  double* __restrict si = im + 3 * quarter;
#pragma omp simd
  for (std::size_t k = 0; k < quarter; ++k) {
    const double a1r = w1r[k];
    const double a1i = Inv ? -w1i[k] : w1i[k];
    const double a3r = w3r[k];
    const double a3i = Inv ? -w3i[k] : w3i[k];
    const double tzr = a1r * zr[k] - a1i * zi[k];
    const double tzi = a1r * zi[k] + a1i * zr[k];
    const double tsr = a3r * sr[k] - a3i * si[k];
    const double tsi = a3r * si[k] + a3i * sr[k];
    const double t1r = tzr + tsr, t1i = tzi + tsi;
    const double t2r = tzr - tsr, t2i = tzi - tsi;
    const double u0r = ur[k], u0i = ui[k];
    const double u1r = vr[k], u1i = vi[k];
    ur[k] = u0r + t1r;
    ui[k] = u0i + t1i;
    zr[k] = u0r - t1r;
    zi[k] = u0i - t1i;
    if constexpr (Inv) {
      vr[k] = u1r - t2i;
      vi[k] = u1i + t2r;
      sr[k] = u1r + t2i;
      si[k] = u1i - t2r;
    } else {
      vr[k] = u1r + t2i;
      vi[k] = u1i - t2r;
      sr[k] = u1r - t2i;
      si[k] = u1i + t2r;
    }
  }
}

/// One combine node (the block-top combine of the depth-first recursion).
template <bool Inv>
FTIO_BATCH_KERNEL void gbatch_combine(double* __restrict re,
                                      double* __restrict im,
                                      std::size_t quarter,
                                      const double* __restrict w1r,
                                      const double* __restrict w1i,
                                      const double* __restrict w3r,
                                      const double* __restrict w3i) {
  gbatch_combine_body<Inv>(re, im, quarter, w1r, w1i, w3r, w3i);
}

/// One whole combine stage over a leaf block: the is/id node enumeration
/// runs inside the cloned kernel, so the short stages (hundreds of
/// length-8/16 nodes per block) pay one dispatched call per stage
/// instead of one per node.
template <bool Inv>
FTIO_BATCH_KERNEL void gbatch_stage_sweep(
    double* __restrict re, double* __restrict im, std::size_t block_len,
    std::size_t stage_len, std::size_t g, const double* __restrict w1r,
    const double* __restrict w1i, const double* __restrict w3r,
    const double* __restrict w3i) {
  const std::size_t quarterG = (stage_len / 4) * g;
  std::size_t ix = 0;
  std::size_t id = 2 * stage_len;
  while (ix < block_len) {
    for (std::size_t p = ix; p < block_len; p += id) {
      gbatch_combine_body<Inv>(re + p * g, im + p * g, quarterG, w1r, w1i,
                               w3r, w3i);
    }
    ix = 2 * id - stage_len;
    id *= 4;
  }
}

}  // namespace

template <bool Inv>
void FftPlan::split_iterative(double* re, double* im, std::size_t len,
                              std::size_t pos) const {
  double* __restrict r = re + pos;
  double* __restrict m = im + pos;
  if (len == 2) {
    const double ar = r[0], ai = m[0];
    const double br = r[1], bi = m[1];
    r[0] = ar + br;
    m[0] = ai + bi;
    r[1] = ar - br;
    m[1] = ai - bi;
    return;
  }
  // Fused (2,4) base pass: every 4-block is either one 4-point DFT
  // (size-4 node, type 1) or two independent radix-2 butterflies (a pair
  // of size-2 nodes, type 0); the radix-2 halves t0..t3 are shared.
  const std::uint8_t* __restrict t4 = base4_.data() + pos / 4;
  for (std::size_t i = 0, b = 0; i < len; i += 4, ++b) {
    const double ar = r[i], ai = m[i];
    const double br = r[i + 1], bi = m[i + 1];
    const double cr = r[i + 2], ci = m[i + 2];
    const double dr = r[i + 3], di = m[i + 3];
    const double t0r = ar + br, t0i = ai + bi;
    const double t1r = ar - br, t1i = ai - bi;
    const double t2r = cr + dr, t2i = ci + di;
    const double t3r = cr - dr, t3i = ci - di;
    if (t4[b]) {
      r[i] = t0r + t2r;
      m[i] = t0i + t2i;
      r[i + 2] = t0r - t2r;
      m[i + 2] = t0i - t2i;
      if constexpr (Inv) {
        r[i + 1] = t1r - t3i;
        m[i + 1] = t1i + t3r;
        r[i + 3] = t1r + t3i;
        m[i + 3] = t1i - t3r;
      } else {
        r[i + 1] = t1r + t3i;
        m[i + 1] = t1i - t3r;
        r[i + 3] = t1r - t3i;
        m[i + 3] = t1i + t3r;
      }
    } else {
      r[i] = t0r;
      m[i] = t0i;
      r[i + 1] = t1r;
      m[i + 1] = t1i;
      r[i + 2] = t2r;
      m[i + 2] = t2i;
      r[i + 3] = t3r;
      m[i + 3] = t3i;
    }
  }
  // Combine stages 8..len over the nodes the is/id enumeration names.
  for (const auto& st : stages_) {
    if (st.len > len) break;
    for_each_split_node(len, st.len, [&](std::size_t p) {
      split_combine<Inv>(r + p, m + p, st.len / 4, st.w1re.data(),
                         st.w1im.data(), st.w3re.data(), st.w3im.data());
    });
  }
}

template <bool Inv>
void FftPlan::split_subtree(double* re, double* im, std::size_t len,
                            std::size_t pos) const {
  if (len <= detail::kSplitRadixLeafLen) {
    split_iterative<Inv>(re, im, len, pos);
    return;
  }
  // Depth-first: finish each half/quarter while it is cache-resident,
  // then run the single top combine over the whole block.
  const std::size_t half = len / 2;
  const std::size_t quarter = len / 4;
  split_subtree<Inv>(re, im, half, pos);
  split_subtree<Inv>(re, im, quarter, pos + half);
  split_subtree<Inv>(re, im, quarter, pos + half + quarter);
  const auto& st =
      stages_[static_cast<std::size_t>(std::countr_zero(len)) - 3];
  split_combine<Inv>(re + pos, im + pos, quarter, st.w1re.data(),
                     st.w1im.data(), st.w3re.data(), st.w3im.data());
}

void FftPlan::split_passes(double* re, double* im, bool invert) const {
  if (invert) {
    split_subtree<true>(re, im, n_, 0);
  } else {
    split_subtree<false>(re, im, n_, 0);
  }
}

void FftPlan::ensure_batch_tables() const {
  std::call_once(batch_once_, [this] {
    batch_stages_.reserve(stages_.size());
    for (const auto& st : stages_) {
      SplitStage g;
      g.len = st.len;
      const std::size_t quarter = st.len / 4;
      g.w1re.resize(quarter * kBatchGroup);
      g.w1im.resize(quarter * kBatchGroup);
      g.w3re.resize(quarter * kBatchGroup);
      g.w3im.resize(quarter * kBatchGroup);
      for (std::size_t k = 0; k < quarter; ++k) {
        for (std::size_t r = 0; r < kBatchGroup; ++r) {
          g.w1re[k * kBatchGroup + r] = st.w1re[k];
          g.w1im[k * kBatchGroup + r] = st.w1im[k];
          g.w3re[k * kBatchGroup + r] = st.w3re[k];
          g.w3im[k * kBatchGroup + r] = st.w3im[k];
        }
      }
      batch_stages_.push_back(std::move(g));
    }
  });
}

template <bool Inv>
void FftPlan::split_passes_batch(double* re, double* im) const {
  // Precondition: n_ % 4 == 0 — every grouped batch path requires the
  // packed transform length to be at least 4 (n_ >= 8 at the real-input
  // entry points), so the (2,4) base pass always applies.
  gbatch_base_pass<Inv>(re, im, n_, base4_.data());
  split_stages_batch<Inv>(re, im);
}

template <bool Inv>
void FftPlan::split_stages_batch(double* re, double* im) const {
  split_subtree_batch<Inv>(re, im, n_, 0);
}

template <bool Inv>
void FftPlan::split_subtree_batch(double* re, double* im, std::size_t len,
                                  std::size_t pos) const {
  constexpr std::size_t G = kBatchGroup;
  if (len * G <= detail::kBatchLeafElems) {
    // Stage-major sweep of this block: every length-L combine runs across
    // the whole group (a valid topological order of the split-radix tree
    // — children always complete before their parent's combine, so each
    // row's values match the depth-first single-signal order bit for
    // bit). The L-combine is the single-signal split_combine arithmetic
    // on the G-times-larger index space with the group-duplicated
    // twiddle streams.
    for (const auto& st : batch_stages_) {
      if (st.len > len) break;
      gbatch_stage_sweep<Inv>(re + pos * G, im + pos * G, len, st.len, G,
                              st.w1re.data(), st.w1im.data(),
                              st.w3re.data(), st.w3im.data());
    }
    return;
  }
  const std::size_t half = len / 2;
  const std::size_t quarter = len / 4;
  split_subtree_batch<Inv>(re, im, half, pos);
  split_subtree_batch<Inv>(re, im, quarter, pos + half);
  split_subtree_batch<Inv>(re, im, quarter, pos + half + quarter);
  const auto& st =
      batch_stages_[static_cast<std::size_t>(std::countr_zero(len)) - 3];
  gbatch_combine<Inv>(re + pos * G, im + pos * G, (len / 4) * G,
                      st.w1re.data(), st.w1im.data(), st.w3re.data(),
                      st.w3im.data());
}

std::size_t FftPlan::batch_tile_rows(bool real_input) const {
  const std::size_t len = real_input ? n_ / 2 : n_;
  if (len < 2) return 1;
  const std::size_t per_row = 2 * len * sizeof(double);
  const std::size_t rows = detail::kBatchTileBytes / per_row;
  if (rows < kBatchGroup) return 1;
  return rows - rows % kBatchGroup;
}

template <bool Inv>
void FftPlan::planar_batch_group(std::size_t stride, const double* in_re,
                                 const double* in_im, double* out_re,
                                 double* out_im) const {
  constexpr std::size_t G = kBatchGroup;
  auto& ws = workspace();
  double* __restrict sre = ws.bre.data();
  double* __restrict sim = ws.bim.data();
  // The base pass runs fused with the bit-reversal gather: operands load
  // straight from the G source rows, results land sequentially in the
  // interleaved scratch. The group's entire input is consumed before any
  // output write, so fully aliased out lanes are safe (other rows are
  // never touched here).
  const auto id = [](std::size_t s) { return s; };
  gbatch_base_gather<Inv>(in_re, in_im, stride, bitrev_.data(), n_,
                          base4_.data(), sre, sim, id, id);
  split_stages_batch<Inv>(sre, sim);
  const double scale = 1.0 / static_cast<double>(n_);
  for (std::size_t g = 0; g < G; ++g) {
    double* __restrict orr = out_re + g * stride;
    double* __restrict ori = out_im + g * stride;
    const double* __restrict cr = sre + g;
    const double* __restrict ci = sim + g;
    if constexpr (Inv) {
      for (std::size_t k = 0; k < n_; ++k) {
        orr[k] = cr[k * G] * scale;
        ori[k] = ci[k * G] * scale;
      }
    } else {
      for (std::size_t k = 0; k < n_; ++k) {
        orr[k] = cr[k * G];
        ori[k] = ci[k * G];
      }
    }
  }
}

void FftPlan::forward_planar_batch(std::size_t batch, std::size_t stride,
                                   std::span<const double> in_re,
                                   std::span<const double> in_im,
                                   std::span<double> out_re,
                                   std::span<double> out_im) const {
  if (batch == 0) return;
  ftio::util::expect(stride >= n_,
                     "FftPlan::forward_planar_batch: stride < row length");
  const std::size_t need = (batch - 1) * stride + n_;
  ftio::util::expect(in_re.size() >= need && in_im.size() >= need &&
                         out_re.size() >= need && out_im.size() >= need,
                     "FftPlan::forward_planar_batch: lanes too short");
  FTIO_CONTRACT(
      alias_full_or_disjoint(in_re.data(), out_re.data(), need) &&
          alias_full_or_disjoint(in_im.data(), out_im.data(), need),
      "batch lanes must fully alias (same bases and stride) or not overlap");
  const bool grouped =
      pow2_ && n_ >= 4 && batch >= kBatchGroup && batch_tile_rows(false) > 1;
  std::size_t b = 0;
  if (grouped) {
    ensure_batch_tables();
    auto& ws = workspace();
    ws.bre.resize(n_ * kBatchGroup);
    ws.bim.resize(n_ * kBatchGroup);
    for (; b + kBatchGroup <= batch; b += kBatchGroup) {
      planar_batch_group<false>(stride, in_re.data() + b * stride,
                                in_im.data() + b * stride,
                                out_re.data() + b * stride,
                                out_im.data() + b * stride);
    }
  }
  for (; b < batch; ++b) {
    forward_planar(in_re.subspan(b * stride, n_),
                   in_im.subspan(b * stride, n_),
                   out_re.subspan(b * stride, n_),
                   out_im.subspan(b * stride, n_));
  }
}

void FftPlan::inverse_planar_batch(std::size_t batch, std::size_t stride,
                                   std::span<const double> in_re,
                                   std::span<const double> in_im,
                                   std::span<double> out_re,
                                   std::span<double> out_im) const {
  if (batch == 0) return;
  ftio::util::expect(stride >= n_,
                     "FftPlan::inverse_planar_batch: stride < row length");
  const std::size_t need = (batch - 1) * stride + n_;
  ftio::util::expect(in_re.size() >= need && in_im.size() >= need &&
                         out_re.size() >= need && out_im.size() >= need,
                     "FftPlan::inverse_planar_batch: lanes too short");
  FTIO_CONTRACT(
      alias_full_or_disjoint(in_re.data(), out_re.data(), need) &&
          alias_full_or_disjoint(in_im.data(), out_im.data(), need),
      "batch lanes must fully alias (same bases and stride) or not overlap");
  const bool grouped =
      pow2_ && n_ >= 4 && batch >= kBatchGroup && batch_tile_rows(false) > 1;
  std::size_t b = 0;
  if (grouped) {
    ensure_batch_tables();
    auto& ws = workspace();
    ws.bre.resize(n_ * kBatchGroup);
    ws.bim.resize(n_ * kBatchGroup);
    for (; b + kBatchGroup <= batch; b += kBatchGroup) {
      planar_batch_group<true>(stride, in_re.data() + b * stride,
                               in_im.data() + b * stride,
                               out_re.data() + b * stride,
                               out_im.data() + b * stride);
    }
  }
  for (; b < batch; ++b) {
    inverse_planar(in_re.subspan(b * stride, n_),
                   in_im.subspan(b * stride, n_),
                   out_re.subspan(b * stride, n_),
                   out_im.subspan(b * stride, n_));
  }
}

void FftPlan::rfft_half_batch_group(std::size_t in_stride, const double* in,
                                    std::size_t out_stride, double* out_re,
                                    double* out_im) const {
  constexpr std::size_t G = kBatchGroup;
  const std::size_t h = n_ / 2;
  auto& ws = workspace();
  double* __restrict sre = ws.bre.data();
  double* __restrict sim = ws.bim.data();
  // The half plan's base pass runs fused with the deinterleaving pair
  // gather: operand pair bitrev[k] of each row loads straight from the
  // packed real source, results land sequentially in the interleaved
  // scratch.
  gbatch_base_gather<false>(in, in, in_stride, half_->bitrev_.data(), h,
                            half_->base4_.data(), sre, sim,
                            [](std::size_t s) { return 2 * s; },
                            [](std::size_t s) { return 2 * s + 1; });
  half_->split_stages_batch<false>(sre, sim);
  // Single-sided unpack straight into the output rows, bin-major so the
  // twiddle pair and both source columns load once per bin for all rows.
  // Formulas verbatim from forward_real_half_planar's unpack.
  const double* __restrict twr = rtw_re_.data();
  const double* __restrict twi = rtw_im_.data();
  for (std::size_t g = 0; g < G; ++g) {
    const double z0r = sre[g], z0i = sim[g];
    out_re[g * out_stride] = z0r + z0i;
    out_im[g * out_stride] = 0.0;
    out_re[g * out_stride + h] = z0r - z0i;
    out_im[g * out_stride + h] = 0.0;
  }
  for (std::size_t k = 1; k < h; ++k) {
    const double wr = twr[k];
    const double wi = twi[k];
    const double* __restrict zkr = sre + k * G;
    const double* __restrict zki = sim + k * G;
    const double* __restrict zhr = sre + (h - k) * G;
    const double* __restrict zhi = sim + (h - k) * G;
    double* __restrict orow = out_re + k;
    double* __restrict irow = out_im + k;
#pragma omp simd
    for (std::size_t g = 0; g < G; ++g) {
      const double zr = zkr[g], zi = zki[g];
      const double zmr = zhr[g], zmi = -zhi[g];
      const double er = 0.5 * (zr + zmr);
      const double ei = 0.5 * (zi + zmi);
      const double odr = 0.5 * (zi - zmi);
      const double odi = -0.5 * (zr - zmr);
      orow[g * out_stride] = er + wr * odr - wi * odi;
      irow[g * out_stride] = ei + wr * odi + wi * odr;
    }
  }
}

void FftPlan::rfft_half_planar_batch_into(std::size_t batch,
                                          std::size_t in_stride,
                                          std::span<const double> in,
                                          std::size_t out_stride,
                                          std::span<double> out_re,
                                          std::span<double> out_im) const {
  if (batch == 0) return;
  const std::size_t bins = n_ / 2 + 1;
  ftio::util::expect(in_stride >= n_ && out_stride >= bins,
                     "FftPlan::rfft_half_planar_batch_into: stride too small");
  ftio::util::expect(
      in.size() >= (batch - 1) * in_stride + n_ &&
          out_re.size() >= (batch - 1) * out_stride + bins &&
          out_im.size() >= (batch - 1) * out_stride + bins,
      "FftPlan::rfft_half_planar_batch_into: lanes too short");
  bool grouped = n_ >= 8 && n_ % 2 == 0 && batch >= kBatchGroup &&
                 batch_tile_rows(true) > 1;
  if (grouped) {
    ensure_real_tables();
    grouped = half_->pow2_;
  }
  std::size_t b = 0;
  if (grouped) {
    half_->ensure_batch_tables();
    auto& ws = workspace();
    ws.bre.resize((n_ / 2) * kBatchGroup);
    ws.bim.resize((n_ / 2) * kBatchGroup);
    for (; b + kBatchGroup <= batch; b += kBatchGroup) {
      rfft_half_batch_group(in_stride, in.data() + b * in_stride,
                            out_stride, out_re.data() + b * out_stride,
                            out_im.data() + b * out_stride);
    }
  }
  for (; b < batch; ++b) {
    forward_real_half_planar(in.subspan(b * in_stride, n_),
                             out_re.subspan(b * out_stride, bins),
                             out_im.subspan(b * out_stride, bins));
  }
}

void FftPlan::irfft_half_batch_group(std::size_t in_stride,
                                     const double* in_re,
                                     const double* in_im,
                                     std::size_t out_stride,
                                     double* out) const {
  constexpr std::size_t G = kBatchGroup;
  const std::size_t h = n_ / 2;
  auto& ws = workspace();
  double* __restrict sre = ws.bre.data();
  double* __restrict sim = ws.bim.data();
  // Fold the half spectra back into packed half-size signals, scattering
  // into bit-reversed interleaved columns (bitrev[0] == 0, so the peeled
  // DC/Nyquist fold lands in column 0). Formulas verbatim from
  // inverse_real_half_planar's z0/z_at.
  const std::uint32_t* bp = half_->bitrev_.data();
  for (std::size_t g = 0; g < G; ++g) {
    const double dc = in_re[g * in_stride];
    const double ny = in_re[g * in_stride + h];
    sre[g] = 0.5 * (dc + ny);
    sim[g] = 0.5 * (dc - ny);
  }
  const double* __restrict rwr = rtw_re_.data();
  const double* __restrict rwi = rtw_im_.data();
  for (std::size_t k = 1; k < h; ++k) {
    const double wr = rwr[k];
    const double wi = rwi[k];
    const std::size_t d = bp[k];
    const double* __restrict akr = in_re + k;
    const double* __restrict aki = in_im + k;
    const double* __restrict bkr = in_re + (h - k);
    const double* __restrict bki = in_im + (h - k);
    double* __restrict dr = sre + d * G;
    double* __restrict di = sim + d * G;
#pragma omp simd
    for (std::size_t g = 0; g < G; ++g) {
      const double ar = akr[g * in_stride];
      const double ai = aki[g * in_stride];
      const double br = bkr[g * in_stride];
      const double bi = -bki[g * in_stride];
      const double er = 0.5 * (ar + br);
      const double ei = 0.5 * (ai + bi);
      const double fr = 0.5 * (ar - br);
      const double fi = 0.5 * (ai - bi);
      const double odr = wr * fr + wi * fi;
      const double odi = wr * fi - wi * fr;
      dr[g] = er - odi;
      di[g] = ei + odr;
    }
  }
  half_->split_passes_batch<true>(sre, sim);
  const double scale = 1.0 / static_cast<double>(h);
  for (std::size_t g = 0; g < G; ++g) {
    double* __restrict orow = out + g * out_stride;
    const double* __restrict cr = sre + g;
    const double* __restrict ci = sim + g;
#pragma omp simd
    for (std::size_t j = 0; j < h; ++j) {
      orow[2 * j] = cr[j * G] * scale;
      orow[2 * j + 1] = ci[j * G] * scale;
    }
  }
}

void FftPlan::irfft_half_planar_batch_into(std::size_t batch,
                                           std::size_t in_stride,
                                           std::span<const double> in_re,
                                           std::span<const double> in_im,
                                           std::size_t out_stride,
                                           std::span<double> out) const {
  if (batch == 0) return;
  const std::size_t bins = n_ / 2 + 1;
  ftio::util::expect(in_stride >= bins && out_stride >= n_,
                     "FftPlan::irfft_half_planar_batch_into: stride too "
                     "small");
  ftio::util::expect(
      in_re.size() >= (batch - 1) * in_stride + bins &&
          in_im.size() >= (batch - 1) * in_stride + bins &&
          out.size() >= (batch - 1) * out_stride + n_,
      "FftPlan::irfft_half_planar_batch_into: lanes too short");
  bool grouped = n_ >= 8 && n_ % 2 == 0 && batch >= kBatchGroup &&
                 batch_tile_rows(true) > 1;
  if (grouped) {
    ensure_real_tables();
    grouped = half_->pow2_;
  }
  std::size_t b = 0;
  if (grouped) {
    half_->ensure_batch_tables();
    auto& ws = workspace();
    ws.bre.resize((n_ / 2) * kBatchGroup);
    ws.bim.resize((n_ / 2) * kBatchGroup);
    for (; b + kBatchGroup <= batch; b += kBatchGroup) {
      irfft_half_batch_group(in_stride, in_re.data() + b * in_stride,
                             in_im.data() + b * in_stride, out_stride,
                             out.data() + b * out_stride);
    }
  }
  for (; b < batch; ++b) {
    inverse_real_half_planar(in_re.subspan(b * in_stride, bins),
                             in_im.subspan(b * in_stride, bins),
                             out.subspan(b * out_stride, n_));
  }
}

void FftPlan::ensure_bluestein_tables() const {
  std::call_once(bluestein_once_, [this] {
    // Bluestein: chirp, and the FFT of the wrapped conjugate chirp — the
    // expensive part of the convolution, paid once per size on the first
    // complex transform.
    chirp_re_.resize(n_);
    chirp_im_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      // k^2 mod 2n avoids catastrophic phase error for large k.
      const std::size_t k2 = (k * k) % (2 * n_);
      const double angle = -std::numbers::pi * static_cast<double>(k2) /
                           static_cast<double>(n_);
      chirp_re_[k] = std::cos(angle);
      chirp_im_[k] = std::sin(angle);
    }
    sub_ = get_plan(m_);
    // The wrapped conjugate chirp, conj(w_k) at k and m-k, scattered
    // straight into the bit-reversed order the forward pass reads.
    const std::uint32_t* bitrev = sub_->bitrev_.data();
    bhat_re_.assign(m_, 0.0);
    bhat_im_.assign(m_, 0.0);
    bhat_re_[bitrev[0]] = chirp_re_[0];
    bhat_im_[bitrev[0]] = -chirp_im_[0];
    for (std::size_t k = 1; k < n_; ++k) {
      bhat_re_[bitrev[k]] = bhat_re_[bitrev[m_ - k]] = chirp_re_[k];
      bhat_im_[bitrev[k]] = bhat_im_[bitrev[m_ - k]] = -chirp_im_[k];
    }
    sub_->split_passes(bhat_re_.data(), bhat_im_.data(), /*invert=*/false);
  });
}

void FftPlan::ensure_real_tables() const {
  std::call_once(real_once_, [this] {
    half_ = get_plan(n_ / 2);
    // The packed real path always runs the half plan's complex transform,
    // so finish its lazy state here rather than on first use.
    half_->prepare(/*for_real_input=*/false);
    rtw_re_.resize(n_ / 2 + 1);
    rtw_im_.resize(n_ / 2 + 1);
    for (std::size_t k = 0; k <= n_ / 2; ++k) {
      const Complex w = unit_root(k, n_);
      rtw_re_[k] = w.real();
      rtw_im_[k] = w.imag();
    }
  });
}

void FftPlan::prepare(bool for_real_input) const {
  if (for_real_input && n_ >= 2 && n_ % 2 == 0) {
    ensure_real_tables();
    return;
  }
  if (!pow2_ && n_ > 1) ensure_bluestein_tables();
}

template <bool Inv>
void FftPlan::bluestein(const double* in_re, const double* in_im,
                        double* out_re, double* out_im,
                        std::size_t bins) const {
  ensure_bluestein_tables();
  auto& ws = workspace();
  ws.cre.resize(m_);
  ws.cim.resize(m_);
  ws.pre.resize(m_);
  ws.pim.resize(m_);
  // t: natural order (time domain), f: bit-reversed into the forward
  // pass (frequency domain).
  double* __restrict tr = ws.cre.data();
  double* __restrict ti = ws.cim.data();
  double* __restrict fr = ws.pre.data();
  double* __restrict fi = ws.pim.data();
  const double* __restrict wr = chirp_re_.data();
  const double* __restrict wi = chirp_im_.data();

  // a_k = x_k * w_k (x conjugated for the inverse), zero-padded to m.
  for (std::size_t k = 0; k < n_; ++k) {
    const double xr = in_re[k];
    double xi = in_im == nullptr ? 0.0 : in_im[k];
    if constexpr (Inv) xi = -xi;
    tr[k] = xr * wr[k] - xi * wi[k];
    ti[k] = xr * wi[k] + xi * wr[k];
  }
  std::fill(tr + n_, tr + m_, 0.0);
  std::fill(ti + n_, ti + m_, 0.0);

  // Circular convolution with the conjugate chirp: forward pass, product
  // with the precomputed kernel spectrum, unscaled inverse pass.
  const std::uint32_t* bitrev = sub_->bitrev_.data();
  detail::bitrev_permute_planar(bitrev, m_, tr, ti, fr, fi);
  sub_->split_passes(fr, fi, /*invert=*/false);
  const double* __restrict hr = bhat_re_.data();
  const double* __restrict hi = bhat_im_.data();
  for (std::size_t i = 0; i < m_; ++i) {
    const double ar = fr[i];
    const double ai = fi[i];
    fr[i] = ar * hr[i] - ai * hi[i];
    fi[i] = ar * hi[i] + ai * hr[i];
  }
  detail::bitrev_permute_planar(bitrev, m_, fr, fi, tr, ti);
  sub_->split_passes(tr, ti, /*invert=*/true);

  // X_k = (conv_k / m) * w_k; the inverse conjugates and scales by 1/N.
  const double scale = 1.0 / static_cast<double>(m_);
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (std::size_t k = 0; k < bins; ++k) {
    const double ar = tr[k] * scale;
    const double ai = ti[k] * scale;
    const double yr = ar * wr[k] - ai * wi[k];
    const double yi = ar * wi[k] + ai * wr[k];
    if constexpr (Inv) {
      out_re[k] = yr * inv_n;
      out_im[k] = -yi * inv_n;
    } else {
      out_re[k] = yr;
      out_im[k] = yi;
    }
  }
}

void FftPlan::pow2_planar(std::span<const double> in_re,
                          std::span<const double> in_im,
                          std::span<double> out_re, std::span<double> out_im,
                          bool invert) const {
  const double* sr = in_re.data();
  const double* si = in_im.data();
  if (sr == out_re.data() || si == out_im.data()) {
    // In-place call: the permuted gather cannot run in place, so stage
    // the input through scratch (full aliasing only; partial overlap is
    // undefined).
    auto& ws = workspace();
    ws.re2.assign(in_re.begin(), in_re.end());
    ws.im2.assign(in_im.begin(), in_im.end());
    sr = ws.re2.data();
    si = ws.im2.data();
  }
  detail::bitrev_permute_planar(bitrev_.data(), n_, sr, si, out_re.data(),
                                out_im.data());
  split_passes(out_re.data(), out_im.data(), invert);
}

void FftPlan::forward_planar(std::span<const double> in_re,
                             std::span<const double> in_im,
                             std::span<double> out_re,
                             std::span<double> out_im) const {
  ftio::util::expect(in_re.size() == n_ && in_im.size() == n_ &&
                         out_re.size() == n_ && out_im.size() == n_,
                     "FftPlan::forward_planar: size mismatch");
  FTIO_CONTRACT(alias_full_or_disjoint(in_re.data(), out_re.data(), n_) &&
                    alias_full_or_disjoint(in_im.data(), out_im.data(), n_),
                "planar lanes must fully alias or not overlap");
  if (n_ == 1) {
    out_re[0] = in_re[0];
    out_im[0] = in_im[0];
    return;
  }
  if (!pow2_) {
    bluestein<false>(in_re.data(), in_im.data(), out_re.data(),
                     out_im.data(), n_);
    return;
  }
  pow2_planar(in_re, in_im, out_re, out_im, /*invert=*/false);
}

void FftPlan::inverse_planar(std::span<const double> in_re,
                             std::span<const double> in_im,
                             std::span<double> out_re,
                             std::span<double> out_im) const {
  ftio::util::expect(in_re.size() == n_ && in_im.size() == n_ &&
                         out_re.size() == n_ && out_im.size() == n_,
                     "FftPlan::inverse_planar: size mismatch");
  FTIO_CONTRACT(alias_full_or_disjoint(in_re.data(), out_re.data(), n_) &&
                    alias_full_or_disjoint(in_im.data(), out_im.data(), n_),
                "planar lanes must fully alias or not overlap");
  if (n_ == 1) {
    out_re[0] = in_re[0];
    out_im[0] = in_im[0];
    return;
  }
  if (!pow2_) {
    bluestein<true>(in_re.data(), in_im.data(), out_re.data(),
                    out_im.data(), n_);
    return;
  }
  pow2_planar(in_re, in_im, out_re, out_im, /*invert=*/true);
  const double scale = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out_re[i] *= scale;
    out_im[i] *= scale;
  }
}

void FftPlan::forward_real_half_planar(std::span<const double> in,
                                       std::span<double> out_re,
                                       std::span<double> out_im) const {
  ftio::util::expect(in.size() == n_ && out_re.size() == n_ / 2 + 1 &&
                         out_im.size() == n_ / 2 + 1,
                     "FftPlan::forward_real_half_planar: size mismatch");
  if (n_ == 1) {
    out_re[0] = in[0];
    out_im[0] = 0.0;
    return;
  }
  if (n_ % 2 != 0) {
    // Odd N: the complex transform of the real lane, first half only.
    bluestein<false>(in.data(), nullptr, out_re.data(), out_im.data(),
                     n_ / 2 + 1);
    return;
  }

  // Pack x[2j] + i*x[2j+1] into an N/2-point signal in the scratch lanes,
  // transform it there, then untangle the single-sided even/odd spectra
  // with the precomputed unpack twiddles. The mirror bins X[N-k] are
  // never formed.
  ensure_real_tables();
  const std::size_t h = n_ / 2;
  auto& ws = workspace();
  ws.re.resize(h);
  ws.im.resize(h);
  double* re = ws.re.data();
  double* im = ws.im.data();
  if (h == 1) {
    re[0] = in[0];
    im[0] = in[1];
  } else if (half_->pow2_) {
    // Permute the real pairs straight into the split-radix lanes.
    detail::bitrev_permute_pairs(half_->bitrev_.data(), h, in.data(), re,
                                 im);
    half_->split_passes(re, im, /*invert=*/false);
  } else {
    for (std::size_t j = 0; j < h; ++j) {
      re[j] = in[2 * j];
      im[j] = in[2 * j + 1];
    }
    half_->bluestein<false>(re, im, re, im, h);
  }

  const double* __restrict twr = rtw_re_.data();
  const double* __restrict twi = rtw_im_.data();
  // DC and Nyquist both read bin 0 of the packed transform (k and h-k
  // wrap to 0); peeling them keeps the interior loop free of the
  // index-wrapping modulo — two hardware divides per bin that used to
  // dominate the whole unpack at large N.
  out_re[0] = re[0] + im[0];
  out_im[0] = 0.0;
  out_re[h] = re[0] - im[0];
  out_im[h] = 0.0;
  for (std::size_t k = 1; k < h; ++k) {
    const double zkr = re[k], zki = im[k];
    const double zmr = re[h - k], zmi = -im[h - k];
    const double er = 0.5 * (zkr + zmr);
    const double ei = 0.5 * (zki + zmi);
    // odd = -i/2 * (z_k - conj(z_{h-k}))
    const double odr = 0.5 * (zki - zmi);
    const double odi = -0.5 * (zkr - zmr);
    out_re[k] = er + twr[k] * odr - twi[k] * odi;
    out_im[k] = ei + twr[k] * odi + twi[k] * odr;
  }
}

void FftPlan::inverse_real_half_planar(std::span<const double> in_re,
                                       std::span<const double> in_im,
                                       std::span<double> out) const {
  ftio::util::expect(in_re.size() == n_ / 2 + 1 &&
                         in_im.size() == n_ / 2 + 1 && out.size() == n_,
                     "FftPlan::inverse_real_half_planar: size mismatch");
  if (n_ == 1) {
    out[0] = in_re[0];
    return;
  }
  auto& ws = workspace();
  if (n_ % 2 != 0) {
    // Odd N: rebuild the full conjugate-symmetric spectrum and run the
    // complex inverse; the imaginary parts of the result are rounding
    // noise and land back in the scratch lane.
    const std::size_t h = n_ / 2;
    ws.re.resize(n_);
    ws.im.resize(n_);
    double* re = ws.re.data();
    double* im = ws.im.data();
    re[0] = in_re[0];
    im[0] = 0.0;
    for (std::size_t k = 1; k <= h; ++k) {
      re[k] = re[n_ - k] = in_re[k];
      im[k] = in_im[k];
      im[n_ - k] = -in_im[k];
    }
    bluestein<true>(re, im, out.data(), im, n_);
    return;
  }

  // Even N: fold the half spectrum back into the N/2-point packed signal
  // Z_k = E_k + i*O_k (E/O the even/odd-sample spectra, O recovered with
  // the conjugate unpack twiddle), inverse-transform it, and deinterleave
  // z_j = x[2j] + i*x[2j+1]. DC and Nyquist imaginary parts are forced to
  // zero — a real signal cannot produce them.
  ensure_real_tables();
  const std::size_t h = n_ / 2;
  struct Z {
    double r, i;
  };
  // Bin 0 of the packed signal folds DC with Nyquist (both forced real);
  // peeling it keeps the interior fold branch-free.
  const Z z0{0.5 * (in_re[0] + in_re[h]), 0.5 * (in_re[0] - in_re[h])};
  const auto z_at = [&](std::size_t k) -> Z {  // k in [1, h)
    const double ar = in_re[k];
    const double ai = in_im[k];
    const double br = in_re[h - k];
    const double bi = -in_im[h - k];
    const double er = 0.5 * (ar + br);
    const double ei = 0.5 * (ai + bi);
    const double dr = 0.5 * (ar - br);
    const double di = 0.5 * (ai - bi);
    // odd = conj(tw_k) * d;  Z_k = E_k + i * O_k
    const double odr = rtw_re_[k] * dr + rtw_im_[k] * di;
    const double odi = rtw_re_[k] * di - rtw_im_[k] * dr;
    return {er - odi, ei + odr};
  };
  const auto fold_linear = [&](double* zr, double* zi) {
    zr[0] = z0.r;
    zi[0] = z0.i;
    for (std::size_t k = 1; k < h; ++k) {
      const Z z = z_at(k);
      zr[k] = z.r;
      zi[k] = z.i;
    }
  };
  ws.re.resize(h);
  ws.im.resize(h);
  double* re = ws.re.data();
  double* im = ws.im.data();
  if (!half_->pow2_) {
    // The half plan's Bluestein inverts in place, 1/(N/2) included.
    fold_linear(re, im);
    half_->bluestein<true>(re, im, re, im, h);
    for (std::size_t j = 0; j < h; ++j) {
      out[2 * j] = re[j];
      out[2 * j + 1] = im[j];
    }
    return;
  }
  if (h == 1) {
    re[0] = z0.r;
    im[0] = z0.i;
  } else if (h >= detail::kBlockedBitrevMinN) {
    // Large N: materialise the fold in linear order, then run the
    // cache-blocked permutation — two streaming passes instead of one
    // scattered one. Same values into the same slots as the direct
    // scatter below, so the threshold never changes results.
    ws.re2.resize(h);
    ws.im2.resize(h);
    fold_linear(ws.re2.data(), ws.im2.data());
    detail::bitrev_permute_planar(half_->bitrev_.data(), h,
                                  ws.re2.data(), ws.im2.data(), re, im);
    half_->split_passes(re, im, /*invert=*/true);
  } else {
    // Scatter into bit-reversed order so the split passes run directly
    // (bitrev[0] == 0: z0 lands in slot 0).
    const std::uint32_t* bp = half_->bitrev_.data();
    re[0] = z0.r;
    im[0] = z0.i;
    for (std::size_t k = 1; k < h; ++k) {
      const Z z = z_at(k);
      const std::size_t d = bp[k];
      re[d] = z.r;
      im[d] = z.i;
    }
    half_->split_passes(re, im, /*invert=*/true);
  }
  const double scale = 1.0 / static_cast<double>(h);
  for (std::size_t j = 0; j < h; ++j) {
    out[2 * j] = re[j] * scale;
    out[2 * j + 1] = im[j] * scale;
  }
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

struct PlanCache::Impl {
  mutable ftio::util::Mutex mutex;
  std::size_t capacity FTIO_GUARDED_BY(mutex);
  // MRU-ordered list of (size, plan); map values point into the list.
  std::list<std::pair<std::size_t, std::shared_ptr<const FftPlan>>> lru
      FTIO_GUARDED_BY(mutex);
  std::unordered_map<std::size_t,
                     std::list<std::pair<std::size_t,
                                         std::shared_ptr<const FftPlan>>>::
                         iterator>
      index FTIO_GUARDED_BY(mutex);
  // In-flight constructions, keyed by size: late arrivals block on the
  // winner's future instead of duplicating a potentially multi-ms build.
  // The Build objects themselves are unguarded — the winning thread owns
  // the promise, waiters only touch their shared_future copy.
  struct Build {
    std::promise<std::shared_ptr<const FftPlan>> promise;
    std::shared_future<std::shared_ptr<const FftPlan>> future;
  };
  std::unordered_map<std::size_t, std::shared_ptr<Build>> building
      FTIO_GUARDED_BY(mutex);
  std::uint64_t hits FTIO_GUARDED_BY(mutex) = 0;
  std::uint64_t misses FTIO_GUARDED_BY(mutex) = 0;
  std::uint64_t miss_waits FTIO_GUARDED_BY(mutex) = 0;
  std::uint64_t evictions FTIO_GUARDED_BY(mutex) = 0;

  void evict_to_capacity_locked() FTIO_REQUIRES(mutex) {
    while (lru.size() > capacity) {
      index.erase(lru.back().first);
      lru.pop_back();
      ++evictions;
    }
  }
};

PlanCache::PlanCache(std::size_t capacity) : impl_(new Impl) {
  impl_->capacity = capacity == 0 ? 1 : capacity;
}

PlanCache::~PlanCache() = default;

std::shared_ptr<const FftPlan> PlanCache::get(std::size_t n) {
  std::shared_ptr<Impl::Build> build;
  std::shared_future<std::shared_ptr<const FftPlan>> wait_on;
  {
    const ftio::util::LockGuard lock(impl_->mutex);
    auto it = impl_->index.find(n);
    if (it != impl_->index.end()) {
      impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
      ++impl_->hits;
      return it->second->second;
    }
    auto in_flight = impl_->building.find(n);
    if (in_flight != impl_->building.end()) {
      // Another thread is constructing this size right now: block on its
      // future instead of building a duplicate. The wait happens outside
      // this scope — the builder needs the mutex to publish its result.
      ++impl_->miss_waits;
      wait_on = in_flight->second->future;
    } else {
      build = std::make_shared<Impl::Build>();
      build->future = build->promise.get_future().share();
      impl_->building.emplace(n, build);
    }
  }
  if (wait_on.valid()) return wait_on.get();
  // Construct outside the lock: plan construction can recurse into the
  // cache (Bluestein's power-of-two sub-plan, the real-path half plan) and
  // may take milliseconds for large N. The `building` slot guarantees this
  // thread is the only one constructing size n.
  std::shared_ptr<const FftPlan> plan;
  try {
    plan = std::make_shared<const FftPlan>(n);
  } catch (...) {
    {
      const ftio::util::LockGuard lock(impl_->mutex);
      impl_->building.erase(n);
    }
    build->promise.set_exception(std::current_exception());
    throw;
  }
  {
    const ftio::util::LockGuard lock(impl_->mutex);
    ++impl_->misses;
    impl_->lru.emplace_front(n, plan);
    impl_->index[n] = impl_->lru.begin();
    impl_->building.erase(n);
    impl_->evict_to_capacity_locked();
  }
  build->promise.set_value(plan);
  return plan;
}

PlanCache::Stats PlanCache::stats() const {
  const ftio::util::LockGuard lock(impl_->mutex);
  Stats s;
  s.hits = impl_->hits;
  s.misses = impl_->misses;
  s.miss_waits = impl_->miss_waits;
  s.evictions = impl_->evictions;
  s.size = impl_->lru.size();
  return s;
}

std::size_t PlanCache::capacity() const {
  const ftio::util::LockGuard lock(impl_->mutex);
  return impl_->capacity;
}

void PlanCache::set_capacity(std::size_t capacity) {
  const ftio::util::LockGuard lock(impl_->mutex);
  impl_->capacity = capacity == 0 ? 1 : capacity;
  impl_->evict_to_capacity_locked();
}

void PlanCache::clear() {
  const ftio::util::LockGuard lock(impl_->mutex);
  impl_->lru.clear();
  impl_->index.clear();
  impl_->hits = 0;
  impl_->misses = 0;
  impl_->miss_waits = 0;
  impl_->evictions = 0;
}

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const FftPlan> get_plan(std::size_t n) {
  return plan_cache().get(n);
}

// ---------------------------------------------------------------------------
// detail: reference kernels (scalar radix-2, PR 3 fused radix-4)
// ---------------------------------------------------------------------------

namespace detail {

Radix2Tables::Radix2Tables(std::size_t n) {
  ftio::util::expect(is_power_of_two(n), "Radix2Tables: n must be 2^k");
  bitrev = build_bitrev(n);
  twiddle.resize(n / 2);
  for (std::size_t j = 0; j < n / 2; ++j) twiddle[j] = unit_root(j, n);
}

namespace {

template <bool Invert>
void radix2_core(std::span<Complex> a,
                 const std::vector<std::uint32_t>& bitrev,
                 const std::vector<Complex>& twiddle) {
  const std::size_t n = a.size();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev[i];
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    const Complex u = a[i];
    const Complex v = a[i + 1];
    a[i] = u + v;
    a[i + 1] = u - v;
  }
  for (std::size_t len = 4; len <= n; len <<= 1) {
    const std::size_t stride = n / len;  // twiddle table stride
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        Complex w = twiddle[j * stride];
        if constexpr (Invert) w = std::conj(w);
        const Complex u = a[i + j];
        const Complex v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
      }
    }
  }
}

}  // namespace

void radix2_scalar(std::span<Complex> a, const Radix2Tables& tables,
                   bool invert) {
  ftio::util::expect(a.size() == tables.bitrev.size() || a.size() <= 1,
                     "radix2_scalar: size mismatch");
  if (a.size() < 2) return;
  if (invert) {
    radix2_core<true>(a, tables.bitrev, tables.twiddle);
  } else {
    radix2_core<false>(a, tables.bitrev, tables.twiddle);
  }
}

Radix4Tables::Radix4Tables(std::size_t size) : n(size) {
  ftio::util::expect(is_power_of_two(n) && n >= 2,
                     "Radix4Tables: n must be 2^k >= 2");
  bitrev = build_bitrev(n);
  // Butterfly schedule: stages of length 2, 4, ..., N fused in pairs
  // into radix-4 passes. An odd stage count leaves the trivial
  // twiddle-free length-2 stage as a radix-2 lead; an even count starts
  // with the equally twiddle-free fused (2,4) pass.
  unsigned k = 0;
  while ((std::size_t{1} << k) < n) ++k;
  std::size_t stage = 1;  // next unfused stage s (length 2^s)
  if (k % 2 == 1) {
    lead_radix2 = true;
    stage = 2;
  } else {
    lead_radix4 = true;
    stage = 3;
  }
  for (; stage + 1 <= k; stage += 2) {
    const std::size_t len = std::size_t{1} << stage;  // fuse (len, 2*len)
    Pass pass;
    pass.half = len / 2;
    pass.w1re.resize(pass.half);
    pass.w1im.resize(pass.half);
    pass.w2re.resize(pass.half);
    pass.w2im.resize(pass.half);
    for (std::size_t j = 0; j < pass.half; ++j) {
      const Complex w1 = unit_root(j, len);
      const Complex w2 = unit_root(j, 2 * len);
      pass.w1re[j] = w1.real();
      pass.w1im[j] = w1.imag();
      pass.w2re[j] = w2.real();
      pass.w2im[j] = w2.imag();
    }
    passes.push_back(std::move(pass));
  }
}

namespace {

template <bool Inv>
void radix4_core(double* re, double* im, const Radix4Tables& t) {
  const std::size_t n = t.n;
  if (t.lead_radix2) {
    // Stage of length 2: every twiddle is 1.
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      const double ar = re[i], ai = im[i];
      const double br = re[i + 1], bi = im[i + 1];
      re[i] = ar + br;
      im[i] = ai + bi;
      re[i + 1] = ar - br;
      im[i + 1] = ai - bi;
    }
  } else if (t.lead_radix4) {
    // Fused stages (2, 4): plain 4-point DFTs, no twiddle loads.
    for (std::size_t i = 0; i + 3 < n; i += 4) {
      const double ar = re[i], ai = im[i];
      const double br = re[i + 1], bi = im[i + 1];
      const double cr = re[i + 2], ci = im[i + 2];
      const double dr = re[i + 3], di = im[i + 3];
      const double t0r = ar + br, t0i = ai + bi;
      const double t1r = ar - br, t1i = ai - bi;
      const double t2r = cr + dr, t2i = ci + di;
      const double t3r = cr - dr, t3i = ci - di;
      re[i] = t0r + t2r;
      im[i] = t0i + t2i;
      re[i + 2] = t0r - t2r;
      im[i + 2] = t0i - t2i;
      if constexpr (Inv) {
        re[i + 1] = t1r - t3i;
        im[i + 1] = t1i + t3r;
        re[i + 3] = t1r + t3i;
        im[i + 3] = t1i - t3r;
      } else {
        re[i + 1] = t1r + t3i;
        im[i + 1] = t1i - t3r;
        re[i + 3] = t1r - t3i;
        im[i + 3] = t1i + t3r;
      }
    }
  }
  // Generic fused passes: stage pair (L, 2L) as one radix-4 sweep over
  // blocks of 2L. Within a block the four quarters are contiguous, so
  // the j loop below is pure stride-1 double arithmetic over disjoint
  // lanes.
  for (const auto& pass : t.passes) {
    const std::size_t half = pass.half;  // L/2
    const std::size_t block = 4 * half;  // 2L
    const double* __restrict w1r = pass.w1re.data();
    const double* __restrict w1i = pass.w1im.data();
    const double* __restrict w2r = pass.w2re.data();
    const double* __restrict w2i = pass.w2im.data();
    for (std::size_t i = 0; i < n; i += block) {
      double* __restrict re0 = re + i;
      double* __restrict im0 = im + i;
      double* __restrict re1 = re0 + half;
      double* __restrict im1 = im0 + half;
      double* __restrict re2 = re0 + 2 * half;
      double* __restrict im2 = im0 + 2 * half;
      double* __restrict re3 = re0 + 3 * half;
      double* __restrict im3 = im0 + 3 * half;
      for (std::size_t j = 0; j < half; ++j) {
        const double w1rj = w1r[j];
        const double w1ij = Inv ? -w1i[j] : w1i[j];
        const double w2rj = w2r[j];
        const double w2ij = Inv ? -w2i[j] : w2i[j];
        // Stage L: butterflies (0,1) and (2,3) with twiddle w1.
        const double br = w1rj * re1[j] - w1ij * im1[j];
        const double bi = w1rj * im1[j] + w1ij * re1[j];
        const double dr = w1rj * re3[j] - w1ij * im3[j];
        const double di = w1rj * im3[j] + w1ij * re3[j];
        const double t0r = re0[j] + br, t0i = im0[j] + bi;
        const double t1r = re0[j] - br, t1i = im0[j] - bi;
        const double t2r = re2[j] + dr, t2i = im2[j] + di;
        const double t3r = re2[j] - dr, t3i = im2[j] - di;
        // Stage 2L: butterflies (0,2) with w2 and (1,3) with -i*w2
        // (+i*w2 for the inverse) — the -i is folded into the output
        // shuffle instead of a third twiddle table.
        const double u2r = w2rj * t2r - w2ij * t2i;
        const double u2i = w2rj * t2i + w2ij * t2r;
        const double u3r = w2rj * t3r - w2ij * t3i;
        const double u3i = w2rj * t3i + w2ij * t3r;
        re0[j] = t0r + u2r;
        im0[j] = t0i + u2i;
        re2[j] = t0r - u2r;
        im2[j] = t0i - u2i;
        if constexpr (Inv) {
          re1[j] = t1r - u3i;
          im1[j] = t1i + u3r;
          re3[j] = t1r + u3i;
          im3[j] = t1i - u3r;
        } else {
          re1[j] = t1r + u3i;
          im1[j] = t1i - u3r;
          re3[j] = t1r - u3i;
          im3[j] = t1i + u3r;
        }
      }
    }
  }
}

}  // namespace

void radix4_planar(double* re, double* im, const Radix4Tables& tables,
                   bool invert) {
  if (invert) {
    radix4_core<true>(re, im, tables);
  } else {
    radix4_core<false>(re, im, tables);
  }
}

}  // namespace detail

}  // namespace ftio::signal
