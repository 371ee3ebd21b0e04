#include "signal/plan.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>
#include <numbers>
#include <utility>

#include "util/annotated.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ftio::signal {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// The aliasing contract of forward_planar/inverse_planar: an input lane
/// and an output lane must either be the same array (full alias, the
/// documented in-place form) or not overlap at all. Partial overlap
/// silently corrupts the permuted gather, so Debug/sanitizer builds
/// reject it instead of producing a plausible wrong spectrum.
inline bool alias_full_or_disjoint(const double* in, const double* out,
                                   std::size_t n) {
  if (in == out) return true;
  return in + n <= out || out + n <= in;
}

/// exp(-2*pi*i*k/n) with the quarter-period points snapped to their exact
/// values. sin(pi) rounds to ~1.22e-16 rather than 0, and that residue
/// multiplied into a nonzero bin turns an exactly-zero spectrum line into
/// noise (visible on constant signals, whose off-DC bins cancel exactly).
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
///             spectrum
///   re2/im2 — the copy that makes in-place power-of-two planar calls
///             alias-safe, and the linearised pairs/fold of the blocked
///             real paths
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
/// stride-1 lanes — the shape auto-vectorisers handle. The quarter lanes
/// arrive as separate __restrict parameters: GCC honours restrict on
/// parameters but not on locals derived from one base pointer, and
/// without it the twelve streams need more run-time alias checks than
/// the vectoriser will emit, so the loop would run scalar.
template <bool Inv>
void split_combine_lanes(double* __restrict ur, double* __restrict ui,
                         double* __restrict vr, double* __restrict vi,
                         double* __restrict zr, double* __restrict zi,
                         double* __restrict sr, double* __restrict si,
                         std::size_t quarter, const double* __restrict w1r,
                         const double* __restrict w1i,
                         const double* __restrict w3r,
                         const double* __restrict w3i) {
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

/// split_combine_lanes over the L-long block rooted at re/im.
template <bool Inv>
void split_combine(double* re, double* im, std::size_t quarter,
                   const double* w1re, const double* w1im,
                   const double* w3re, const double* w3im) {
  split_combine_lanes<Inv>(re, im, re + quarter, im + quarter,
                           re + 2 * quarter, im + 2 * quarter,
                           re + 3 * quarter, im + 3 * quarter, quarter, w1re,
                           w1im, w3re, w3im);
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
    rtw_re_.resize(n_ / 2 + 1);
    rtw_im_.resize(n_ / 2 + 1);
    for (std::size_t k = 0; k <= n_ / 2; ++k) {
      const Complex w = unit_root(k, n_);
      rtw_re_[k] = w.real();
      rtw_im_[k] = w.imag();
    }
  });
}

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

  // a_k = x_k * w_k, zero-padded to m.
  for (std::size_t k = 0; k < n_; ++k) {
    const double xr = in_re[k];
    const double xi = in_im == nullptr ? 0.0 : in_im[k];
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

  // X_k = (conv_k / m) * w_k.
  const double scale = 1.0 / static_cast<double>(m_);
  for (std::size_t k = 0; k < bins; ++k) {
    const double ar = tr[k] * scale;
    const double ai = ti[k] * scale;
    out_re[k] = ar * wr[k] - ai * wi[k];
    out_im[k] = ar * wi[k] + ai * wr[k];
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
    bluestein(in_re.data(), in_im.data(), out_re.data(), out_im.data(),
              n_);
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
  ftio::util::expect(pow2_,
                     "FftPlan::inverse_planar: size must be a power of two");
  FTIO_CONTRACT(alias_full_or_disjoint(in_re.data(), out_re.data(), n_) &&
                    alias_full_or_disjoint(in_im.data(), out_im.data(), n_),
                "planar lanes must fully alias or not overlap");
  if (n_ == 1) {
    out_re[0] = in_re[0];
    out_im[0] = in_im[0];
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
    bluestein(in.data(), nullptr, out_re.data(), out_im.data(), n_ / 2 + 1);
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
  } else if (!half_->pow2_) {
    for (std::size_t j = 0; j < h; ++j) {
      re[j] = in[2 * j];
      im[j] = in[2 * j + 1];
    }
    half_->bluestein(re, im, re, im, h);
  } else {
    const std::uint32_t* bp = half_->bitrev_.data();
    if (h >= detail::kBlockedBitrevMinN) {
      // Large N: deinterleave in linear order, then run the cache-blocked
      // permutation — two streaming passes instead of one scattered one
      // (the mirror of the inverse path's linearised fold).
      ws.re2.resize(h);
      ws.im2.resize(h);
      for (std::size_t j = 0; j < h; ++j) {
        ws.re2[j] = in[2 * j];
        ws.im2[j] = in[2 * j + 1];
      }
      detail::bitrev_permute_planar(bp, h, ws.re2.data(), ws.im2.data(), re,
                                    im);
    } else {
      // Gather the real pairs straight into bit-reversed split-radix lanes.
      for (std::size_t i = 0; i < h; ++i) {
        const std::size_t s = 2 * static_cast<std::size_t>(bp[i]);
        re[i] = in[s];
        im[i] = in[s + 1];
      }
    }
    half_->split_passes(re, im, /*invert=*/false);
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
  ftio::util::expect(
      pow2_, "FftPlan::inverse_real_half_planar: size must be a power of two");
  if (n_ == 1) {
    out[0] = in_re[0];
    return;
  }

  // Fold the half spectrum back into the N/2-point packed signal
  // Z_k = E_k + i*O_k (E/O the even/odd-sample spectra, O recovered with
  // the conjugate unpack twiddle), inverse-transform it, and deinterleave
  // z_j = x[2j] + i*x[2j+1]. DC and Nyquist imaginary parts are forced to
  // zero — a real signal cannot produce them.
  ensure_real_tables();
  auto& ws = workspace();
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
  ws.re.resize(h);
  ws.im.resize(h);
  double* re = ws.re.data();
  double* im = ws.im.data();
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
    double* zr = ws.re2.data();
    double* zi = ws.im2.data();
    zr[0] = z0.r;
    zi[0] = z0.i;
    for (std::size_t k = 1; k < h; ++k) {
      const Z z = z_at(k);
      zr[k] = z.r;
      zi[k] = z.i;
    }
    detail::bitrev_permute_planar(half_->bitrev_.data(), h, zr, zi, re, im);
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
// get_plan: the process-wide plan cache
// ---------------------------------------------------------------------------

namespace {

/// One resident plan, stamped with the lookup count at its last use.
struct PlanSlot {
  std::size_t n;
  std::shared_ptr<const FftPlan> plan;
  std::uint64_t last_use;
};

struct PlanSlots {
  ftio::util::Mutex mutex;
  std::vector<PlanSlot> slots FTIO_GUARDED_BY(mutex);
  std::uint64_t uses FTIO_GUARDED_BY(mutex) = 0;

  /// Counts a lookup of n: stamps and returns its resident plan, or
  /// returns null when n is not resident.
  std::shared_ptr<const FftPlan> touch(std::size_t n) FTIO_REQUIRES(mutex) {
    const std::uint64_t now = ++uses;
    for (auto& slot : slots) {
      if (slot.n == n) {
        slot.last_use = now;
        return slot.plan;
      }
    }
    return nullptr;
  }
};

}  // namespace

std::shared_ptr<const FftPlan> get_plan(std::size_t n) {
  static PlanSlots cache;
  {
    const ftio::util::LockGuard lock(cache.mutex);
    if (auto plan = cache.touch(n)) return plan;
  }
  // Miss: build outside the lock, so a large build never stalls other
  // threads' lookups. Threads that miss on the same n at once each build;
  // the first to publish wins and the others adopt its plan, so callers
  // share one plan per resident size.
  auto plan = std::make_shared<const FftPlan>(n);
  const ftio::util::LockGuard lock(cache.mutex);
  if (auto resident = cache.touch(n)) return resident;
  if (cache.slots.size() < kPlanCacheSlots) {
    cache.slots.push_back({n, plan, cache.uses});
  } else {
    const auto oldest = std::min_element(
        cache.slots.begin(), cache.slots.end(),
        [](const PlanSlot& a, const PlanSlot& b) {
          return a.last_use < b.last_use;
        });
    *oldest = {n, plan, cache.uses};
  }
  return plan;
}

// ---------------------------------------------------------------------------
// detail: the scalar radix-2 reference kernel
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

}  // namespace detail

}  // namespace ftio::signal
