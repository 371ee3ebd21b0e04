#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "signal/fft.hpp"

namespace ftio::signal {

/// Precomputed transform state for one size N. A plan owns every table the
/// transform needs — the bit-reversal permutation, the split-radix stage
/// schedule and its per-stage twiddle pairs for the power-of-two path, the
/// chirp and its precomputed kernel spectrum for the Bluestein path (every
/// other N: a length-N chirp-z convolution run through a power-of-two
/// sub-plan of size next_pow2(2N-1)), and (for
/// even N) a half-size sub-plan plus the unpack twiddles that make the
/// real-input fast path possible. Plans are immutable after construction
/// and therefore safe to share across threads; mutable scratch lives in
/// per-thread workspaces inside the execution functions.
///
/// The power-of-two core is a split-radix (radix-2/4 mixed) decomposition
/// over deinterleaved (planar) real/imag double arrays: each size-L node
/// combines one L/2 sub-transform of the even samples with two L/4
/// sub-transforms of the odd samples using the conjugate twiddle pair
/// (w^k, w^{3k}) — about a third fewer real multiplies than a uniform
/// fused-radix-4 schedule. Input is permuted into bit-reversed order up
/// front; above detail::kBlockedBitrevMinN the permutation runs
/// cache-blocked (COBRA-style 32x32 tiles) so large transforms stop
/// thrashing on the scattered gather, and the butterfly
/// schedule itself recurses depth-first above detail::kSplitRadixLeafLen
/// so every subtree that fits in cache is finished before the next one is
/// touched. The hot loops are contiguous stride-1 double arithmetic with
/// no std::complex calls, which GCC and Clang auto-vectorise (SSE2
/// baseline, AVX2 with -march=x86-64-v3 — see the FTIO_X86_64_V3 CMake
/// option).
///
/// Layout contract: a split-complex signal is a pair of equal-length
/// double arrays re[]/im[] owned by the caller; element k of the logical
/// complex signal is (re[k], im[k]). Split lanes are the only complex
/// representation inside a plan — every entry point, the Bluestein
/// convolution included, reads and writes such arrays, and no interleaved
/// std::complex buffer is formed anywhere. The one interleaved adapter
/// is the `fft`/`ifft` pair in signal/fft.hpp, which deinterleaves into
/// lanes, runs the planar transform and interleaves the result.
///
/// Most callers should not construct plans directly but go through
/// `get_plan()` (or `fft`/`ifft`, which do so internally). Direct
/// construction is the "cold path": it deliberately pays the full
/// table-building cost per call, which is what the pre-plan-cache
/// implementation paid on every transform — `bench/micro_fft.cpp` uses
/// it as the baseline.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// Forward DFT out_k = sum_n in_n exp(-2*pi*i*k*n/N) of a planar
  /// split-complex signal: reads re/im lanes of length size(), writes the
  /// spectrum into the caller-owned out lanes. out may fully alias in
  /// (in-place); partial overlap is undefined.
  void forward_planar(std::span<const double> in_re,
                      std::span<const double> in_im,
                      std::span<double> out_re,
                      std::span<double> out_im) const;

  /// Inverse DFT on planar lanes, including the 1/N normalisation.
  /// Aliasing rules as forward_planar.
  void inverse_planar(std::span<const double> in_re,
                      std::span<const double> in_im,
                      std::span<double> out_re,
                      std::span<double> out_im) const;

  // -------------------------------------------------------------------------
  // Batched planar execution. A batch is B planar signals stored as rows
  // of one re lane and one im lane: row b's re lane starts at
  // re[b * stride] (stride >= row length, so rows may be padded apart).
  // Rows execute in small interleaved groups, stage-major: each
  // split-radix pass runs across every row of the group before the next
  // pass starts, so each twiddle stream is loaded once per stage instead
  // of once per signal, and every butterfly loop — including the short
  // L=8/16 combines whose 2-4 iteration inner loops run scalar in the
  // single-signal core — executes as explicit SIMD over the
  // group-widened index space (with a runtime-dispatched x86-64-v3 clone
  // on AVX2 hosts). The bit-reversal gather is fused into the (2,4) base
  // pass, and above detail::kBatchLeafElems the stages recurse
  // depth-first so sub-blocks stay L1-resident. Row b of a batch call is
  // bit-identical to the corresponding single-signal call on row b, for
  // every batch size and group split.
  // -------------------------------------------------------------------------

  /// Batched forward DFT over `batch` planar rows of length size() spaced
  /// `stride` doubles apart. The out lanes may fully alias the in lanes
  /// (same bases and stride); partial overlap is undefined.
  void forward_planar_batch(std::size_t batch, std::size_t stride,
                            std::span<const double> in_re,
                            std::span<const double> in_im,
                            std::span<double> out_re,
                            std::span<double> out_im) const;

  /// Batched inverse DFT (1/N normalisation included); layout and aliasing
  /// rules as forward_planar_batch.
  void inverse_planar_batch(std::size_t batch, std::size_t stride,
                            std::span<const double> in_re,
                            std::span<const double> in_im,
                            std::span<double> out_re,
                            std::span<double> out_im) const;

  /// Batched packed single-sided real transform: `batch` real rows of
  /// length size() spaced `in_stride` apart, producing half-spectrum rows
  /// of size()/2 + 1 bins spaced `out_stride` apart in the out lanes.
  /// Row b is bit-identical to forward_real_half_planar on row b.
  void rfft_half_planar_batch_into(std::size_t batch, std::size_t in_stride,
                                   std::span<const double> in,
                                   std::size_t out_stride,
                                   std::span<double> out_re,
                                   std::span<double> out_im) const;

  /// Batched inverse of rfft_half_planar_batch_into: half-spectrum rows of
  /// size()/2 + 1 bins spaced `in_stride` apart reconstruct real rows of
  /// length size() spaced `out_stride` apart (1/N normalisation included).
  void irfft_half_planar_batch_into(std::size_t batch, std::size_t in_stride,
                                    std::span<const double> in_re,
                                    std::span<const double> in_im,
                                    std::size_t out_stride,
                                    std::span<double> out) const;

  /// Rows per cache-resident batch tile for this plan: the largest tile
  /// whose transposed working set (tile x transform length x two lanes)
  /// stays within detail::kBatchTileBytes. Callers fanning a large batch
  /// across threads should split it into chunks of this many rows so each
  /// worker executes whole tiles. `real_input` selects the packed real
  /// path, whose internal transform runs at size()/2.
  std::size_t batch_tile_rows(bool real_input) const;

  /// Packed single-sided transform of a real signal into caller-owned
  /// re/im lanes of length size()/2 + 1: only the N/2+1 non-redundant
  /// bins (k in [0, N/2]) are computed; the conjugate-symmetric upper half
  /// is never formed. Even N runs as one half-size complex transform
  /// (N real -> N/2 complex + O(N) unpack), packed straight into the
  /// split-radix lanes when N/2 is a power of two; odd N runs the complex
  /// Bluestein transform on the real lane and keeps the first half.
  void forward_real_half_planar(std::span<const double> in,
                                std::span<double> out_re,
                                std::span<double> out_im) const;

  /// Inverse of forward_real_half_planar: reconstructs the N real samples
  /// from the packed half spectrum in re/im lanes of length size()/2 + 1
  /// (which must be the transform of a real signal: in_im[0] and, for
  /// even N, in_im[N/2] are ignored). Includes the 1/N normalisation.
  void inverse_real_half_planar(std::span<const double> in_re,
                                std::span<const double> in_im,
                                std::span<double> out) const;

  /// Forces construction of the lazily built tables so that subsequent
  /// transforms on worker threads find everything resident: the Bluestein
  /// state for complex transforms, plus (with for_real_input and even N)
  /// the half-size sub-plan and unpack twiddles. Thread-safe.
  void prepare(bool for_real_input) const;

 private:
  /// One split-radix combine stage of length L >= 8: a size-L node merges
  /// U = FFT_{L/2}(even) with Z/Z' = FFT_{L/4}(x[4n+1]) / FFT_{L/4}
  /// (x[4n+3]) through the twiddle pair (w^k, w^{3k}), k < L/4. Twiddles
  /// are stored split and contiguous so the inner loop is pure stride-1
  /// double math.
  struct SplitStage {
    std::size_t len = 0;            ///< L; quarter = L/4 butterflies/node
    std::vector<double> w1re, w1im; ///< exp(-2*pi*i*k/L),   k < L/4
    std::vector<double> w3re, w3im; ///< exp(-2*pi*i*3k/L),  k < L/4
  };

  /// Unscaled power-of-two transform of planar lanes: the bit-reversal
  /// gather into the out lanes (staged through scratch when in-place),
  /// then split_passes.
  void pow2_planar(std::span<const double> in_re,
                   std::span<const double> in_im, std::span<double> out_re,
                   std::span<double> out_im, bool invert) const;
  /// Runs the split-radix schedule over bit-reverse-permuted planar
  /// arrays: the fused (2,4) base pass, then the length-8..N combine
  /// stages, recursing depth-first above detail::kSplitRadixLeafLen.
  void split_passes(double* re, double* im, bool invert) const;
  template <bool Inv>
  void split_subtree(double* re, double* im, std::size_t len,
                     std::size_t pos) const;
  template <bool Inv>
  void split_iterative(double* re, double* im, std::size_t len,
                       std::size_t pos) const;
  /// Runs the whole split-radix schedule stage-major over one interleaved
  /// batch group: element k of group row g lives at re[k * G + g] (G the
  /// fixed internal group width). The group working set is cache-resident
  /// whenever batching is engaged (batch_tile_rows > 1), so every pass
  /// sweeps all rows before the next with no depth-first recursion.
  template <bool Inv>
  void split_passes_batch(double* re, double* im) const;
  /// The combine stages of split_passes_batch alone (lengths 8..N), for
  /// callers that already ran the base pass fused with their gather.
  template <bool Inv>
  void split_stages_batch(double* re, double* im) const;
  template <bool Inv>
  void split_subtree_batch(double* re, double* im, std::size_t len,
                           std::size_t pos) const;
  /// Builds the group-duplicated twiddle tables on first batched use.
  void ensure_batch_tables() const;
  template <bool Inv>
  void planar_batch_group(std::size_t stride, const double* in_re,
                          const double* in_im, double* out_re,
                          double* out_im) const;
  void rfft_half_batch_group(std::size_t in_stride, const double* in,
                             std::size_t out_stride, double* out_re,
                             double* out_im) const;
  void irfft_half_batch_group(std::size_t in_stride, const double* in_re,
                              const double* in_im, std::size_t out_stride,
                              double* out) const;
  /// Bluestein chirp-z DFT of the length-size() planar signal in_re/in_im
  /// (in_im == nullptr reads an all-zero imaginary lane), writing bins
  /// [0, bins) to out_re/out_im. Inv computes conj(B(conj x)) / N, the
  /// normalised inverse. The out lanes may fully alias the in lanes: the
  /// input is consumed before the first output write.
  template <bool Inv>
  void bluestein(const double* in_re, const double* in_im, double* out_re,
                 double* out_im, std::size_t bins) const;
  void ensure_bluestein_tables() const;
  void ensure_real_tables() const;

  std::size_t n_ = 0;
  bool pow2_ = false;

  // Split-radix tables (power-of-two N only).
  std::vector<std::uint32_t> bitrev_;  ///< permutation, size N
  /// Per-4-block leaf schedule for the fused (2,4) base pass: 1 when the
  /// block holds a size-4 node of the split-radix tree (full 4-point
  /// DFT), 0 when it holds two independent size-2 nodes (two radix-2
  /// butterflies). Every aligned 4-block is exactly one of the two.
  std::vector<std::uint8_t> base4_;
  std::vector<SplitStage> stages_;  ///< lengths 8, 16, ..., N

  // Batched-execution tables: the combine-stage twiddles duplicated
  // group-wise (entry k repeated once per group row) so the interleaved
  // batch kernels keep contiguous twiddle streams. Built lazily on the
  // first batched call — per-signal transforms never touch them.
  mutable std::once_flag batch_once_;
  mutable std::vector<SplitStage> batch_stages_;

  // Bluestein tables (non power-of-two N only). Built lazily on the
  // first complex transform: an even non-pow2 plan that only ever serves
  // real input never touches them, and they are the expensive part
  // (a next_pow2(2N-1) sub-plan plus an FFT of the chirp).
  std::size_t m_ = 0;  ///< pow2 convolution size >= 2N-1
  mutable std::once_flag bluestein_once_;
  mutable std::vector<double> chirp_re_;  ///< Re exp(-i*pi*k^2/N), k < N
  mutable std::vector<double> chirp_im_;  ///< Im exp(-i*pi*k^2/N), k < N
  mutable std::vector<double> bhat_re_;   ///< Re FFT_m of the wrapped
  mutable std::vector<double> bhat_im_;   ///< Im   conjugate chirp
  mutable std::shared_ptr<const FftPlan> sub_;  ///< pow2 plan for m

  // Real-input fast path (even N only). Built lazily on the first
  // real-input call — eager construction would
  // recursively drag a half-plan chain (N/2, N/4, ...) into the cache for
  // plans that only ever run complex transforms (e.g. Bluestein
  // sub-plans).
  mutable std::once_flag real_once_;
  mutable std::shared_ptr<const FftPlan> half_;  ///< cached plan for N/2
  mutable std::vector<double> rtw_re_;  ///< Re exp(-2*pi*i*k/N), k <= N/2
  mutable std::vector<double> rtw_im_;  ///< Im exp(-2*pi*i*k/N), k <= N/2
};

/// Thread-safe LRU cache of FftPlans keyed by N. One global instance (see
/// plan_cache()) backs get_plan() and the fft/ifft adapters so that repeated
/// transforms of the same size reuse tables instead of recomputing them.
class PlanCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit PlanCache(std::size_t capacity = kDefaultCapacity);
  ~PlanCache();
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the plan for size n, constructing and caching it on a miss.
  /// Concurrent lookups of the same absent size build the plan exactly
  /// once: the first caller constructs, the rest block on the in-flight
  /// build (counted as miss_waits, not hits) and share the result. The
  /// returned handle stays valid after eviction (shared ownership), so
  /// worker threads can hold a per-thread handle across a whole batch.
  std::shared_ptr<const FftPlan> get(std::size_t n);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;    ///< lookups that constructed the plan
    std::uint64_t miss_waits = 0;///< lookups that blocked on another
                                 ///  thread's in-flight construction
    std::uint64_t evictions = 0;
    std::size_t size = 0;        ///< plans currently resident
  };
  Stats stats() const;

  std::size_t capacity() const;
  /// Resizes the cache, evicting least-recently-used plans if needed.
  void set_capacity(std::size_t capacity);
  /// Drops every cached plan and resets the stats counters. Builds that
  /// are in flight when clear() runs cannot be cancelled: they publish
  /// into the emptied cache when they finish (one post-clear miss each).
  void clear();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-wide plan cache behind get_plan().
PlanCache& plan_cache();

/// Convenience: plan_cache().get(n).
std::shared_ptr<const FftPlan> get_plan(std::size_t n);

namespace detail {

/// The pre-radix-4 scalar kernel: interleaved std::complex radix-2
/// butterflies. Kept as an independently-implemented reference so tests
/// can pin the split-radix core against it on every power-of-two size,
/// and as the baseline bench/micro_fft.cpp measures speedups against.
struct Radix2Tables {
  explicit Radix2Tables(std::size_t n);  ///< n must be a power of two
  std::vector<std::uint32_t> bitrev;     ///< permutation, size n
  std::vector<Complex> twiddle;          ///< exp(-2*pi*i*j/n), j < n/2
};

/// In-place radix-2 transform of a (a.size() == tables size). No output
/// scaling: the inverse pass omits the 1/N factor.
void radix2_scalar(std::span<Complex> a, const Radix2Tables& tables,
                   bool invert);

/// Above this size the bit-reversal permutation runs cache-blocked
/// (COBRA-style 32x32 tiles: both the sequential and the permuted side
/// of every tile move through L1 instead of striding across the whole
/// array). Measured crossover on the 1-core container: the blocked form
/// is neutral-to-slightly-slower while the working set still fits L2 and
/// wins once the scattered side spills, from N = 2^17 on.
inline constexpr std::size_t kBlockedBitrevMinN = std::size_t{1} << 17;

/// Split-radix subtrees at or below this length execute as iterative
/// stage sweeps over the subtree's contiguous block; larger nodes recurse
/// depth-first so each half/quarter finishes while still cache-resident
/// (2 lanes * 8 B * 2^14 = 256 KiB working set per leaf).
inline constexpr std::size_t kSplitRadixLeafLen = std::size_t{1} << 14;

/// Working-set budget of one batch execution tile (two double lanes of
/// tile x N elements). batch_tile_rows derives the advertised tile from
/// it; plans whose per-row working set alone fills the budget fall back
/// to per-row execution (tile = 1), which is the cache-blocked recursive
/// single-signal core.
inline constexpr std::size_t kBatchTileBytes = std::size_t{1} << 19;

/// Interleaved group subtrees at or below this many elements (transform
/// length times the internal group width) run as iterative stage sweeps;
/// larger blocks recurse depth-first so each sub-block's two-lane working
/// set (16 B per element) finishes L1-resident before the parent combine
/// streams it once more.
inline constexpr std::size_t kBatchLeafElems = std::size_t{1} << 11;

/// out[i] = in[bitrev[i]] over planar lanes, cache-blocked above
/// kBlockedBitrevMinN. in and out must not alias. Because the
/// permutation is an involution this also implements the scatter
/// out[bitrev[i]] = in[i].
void bitrev_permute_planar(const std::uint32_t* bitrev, std::size_t n,
                           const double* in_re, const double* in_im,
                           double* out_re, double* out_im);

/// Deinterleaving gather: (out_re[i], out_im[i]) = pairs[2*bitrev[i] ..],
/// cache-blocked above kBlockedBitrevMinN. `pairs` is any array of 2n
/// doubles holding n (re, im) pairs, such as the even/odd packing of a
/// real signal.
void bitrev_permute_pairs(const std::uint32_t* bitrev, std::size_t n,
                          const double* pairs, double* out_re,
                          double* out_im);

}  // namespace detail

}  // namespace ftio::signal
