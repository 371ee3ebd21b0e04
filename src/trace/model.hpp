#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "signal/step_function.hpp"
#include "util/sliding_buffer.hpp"

namespace ftio::util {
class BinWriter;
class BinReader;
}  // namespace ftio::util

namespace ftio::trace {

/// Direction of an I/O request.
enum class IoKind { kWrite, kRead };

const char* io_kind_name(IoKind kind);

/// One traced I/O request, the unit TMIO records at rank level
/// (Sec. II-A: "metrics such as start time, end time, and transferred
/// bytes"). Times are seconds since application start.
struct IoRequest {
  int rank = 0;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t bytes = 0;
  IoKind kind = IoKind::kWrite;

  double duration() const { return end - start; }
  /// Average bandwidth of this single request in bytes/s.
  double bandwidth() const { return duration() > 0.0 ? static_cast<double>(bytes) / duration() : 0.0; }
};

/// The rank count that covers ranks 0..`rank`, i.e. `rank + 1` clamped
/// to INT_MAX: the decoders accept any int rank, and the highest one must
/// not overflow the count.
inline int rank_count_through(int rank) {
  return rank == std::numeric_limits<int>::max() ? rank : rank + 1;
}

/// A complete application trace: every request of every rank, plus the
/// metadata TMIO stores in its file header.
struct Trace {
  std::string app;      ///< application name, e.g. "ior"
  int rank_count = 0;   ///< number of MPI ranks (P)
  std::vector<IoRequest> requests;

  bool empty() const { return requests.empty(); }
  /// Earliest request start (0 when empty).
  double begin_time() const;
  /// Latest request end (0 when empty).
  double end_time() const;
  /// L(T): trace length from first start to last end.
  double duration() const { return end_time() - begin_time(); }
  /// V(T): total transferred bytes (optionally one direction only).
  std::uint64_t total_bytes(std::optional<IoKind> kind = std::nullopt) const;

  /// Requests of one direction, in a new trace.
  Trace filtered(IoKind kind) const;
  /// Requests overlapping [t0, t1], clipped to the window.
  Trace window(double t0, double t1) const;
  /// Sorts requests by (start, rank); ingestion leaves file order intact.
  void sort_by_start();
};

/// Options for building the application-level bandwidth signal.
struct BandwidthOptions {
  /// Only include requests of this direction (both when unset).
  std::optional<IoKind> kind;
  /// Restrict to requests overlapping [window_start, window_end].
  std::optional<double> window_start;
  std::optional<double> window_end;
};

/// One endpoint of the bandwidth event sweep: +bw at a request's start,
/// -bw at its end. Events are ordered by (time, delta) — the tie-break
/// makes the prefix sums, and therefore the floating-point rounding of
/// the resulting curve, independent of request ingestion order.
struct BandwidthEvent {
  double time = 0.0;
  double delta = 0.0;
};

/// Strict weak ordering of sweep events (time, then delta).
bool bandwidth_event_less(const BandwidthEvent& a, const BandwidthEvent& b);

/// Sorts sweep events into bandwidth_event_less order: one distribution
/// pass over ~n/4 time buckets, each finished by comparison, falling back
/// to std::sort for short inputs and degenerate time spans. Equal under
/// the comparator means equal time and delta, so the result matches
/// std::sort element-wise under ==. The one sort behind bandwidth_signal
/// and IncrementalBandwidth::extend.
void sort_bandwidth_events(std::span<BandwidthEvent> events);

/// Appends the sweep events of `requests` — filtered and window-clipped
/// per `options`, optionally restricted to one rank — to `events`.
/// Requests with zero duration or a non-finite rate contribute nothing.
/// Does not sort.
void append_bandwidth_events(std::span<const IoRequest> requests,
                             const BandwidthOptions& options,
                             std::optional<int> only_rank,
                             std::vector<BandwidthEvent>& events);

/// Builds the piecewise-constant curve from events sorted by
/// bandwidth_event_less. Shared by bandwidth_signal and the streaming
/// engine's IncrementalBandwidth so both produce bit-identical curves.
ftio::signal::StepFunction bandwidth_from_events(
    std::span<const BandwidthEvent> events);

/// Incrementally maintained bandwidth_signal: extend() merges the events
/// of a freshly flushed request chunk and re-sweeps only the curve suffix
/// the new events can affect, so a stream of appended flushes costs
/// O(chunk) each instead of O(total trace). curve() is bit-identical to
/// bandwidth_signal over the union of all extended requests (the sweep
/// restarts from the cached running level, replaying the exact summation
/// order a full rebuild would use).
class IncrementalBandwidth {
 public:
  explicit IncrementalBandwidth(BandwidthOptions options = {});

  /// Merges the chunk's events into the curve. A chunk that contributes
  /// no events (all filtered out) leaves the state unchanged.
  void extend(std::span<const IoRequest> requests);

  /// Evicts sweep events and curve segments strictly older than
  /// `horizon`, bounding the retained state to the curve suffix from the
  /// last boundary at or before `horizon` (the cut aligns down to a
  /// segment boundary, and at least one segment always remains). The
  /// retained boundaries, segment values, and cached sweep levels are
  /// preserved bit for bit, and the evicted prefix is folded into a base
  /// running level, so every later extend() — including one that dirties
  /// the entire retained range — re-sweeps to exactly the curve an
  /// uncompacted instance would hold over the retained support. Future
  /// chunks are clipped at the cut like a BandwidthOptions::window_start:
  /// requests wholly before it are dropped, spanning requests keep only
  /// their retained part. Returns the number of evicted events. The
  /// eviction itself is O(1) per buffer; reclaiming the dropped storage
  /// costs O(evicted) amortised over later extend() calls.
  std::size_t compact(double horizon);

  /// The eviction cut of the latest compact() call: times before it are
  /// evicted and incoming requests are clipped against it. Unset until
  /// compact() first evicts.
  std::optional<double> floor_time() const { return floor_; }

  const ftio::signal::StepFunction& curve() const { return curve_; }
  std::size_t event_count() const { return events_.size(); }

  /// Resident bytes of events, level cache, and curve (capacities).
  std::size_t memory_bytes() const;

  /// Appends the state the curve cannot be re-derived from — the
  /// retained sweep events, the folded base level, the eviction floor,
  /// and the window_start clip compact() commits into the options — to
  /// `out`. The curve and the per-boundary levels are not written:
  /// load_state re-sweeps them. load_state on an instance constructed
  /// with the *same* BandwidthOptions restores a bit-identical curve and
  /// sweep: every later extend()/compact() then evolves exactly like the
  /// original.
  void save_state(ftio::util::BinWriter& out) const;
  /// Restores state written by save_state and rebuilds the curve and the
  /// per-boundary levels with one left-to-right sweep of the events from
  /// the base level (the summation order extend() continues). Throws
  /// util::ParseError on truncated or corrupt input: unsorted events, a
  /// non-finite event time or delta, or a non-finite base level. The
  /// instance is unchanged on throw.
  void load_state(ftio::util::BinReader& in);

 private:
  BandwidthOptions options_;
  // compact() drops the front of these and of the curve's buffers in
  // O(1); the storage is reclaimed as later appends need room.
  /// Sorted by bandwidth_event_less.
  ftio::util::SlidingBuffer<BandwidthEvent> events_;
  /// Unclamped level per boundary.
  ftio::util::SlidingBuffer<double> raw_levels_;
  ftio::signal::StepFunction curve_;
  /// Running sweep level entering the first retained boundary: the sum of
  /// every evicted event's delta, replayed in original order. 0 until a
  /// compact() evicts.
  double base_level_ = 0.0;
  std::optional<double> floor_;
};

/// Computes the application-level bandwidth-over-time curve by overlapping
/// the per-rank requests (Sec. II-A: "The overlapping of the requests
/// (i.e., bandwidth at the application level) is evaluated ... with a
/// linear complexity with the number of I/O requests"). Each request
/// contributes bytes/duration uniformly over [start, end); contributions
/// add where requests overlap. The event sort is linear for spread-out
/// request times and O(R log R) at worst.
ftio::signal::StepFunction bandwidth_signal(const Trace& trace,
                                            const BandwidthOptions& options = {});

/// Bandwidth curve of a single rank (Sec. VI: per-process use cases).
ftio::signal::StepFunction rank_bandwidth_signal(const Trace& trace, int rank,
                                                 const BandwidthOptions& options = {});

}  // namespace ftio::trace
