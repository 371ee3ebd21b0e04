#include "trace/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "util/binio.hpp"
#include "util/error.hpp"

namespace ftio::trace {

const char* io_kind_name(IoKind kind) {
  return kind == IoKind::kWrite ? "write" : "read";
}

double Trace::begin_time() const {
  if (requests.empty()) return 0.0;
  double t = requests.front().start;
  for (const auto& r : requests) t = std::min(t, r.start);
  return t;
}

double Trace::end_time() const {
  if (requests.empty()) return 0.0;
  double t = requests.front().end;
  for (const auto& r : requests) t = std::max(t, r.end);
  return t;
}

std::uint64_t Trace::total_bytes(std::optional<IoKind> kind) const {
  std::uint64_t total = 0;
  for (const auto& r : requests) {
    if (!kind || r.kind == *kind) total += r.bytes;
  }
  return total;
}

Trace Trace::filtered(IoKind kind) const {
  Trace out;
  out.app = app;
  out.rank_count = rank_count;
  for (const auto& r : requests) {
    if (r.kind == kind) out.requests.push_back(r);
  }
  return out;
}

Trace Trace::window(double t0, double t1) const {
  ftio::util::expect(t1 > t0, "Trace::window: empty window");
  Trace out;
  out.app = app;
  out.rank_count = rank_count;
  for (const auto& r : requests) {
    if (r.end <= t0 || r.start >= t1) continue;
    IoRequest clipped = r;
    const double full = r.duration();
    clipped.start = std::max(r.start, t0);
    clipped.end = std::min(r.end, t1);
    if (full > 0.0) {
      // Scale bytes to the clipped fraction so bandwidth stays unchanged.
      const double frac = clipped.duration() / full;
      clipped.bytes = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(r.bytes) * frac));
    }
    out.requests.push_back(clipped);
  }
  return out;
}

void Trace::sort_by_start() {
  std::sort(requests.begin(), requests.end(),
            [](const IoRequest& a, const IoRequest& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.rank < b.rank;
            });
}

namespace {

/// Calls `emit(start, end, rate)` for each request of `requests` that
/// contributes sweep events: selected by `options` and `only_rank`, its
/// span clipped to the window, and skipped when the clipped span is empty
/// or the rate is not a positive finite number. The one filter rule of
/// both event builders. Every emitted time is finite: an infinite or NaN
/// endpoint leaves a zero or NaN rate.
template <typename Emit>
void for_each_swept_request(std::span<const IoRequest> requests,
                            const BandwidthOptions& options,
                            std::optional<int> only_rank, Emit&& emit) {
  for (const auto& r : requests) {
    if (only_rank && r.rank != *only_rank) continue;
    if (options.kind && r.kind != *options.kind) continue;
    if (options.window_start && r.end <= *options.window_start) continue;
    if (options.window_end && r.start >= *options.window_end) continue;
    double start = r.start;
    double end = r.end;
    if (options.window_start) start = std::max(start, *options.window_start);
    if (options.window_end) end = std::min(end, *options.window_end);
    if (end <= start) continue;
    const double bw = r.bandwidth();
    // A rate that overflows (bytes over a near-zero duration) would add
    // inf - inf = NaN to every later segment of the sweep.
    if (bw <= 0.0 || !std::isfinite(bw)) continue;
    emit(start, end, bw);
  }
}

/// Sweeps sorted events[from..), continuing the prefix sum from running
/// level `level`: appends one boundary per distinct event time to `times`
/// (with the unclamped level after its deltas to `raw_levels`, when
/// given), and the clamped segment value for every boundary except the
/// final one to `values`. The left-to-right accumulation order is exactly
/// the full sweep's, so restarting from a cached level reproduces the
/// full rebuild bit for bit. Returns the final running level.
double sweep_tail(std::span<const BandwidthEvent> events, std::size_t from,
                  double level, std::vector<double>& times,
                  std::vector<double>& values,
                  ftio::util::SlidingBuffer<double>* raw_levels) {
  std::size_t ev = from;
  while (ev < events.size()) {
    const double t = events[ev].time;
    while (ev < events.size() && events[ev].time == t) {
      level += events[ev].delta;
      ++ev;
    }
    times.push_back(t);
    if (raw_levels != nullptr) raw_levels->push_back(level);
    // The final boundary closes the support; it has no following segment.
    if (ev < events.size()) values.push_back(std::max(level, 0.0));
  }
  return level;
}

ftio::signal::StepFunction sweep(const Trace& trace,
                                 const BandwidthOptions& options,
                                 std::optional<int> only_rank) {
  // Event sweep: +bw at request start, -bw at request end; prefix-summing
  // the sorted events yields the piecewise-constant aggregate bandwidth.
  std::vector<BandwidthEvent> events;
  build_sorted_bandwidth_events(trace.requests, options, only_rank, events);
  return bandwidth_from_events(events);
}

/// Below this many events the bucket pass costs more than it saves.
constexpr std::size_t kMinBucketSortEvents = 64;
/// Ranges up to this size are finished by insertion sort.
constexpr std::size_t kInsertionSortMax = 16;

/// Insertion sort spends at most this many moves per event of a run
/// before the run falls back to sort_bandwidth_events. The need, on
/// start-ordered requests: the default semi-synthetic trace takes 0.07
/// moves per start event and 0.44 per end event (back-to-back requests of
/// unequal length), no online_steady flush takes more than 0.53, and
/// LAMMPS and HACC-IO take 0. The cost: a shuffled run spends the whole
/// budget before it falls back, ~1 ms on BM_BandwidthSweepShuffled's
/// 140,800 events, a quarter of the bucket sorts that follow (the cost
/// grows linearly with the budget).
constexpr std::size_t kRunMovesPerEvent = 4;

/// Insertion-sorts `run` under bandwidth_event_less, or gives up once more
/// than `budget` moves are spent and returns false. On either return the
/// run is a permutation of its input; a give-up overshoots the budget by
/// at most one insertion.
bool insertion_sort_within(std::span<BandwidthEvent> run,
                           std::size_t budget) {
  if (run.size() < 2) return true;
  BandwidthEvent* const first = run.data();
  BandwidthEvent* const last = first + run.size();
  std::size_t moves = 0;
  for (BandwidthEvent* it = first + 1; it < last; ++it) {
    if (!bandwidth_event_less(*it, it[-1])) continue;
    const BandwidthEvent e = *it;
    BandwidthEvent* hole = it;
    do {
      *hole = hole[-1];
      --hole;
    } while (hole > first && bandwidth_event_less(e, hole[-1]));
    *hole = e;
    moves += static_cast<std::size_t>(it - hole);
    if (moves > budget) return false;
  }
  return true;
}

/// Sorts one bucket, or a whole input not worth bucketing, by comparison.
void comparison_sort(BandwidthEvent* first, BandwidthEvent* last) {
  if (last - first > static_cast<std::ptrdiff_t>(kInsertionSortMax)) {
    std::sort(first, last, bandwidth_event_less);
    return;
  }
  insertion_sort_within({first, last},
                        std::numeric_limits<std::size_t>::max());
}

/// Sorts one run of build_sorted_bandwidth_events: by insertion while the
/// run is nearly sorted, by sort_bandwidth_events otherwise.
void sort_run(std::span<BandwidthEvent> run) {
  if (!insertion_sort_within(run, kRunMovesPerEvent * run.size())) {
    sort_bandwidth_events(run);
  }
}

}  // namespace

bool bandwidth_event_less(const BandwidthEvent& a, const BandwidthEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.delta < b.delta;
}

void sort_bandwidth_events(std::span<BandwidthEvent> events) {
  const std::size_t n = events.size();
  if (n < kMinBucketSortEvents) {
    comparison_sort(events.data(), events.data() + n);
    return;
  }
  double lo = events.front().time;
  double hi = lo;
  for (const auto& e : events) {
    lo = std::min(lo, e.time);
    hi = std::max(hi, e.time);
  }
  // A zero, subnormal, overflowing or NaN span leaves no usable scale
  // (and 0 * inf would be a NaN bucket index): sort by comparison.
  const std::size_t buckets = n / 4;
  const double span = hi - lo;
  const double scale = static_cast<double>(buckets) / span;
  if (!std::isfinite(span) || !std::isfinite(scale)) {
    comparison_sort(events.data(), events.data() + n);
    return;
  }
  // (time - lo) * scale never decreases as time increases, so bucket
  // order is time order and every tie under bandwidth_event_less lands in
  // one bucket: sorting each bucket yields exactly the comparator order.
  const double top = static_cast<double>(buckets - 1);
  const auto bucket_of = [&](double t) {
    const double x = (t - lo) * scale;
    return x < top ? static_cast<std::size_t>(x) : buckets - 1;
  };

  thread_local std::vector<std::size_t> offsets;
  thread_local std::vector<BandwidthEvent> scratch;
  offsets.assign(buckets + 1, 0);
  for (const auto& e : events) ++offsets[bucket_of(e.time) + 1];
  for (std::size_t b = 1; b <= buckets; ++b) offsets[b] += offsets[b - 1];
  scratch.resize(n);
  // offsets[b] runs from bucket b's start to its end while scattering,
  // then bucket b spans [offsets[b - 1], offsets[b]) (bucket 0 from 0).
  for (const auto& e : events) scratch[offsets[bucket_of(e.time)]++] = e;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t end = offsets[b];
    comparison_sort(scratch.data() + begin, scratch.data() + end);
    begin = end;
  }
  std::copy(scratch.begin(), scratch.end(), events.begin());
}

void append_bandwidth_events(std::span<const IoRequest> requests,
                             const BandwidthOptions& options,
                             std::optional<int> only_rank,
                             std::vector<BandwidthEvent>& events) {
  for_each_swept_request(requests, options, only_rank,
                         [&](double start, double end, double bw) {
                           events.push_back({start, bw});
                           events.push_back({end, -bw});
                         });
}

void build_sorted_bandwidth_events(std::span<const IoRequest> requests,
                                   const BandwidthOptions& options,
                                   std::optional<int> only_rank,
                                   std::vector<BandwidthEvent>& events) {
  thread_local std::vector<BandwidthEvent> starts;
  thread_local std::vector<BandwidthEvent> ends;
  starts.clear();
  ends.clear();
  for_each_swept_request(requests, options, only_rank,
                         [&](double start, double end, double bw) {
                           starts.push_back({start, bw});
                           ends.push_back({end, -bw});
                         });
  sort_run(starts);
  sort_run(ends);
  // Starts have positive deltas and ends negative ones, so no start ties
  // with an end: the merge is the comparator order of the union.
  events.resize(starts.size() + ends.size());
  std::merge(starts.begin(), starts.end(), ends.begin(), ends.end(),
             events.begin(), bandwidth_event_less);
}

ftio::signal::StepFunction bandwidth_from_events(
    std::span<const BandwidthEvent> events) {
  if (events.empty()) return {};
  // Distinct event times are the segment boundaries; the value of segment
  // [times[i], times[i+1]) is the running level after applying all deltas
  // at times[i].
  std::vector<double> times;
  times.reserve(events.size() + 1);
  std::vector<double> seg_values;
  seg_values.reserve(events.size());
  sweep_tail(events, 0, 0.0, times, seg_values, nullptr);
  return ftio::signal::StepFunction(std::move(times), std::move(seg_values));
}

IncrementalBandwidth::IncrementalBandwidth(BandwidthOptions options)
    : options_(std::move(options)) {}

void IncrementalBandwidth::extend(std::span<const IoRequest> requests) {
  thread_local std::vector<BandwidthEvent> fresh;
  build_sorted_bandwidth_events(requests, options_, std::nullopt, fresh);
  if (fresh.empty()) return;
  const double dirty = fresh.front().time;

  const std::size_t old_count = events_.size();
  events_.append(fresh);
  if (old_count > 0 &&
      bandwidth_event_less(events_[old_count], events_[old_count - 1])) {
    // Only a chunk reaching back into already-swept time needs the merge;
    // the dominant in-order flush is a pure append and stays O(chunk).
    std::inplace_merge(events_.begin(), events_.begin() + old_count,
                       events_.end(), bandwidth_event_less);
  }

  // Everything strictly before the earliest new event is untouched: keep
  // those boundaries (and the running level after the last of them), drop
  // the rest, and re-sweep from the first event at or after `dirty`.
  const auto boundaries = curve_.times();
  const std::size_t keep = static_cast<std::size_t>(
      std::lower_bound(boundaries.begin(), boundaries.end(), dirty) -
      boundaries.begin());
  const std::size_t from = static_cast<std::size_t>(
      std::lower_bound(events_.begin(), events_.end(), dirty,
                       [](const BandwidthEvent& e, double t) {
                         return e.time < t;
                       }) -
      events_.begin());
  const double level = keep > 0 ? raw_levels_[keep - 1] : base_level_;
  raw_levels_.resize(keep);

  thread_local std::vector<double> tail_times;
  thread_local std::vector<double> tail_values;
  tail_times.clear();
  tail_values.clear();
  if (keep == boundaries.size() && keep > 0) {
    // Pure append beyond the old support: the old final boundary becomes
    // interior, so emit its (previously unstored) segment value first —
    // the clamp of the cached level, exactly what a full sweep stores.
    tail_values.push_back(std::max(level, 0.0));
  }
  sweep_tail(events_, from, level, tail_times, tail_values, &raw_levels_);
  curve_.splice_tail(keep, tail_times, tail_values);
}

std::size_t IncrementalBandwidth::compact(double horizon) {
  if (curve_.empty()) return 0;
  const auto boundaries = curve_.times();
  if (horizon <= boundaries.front()) return 0;

  // Cut at the start of the segment containing `horizon` (aligning down
  // keeps the curve bit-identical at and after `horizon`), and always
  // keep at least one segment so the curve stays analysable.
  const auto it =
      std::upper_bound(boundaries.begin(), boundaries.end(), horizon);
  std::size_t cut = static_cast<std::size_t>(it - boundaries.begin()) - 1;
  cut = std::min(cut, curve_.segment_count() - 1);
  if (cut == 0) return 0;
  const double cut_time = boundaries[cut];

  // The running level entering the cut boundary replaces the evicted
  // event prefix: a later re-sweep of the whole retained range restarts
  // from it instead of from zero.
  base_level_ = raw_levels_[cut - 1];

  const auto first_kept = std::lower_bound(
      events_.begin(), events_.end(), cut_time,
      [](const BandwidthEvent& e, double t) { return e.time < t; });
  const auto evicted = static_cast<std::size_t>(first_kept - events_.begin());
  events_.drop_front(evicted);
  raw_levels_.drop_front(cut);
  curve_.trim_front(cut);

  // Late chunks reaching below the cut are clipped exactly like a
  // window_start: re-admitting them would need the evicted prefix sums.
  floor_ = cut_time;
  if (!options_.window_start || *options_.window_start < cut_time) {
    options_.window_start = cut_time;
  }

  // Return freed capacity to the allocator once it dominates live data —
  // the point of compaction is a flat memory footprint, not just flat
  // element counts. The 3x threshold sits well above the buffers' 1.5x
  // growth, so a steady window never shrinks and regrows.
  events_.release_slack();
  raw_levels_.release_slack();
  curve_.shrink_to_fit();
  return evicted;
}

// Events are saved and restored as their in-memory bytes: (time, delta)
// as two little-endian doubles (binio fixes the byte order), no padding.
static_assert(sizeof(BandwidthEvent) == 2 * sizeof(double) &&
              std::is_trivially_copyable_v<BandwidthEvent>);

void IncrementalBandwidth::save_state(ftio::util::BinWriter& out) const {
  out.f64_opt(options_.window_start);  // compact() clips future chunks here
  out.u64(events_.size());
  out.append({reinterpret_cast<const std::uint8_t*>(events_.data()),
              events_.size() * sizeof(BandwidthEvent)});
  out.f64(base_level_);
  out.f64_opt(floor_);
}

void IncrementalBandwidth::load_state(ftio::util::BinReader& in) {
  const std::optional<double> window_start = in.f64_opt();
  const std::size_t event_count = in.count(sizeof(BandwidthEvent));
  const auto event_bytes = in.bytes(event_count * sizeof(BandwidthEvent));
  std::vector<BandwidthEvent> events(event_count);
  if (event_count > 0) {
    std::memcpy(events.data(), event_bytes.data(), event_bytes.size());
  }
  const double base_level = in.f64();
  const std::optional<double> floor = in.f64_opt();

  // Every comparison with a NaN time is false, so the order check alone
  // would let one through; a non-finite delta or base level would
  // poison every later level of the re-sweep.
  if (!std::isfinite(base_level)) {
    throw ftio::util::ParseError("IncrementalBandwidth: non-finite base level");
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!std::isfinite(events[i].time) || !std::isfinite(events[i].delta)) {
      throw ftio::util::ParseError("IncrementalBandwidth: non-finite event");
    }
    if (i > 0 && bandwidth_event_less(events[i], events[i - 1])) {
      throw ftio::util::ParseError("IncrementalBandwidth: events not sorted");
    }
  }

  // The curve and the per-boundary levels are one left-to-right sweep of
  // the retained events from the folded base level: the summation order
  // extend() continues, so the rebuilt state matches the saved instance
  // bit for bit.
  std::vector<double> times;
  std::vector<double> values;
  times.reserve(events.size());
  values.reserve(events.size());
  ftio::util::SlidingBuffer<double> raw_levels;
  sweep_tail(events, 0, base_level, times, values, &raw_levels);
  ftio::signal::StepFunction curve =
      times.empty() ? ftio::signal::StepFunction{}
                    : ftio::signal::StepFunction(std::move(times),
                                                 std::move(values));

  options_.window_start = window_start;
  events_ = ftio::util::SlidingBuffer<BandwidthEvent>(std::move(events));
  raw_levels_ = std::move(raw_levels);
  curve_ = std::move(curve);
  base_level_ = base_level;
  floor_ = floor;
}

std::size_t IncrementalBandwidth::memory_bytes() const {
  return events_.capacity() * sizeof(BandwidthEvent) +
         raw_levels_.capacity() * sizeof(double) + curve_.memory_bytes();
}

ftio::signal::StepFunction bandwidth_signal(const Trace& trace,
                                            const BandwidthOptions& options) {
  return sweep(trace, options, std::nullopt);
}

ftio::signal::StepFunction rank_bandwidth_signal(
    const Trace& trace, int rank, const BandwidthOptions& options) {
  return sweep(trace, options, rank);
}

}  // namespace ftio::trace
