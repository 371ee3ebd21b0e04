#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/sliding_buffer.hpp"

namespace ftio::signal {

/// Piecewise-constant function of time: value `values[i]` holds on
/// [times[i], times[i+1]). This is the natural shape of the application-
/// level bandwidth curve produced by overlapping I/O requests (Sec. II-A);
/// `times` has exactly one more entry than `values` and is strictly
/// increasing.
class StepFunction {
 public:
  StepFunction() = default;

  /// Builds a step function; validates monotonicity and sizes.
  StepFunction(std::vector<double> times, std::vector<double> values);

  /// Value at time t; 0 outside [start_time, end_time).
  double value_at(double t) const;

  /// Integral over [a, b] (exact, since the function is piecewise constant).
  double integral(double a, double b) const;

  /// Integral over the whole support.
  double total_integral() const;

  double start_time() const { return times_.empty() ? 0.0 : times_.front(); }
  double end_time() const { return times_.empty() ? 0.0 : times_.back(); }
  double duration() const { return end_time() - start_time(); }
  bool empty() const { return values_.empty(); }
  std::size_t segment_count() const { return values_.size(); }

  std::span<const double> times() const {
    return {times_.data(), times_.size()};
  }
  std::span<const double> values() const {
    return {values_.data(), values_.size()};
  }

  /// Largest value over the support (0 for an empty function).
  double max_value() const;

  /// Replaces the tail of the function: keeps the first `keep_boundaries`
  /// boundary times (and every segment value whose start boundary is
  /// kept), then appends `new_times` / `new_values`. The appended tail
  /// must restore the invariants — strictly increasing times and
  /// times.size() == values.size() + 1 — or the call throws. Used by
  /// trace::IncrementalBandwidth to extend the bandwidth curve in place;
  /// cost is O(tail), not O(total support).
  void splice_tail(std::size_t keep_boundaries,
                   std::span<const double> new_times,
                   std::span<const double> new_values);

  /// Drops the first `drop_boundaries` boundaries and their segments:
  /// times[drop_boundaries] becomes the new support start. The retained
  /// boundary times and segment values are preserved bit for bit (the
  /// function is unchanged on the new support; evicted times read as 0).
  /// At least one segment must remain. O(1): the storage only advances
  /// its head (util::SlidingBuffer). Used by
  /// trace::IncrementalBandwidth::compact to bound streaming-session
  /// curves to the analysis window.
  void trim_front(std::size_t drop_boundaries);

  /// Releases over-sized buffers after evictions: reallocates each
  /// backing buffer to 1.5x its live size once its capacity exceeds 3x.
  void shrink_to_fit();

  /// Resident bytes of the backing storage (capacity, not size — the
  /// figure streaming memory accounting wants).
  std::size_t memory_bytes() const {
    return (times_.capacity() + values_.capacity()) * sizeof(double);
  }

 private:
  // Copies hold only the live range; trim_front drops in O(1).
  ftio::util::SlidingBuffer<double> times_;
  ftio::util::SlidingBuffer<double> values_;

  /// Index of the segment containing t, or SIZE_MAX when outside.
  std::size_t segment_index(double t) const;
};

/// Sampling strategy of core::discretize_window: point sampling matches
/// the paper's definition x_n = x(t0 + n/fs); bin averaging integrates
/// each 1/fs bin (used for heatmap-style inputs whose bins already
/// average).
enum class SamplingMode { kPointSample, kBinAverage };

}  // namespace ftio::signal
