#include "signal/step_function.hpp"

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace ftio::signal {

StepFunction::StepFunction(std::vector<double> times,
                           std::vector<double> values)
    : times_(std::move(times)), values_(std::move(values)) {
  ftio::util::expect(times_.size() == values_.size() + 1,
                     "StepFunction: times must have values.size()+1 entries");
  const auto t = this->times();
  for (std::size_t i = 1; i < t.size(); ++i) {
    ftio::util::expect(t[i] > t[i - 1],
                       "StepFunction: times must be strictly increasing");
  }
}

// The read methods below take the spans once: indexing the buffers
// directly re-derives the live head on every access, which costs the
// callers' loops their inlining and register allocation.

std::size_t StepFunction::segment_index(double t) const {
  const auto times = this->times();
  if (times.size() < 2 || t < times.front() || t >= times.back()) {
    return std::numeric_limits<std::size_t>::max();
  }
  // upper_bound returns the first boundary > t; the segment is one before.
  const auto it = std::upper_bound(times.begin(), times.end(), t);
  return static_cast<std::size_t>(it - times.begin()) - 1;
}

double StepFunction::value_at(double t) const {
  const std::size_t idx = segment_index(t);
  if (idx == std::numeric_limits<std::size_t>::max()) return 0.0;
  return values()[idx];
}

double StepFunction::integral(double a, double b) const {
  const auto times = this->times();
  const auto values = this->values();
  if (values.empty() || b <= a) return 0.0;
  const double lo = std::max(a, times.front());
  const double hi = std::min(b, times.back());
  if (hi <= lo) return 0.0;
  double acc = 0.0;
  const auto first = std::upper_bound(times.begin(), times.end(), lo);
  std::size_t i = static_cast<std::size_t>(first - times.begin()) - 1;
  for (; i < values.size() && times[i] < hi; ++i) {
    const double seg_lo = std::max(lo, times[i]);
    const double seg_hi = std::min(hi, times[i + 1]);
    if (seg_hi > seg_lo) acc += values[i] * (seg_hi - seg_lo);
  }
  return acc;
}

double StepFunction::total_integral() const {
  const auto times = this->times();
  const auto values = this->values();
  double acc = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    acc += values[i] * (times[i + 1] - times[i]);
  }
  return acc;
}

double StepFunction::max_value() const {
  const auto values = this->values();
  if (values.empty()) return 0.0;
  return *std::max_element(values.begin(), values.end());
}

void StepFunction::splice_tail(std::size_t keep_boundaries,
                               std::span<const double> new_times,
                               std::span<const double> new_values) {
  ftio::util::expect(keep_boundaries <= times_.size(),
                     "StepFunction::splice_tail: keep_boundaries too large");
  times_.resize(keep_boundaries);
  // Every kept boundary except a final one starts a kept segment.
  values_.resize(std::min(keep_boundaries, values_.size()));
  times_.append(new_times);
  values_.append(new_values);
  ftio::util::expect(times_.size() == values_.size() + 1,
                     "StepFunction::splice_tail: times/values size mismatch");
  const auto times = this->times();
  const std::size_t first_new =
      keep_boundaries > 0 ? keep_boundaries : 1;
  for (std::size_t i = first_new; i < times.size(); ++i) {
    ftio::util::expect(times[i] > times[i - 1],
                       "StepFunction::splice_tail: times must stay "
                       "strictly increasing");
  }
}

void StepFunction::trim_front(std::size_t drop_boundaries) {
  if (drop_boundaries == 0) return;
  ftio::util::expect(drop_boundaries < values_.size(),
                     "StepFunction::trim_front: at least one segment "
                     "must remain");
  times_.drop_front(drop_boundaries);
  values_.drop_front(drop_boundaries);
  // Mutation post-condition: the class invariant (one more boundary than
  // segments, strictly increasing boundaries) must survive every
  // in-place edit — a violation here is a library bug, not caller input.
  FTIO_ASSERT(times_.size() == values_.size() + 1);
  FTIO_ASSERT(times_.size() < 2 || times_[0] < times_[1]);
}

void StepFunction::shrink_to_fit() {
  times_.release_slack();
  values_.release_slack();
}

}  // namespace ftio::signal
