#pragma once

// The comparison-sort bandwidth sweep, kept as the oracle that
// trace::build_sorted_bandwidth_events, trace::sort_bandwidth_events and
// through them bandwidth_signal and IncrementalBandwidth are checked
// against: the event list of append_bandwidth_events, ordered
// by std::sort under bandwidth_event_less, swept by the shared
// bandwidth_from_events. Used by tests/trace_test.cpp and the
// fuzz_trace_formats harness.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "signal/step_function.hpp"
#include "trace/model.hpp"

namespace ftio::fuzz::sweep_oracle {

inline void sort_events(std::vector<ftio::trace::BandwidthEvent>& events) {
  std::sort(events.begin(), events.end(), ftio::trace::bandwidth_event_less);
}

inline ftio::signal::StepFunction bandwidth_signal(
    const ftio::trace::Trace& trace,
    const ftio::trace::BandwidthOptions& options = {},
    std::optional<int> only_rank = std::nullopt) {
  std::vector<ftio::trace::BandwidthEvent> events;
  ftio::trace::append_bandwidth_events(trace.requests, options, only_rank,
                                       events);
  sort_events(events);
  return ftio::trace::bandwidth_from_events(events);
}

/// Empty when the curves agree; otherwise names the first difference.
/// Segment values must match bit for bit. Boundaries must compare equal
/// under ==: the comparator ranks -0.0 and +0.0 together, so a boundary
/// at zero may carry either sign under either sort.
inline std::string curve_difference(const ftio::signal::StepFunction& got,
                                    const ftio::signal::StepFunction& want) {
  if (got.times().size() != want.times().size() ||
      got.values().size() != want.values().size()) {
    return "boundary count " + std::to_string(got.times().size()) + " vs " +
           std::to_string(want.times().size());
  }
  for (std::size_t i = 0; i < got.times().size(); ++i) {
    if (!(got.times()[i] == want.times()[i])) {
      return "boundary " + std::to_string(i) + " differs";
    }
  }
  for (std::size_t i = 0; i < got.values().size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got.values()[i]) !=
        std::bit_cast<std::uint64_t>(want.values()[i])) {
      return "segment " + std::to_string(i) + " differs";
    }
  }
  return {};
}

}  // namespace ftio::fuzz::sweep_oracle
