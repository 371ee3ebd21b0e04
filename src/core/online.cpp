#include "core/online.hpp"

#include <algorithm>

#include "outlier/outlier.hpp"

namespace ftio::core {

double select_online_window(const OnlineOptions& options,
                            OnlineWindowState& state, double begin,
                            double now) {
  double start = begin;
  switch (options.strategy) {
    case WindowStrategy::kGrowing:
      break;
    case WindowStrategy::kAdaptive:
      if (state.consecutive_hits >= options.adaptive_hits &&
          state.last_period > 0.0) {
        const double periods = static_cast<double>(options.adaptive_hits +
                                                   options.adaptive_margin);
        double window = periods * state.last_period;
        if (options.base.sampling_frequency > 0.0) {
          window = std::max(window,
                            static_cast<double>(options.min_window_samples) /
                                options.base.sampling_frequency);
        }
        state.window_start = std::max(begin, now - window);
      }
      start = std::max(begin, state.window_start);
      break;
    case WindowStrategy::kFixedLength:
      start = std::max(begin, now - options.fixed_window);
      break;
  }
  return start;
}

double peek_online_window(const OnlineOptions& options,
                          const OnlineWindowState& state, double begin,
                          double now) {
  OnlineWindowState scratch = state;
  return select_online_window(options, scratch, begin, now);
}

void record_online_result(OnlineWindowState& state, const Prediction& p) {
  if (p.found()) {
    ++state.consecutive_hits;
    state.last_period = p.period();
  } else {
    state.consecutive_hits = 0;
  }
}

Prediction prediction_from_result(const FtioResult& result, double now) {
  Prediction p;
  p.at_time = now;
  p.frequency = result.dft.dominant_frequency;
  // Prediction::confidence is the pre-refinement c_d by contract;
  // refined_confidence sits next to it.
  p.confidence = result.dft.confidence;
  p.refined_confidence = result.refined_confidence;
  p.window_start = result.window_start;
  p.window_end = result.window_end;
  p.sample_count = result.sample_count;
  return p;
}

std::vector<FrequencyInterval> merge_predictions(
    std::span<const Prediction> history) {
  std::vector<FrequencyInterval> intervals;
  std::vector<double> freqs;
  double eps = 0.0;
  for (const auto& p : history) {
    const double window = p.window_end - p.window_start;
    if (window > 0.0) eps = std::max(eps, 1.0 / window);
    if (p.found()) freqs.push_back(*p.frequency);
  }
  if (freqs.empty()) return intervals;
  if (eps <= 0.0) eps = 1e-9;

  const auto labels = ftio::outlier::dbscan_1d(freqs, eps, 1);
  int max_label = -1;
  for (int l : labels) max_label = std::max(max_label, l);

  const double total = static_cast<double>(history.size());
  for (int cluster = 0; cluster <= max_label; ++cluster) {
    FrequencyInterval iv;
    iv.low = 0.0;
    iv.high = 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      if (labels[i] != cluster) continue;
      if (iv.count == 0) {
        iv.low = iv.high = freqs[i];
      } else {
        iv.low = std::min(iv.low, freqs[i]);
        iv.high = std::max(iv.high, freqs[i]);
      }
      sum += freqs[i];
      ++iv.count;
    }
    if (iv.count == 0) continue;
    iv.center = sum / static_cast<double>(iv.count);
    iv.probability = static_cast<double>(iv.count) / total;
    intervals.push_back(iv);
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const FrequencyInterval& a, const FrequencyInterval& b) {
              return a.probability > b.probability;
            });
  return intervals;
}

}  // namespace ftio::core
