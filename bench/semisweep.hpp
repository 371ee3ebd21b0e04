#pragma once

// Shared machinery for the Sec. III-A parameter sweeps (Figs. 8 and 9):
// generate `traces` semi-synthetic applications per parameter point, run
// FTIO on each, and collect detection errors plus the characterization
// metrics. Each trace is generated and analysed by core::detect on one
// worker of util::parallel_for; workers share FFT plans and keep
// per-thread scratch.

#include <algorithm>
#include <optional>
#include <thread>
#include <vector>

#include "core/ftio.hpp"
#include "trace/model.hpp"
#include "util/parallel.hpp"
#include "workloads/semisynthetic.hpp"

namespace bench {

struct SweepResult {
  std::vector<double> errors;        ///< |T_d - T-bar| / T-bar per trace
  std::vector<double> confidences;   ///< refined confidence per trace
  std::vector<double> sigma_vol;
  std::vector<double> sigma_time;
  std::vector<double> scores;        ///< periodicity score
  std::size_t not_periodic = 0;      ///< traces with no dominant frequency
};

/// Runs one parameter point. Aperiodic detections contribute an error of
/// 1.0 (a 100% miss), mirroring how missed detections dominate the
/// paper's outlier tails. `threads` = 0 uses all hardware threads.
inline SweepResult run_point(const ftio::workloads::SemiSyntheticConfig& base,
                             const std::vector<ftio::workloads::PhaseTrace>& library,
                             std::size_t traces, std::uint64_t seed,
                             bool with_metrics = false, unsigned threads = 0) {
  SweepResult out;
  out.errors.resize(traces, 0.0);
  out.confidences.resize(traces, 0.0);
  if (with_metrics) {
    out.sigma_vol.resize(traces, 0.0);
    out.sigma_time.resize(traces, 0.0);
    out.scores.resize(traces, 0.0);
  }

  ftio::core::FtioOptions opts;
  opts.sampling_frequency = 1.0;  // the paper's fs for these experiments
  opts.with_metrics = with_metrics;

  // Generate and analyse in bounded chunks: each semi-synthetic app
  // holds tens of thousands of requests, so materialising all `traces` at
  // once would make peak memory O(traces); a chunk a few times wider than
  // the thread count keeps every worker busy while bounding the peak.
  const unsigned workers =
      threads ? threads : std::max(1u, std::thread::hardware_concurrency());
  const std::size_t chunk_size = std::max<std::size_t>(workers * 4, 16);

  for (std::size_t begin = 0; begin < traces; begin += chunk_size) {
    const std::size_t count = std::min(chunk_size, traces - begin);

    // Generate and analyse this chunk (embarrassingly parallel,
    // deterministic per global index).
    std::vector<ftio::workloads::SemiSyntheticApp> apps(count);
    std::vector<ftio::core::FtioResult> results(count);
    ftio::util::parallel_for(count, [&](std::size_t j) {
      auto config = base;
      config.seed = seed + (begin + j) * 7919;
      apps[j] = ftio::workloads::generate_semisynthetic(config, library);
      results[j] = ftio::core::detect(apps[j].trace, opts);
    }, threads);

    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t i = begin + j;
      const auto& r = results[j];
      if (r.periodic()) {
        out.errors[i] = apps[j].detection_error(r.period());
        out.confidences[i] = r.refined_confidence;
        if (with_metrics && r.metrics) {
          out.sigma_vol[i] = r.metrics->sigma_vol;
          out.sigma_time[i] = r.metrics->sigma_time;
          out.scores[i] = r.metrics->periodicity_score();
        }
      } else {
        out.errors[i] = 1.0;
        ++out.not_periodic;
      }
    }
  }
  return out;
}

}  // namespace bench
