// Ablation: period-detector sets across the paper's evaluation workloads.
// Runs the registry pipeline under increasingly rich detector selections
// on the Fig. 7 semi-synthetic sweep and the Fig. 10-12 application
// traces (LAMMPS, Nek5000 reduced window, HACC-IO), reporting whether
// the fused prediction lands on the known ground truth and what the
// extra detectors cost per analysis.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/ftio.hpp"
#include "trace/formats.hpp"
#include "workloads/apps.hpp"
#include "workloads/phase_library.hpp"
#include "workloads/semisynthetic.hpp"

namespace {

namespace core = ftio::core;

struct DetectorConfig {
  const char* label;
  std::vector<core::DetectorSelection> selection;  // empty = seed default
  bool with_acf = true;
};

std::vector<DetectorConfig> configs() {
  return {
      {"dft", {{"dft", 1.0}}, false},
      {"dft+acf (paper)", {}, true},
      {"dft+cfd-auto", {{"dft", 1.0}, {"cfd-autoperiod", 1.0}}, true},
      {"all", {{"dft", 1.0}, {"acf", 1.0}, {"cfd-autoperiod", 1.0}}, true},
  };
}

struct Workload {
  std::string label;
  double truth = 0.0;  ///< ground-truth period in seconds
  /// Runs one full analysis with the given base options.
  std::function<core::FtioResult(const core::FtioOptions&)> run;
  core::FtioOptions base;
};

void print_row(const char* label, bool found, double period, double truth,
               double micros) {
  if (found) {
    std::printf("  %-18s %-6s %10.2f s %8.1f%% %12.1f us\n", label, "yes",
                period, 100.0 * std::abs(period - truth) / truth, micros);
  } else {
    std::printf("  %-18s %-6s %10s   %8s %12.1f us\n", label, "no", "-", "-",
                micros);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::print_header(
      "Ablation: period-detector sets on the paper's workloads",
      "fused prediction vs ground truth; us/call = one full analysis");

  std::vector<Workload> workloads;

  // Fig. 7 flavour: one semi-synthetic app with mild compute variability.
  {
    ftio::workloads::PhaseLibraryConfig lib_config;
    lib_config.phase_count = 30;
    const auto library = ftio::workloads::make_phase_library(lib_config);
    ftio::workloads::SemiSyntheticConfig c;
    c.tcpu_mean = 11.0;
    c.tcpu_sigma = 2.75;
    c.seed = args.seed;
    auto app = ftio::workloads::generate_semisynthetic(c, library);
    Workload w;
    w.label = "fig07 semi-synthetic";
    w.truth = app.mean_period;
    w.base.sampling_frequency = 1.0;
    w.base.with_metrics = false;
    w.run = [app = std::move(app)](const core::FtioOptions& opts) {
      return core::detect(app.trace, opts);
    };
    workloads.push_back(std::move(w));
  }

  // Fig. 10: LAMMPS dumps, ~27.4 s real cadence.
  {
    ftio::workloads::LammpsConfig c;
    c.ranks = 512;
    auto trace = ftio::workloads::generate_lammps_trace(c);
    Workload w;
    w.label = "fig10 LAMMPS";
    w.truth = c.step_seconds * c.dump_every;
    w.base.sampling_frequency = 10.0;
    w.base.with_metrics = false;
    w.run = [trace = std::move(trace)](const core::FtioOptions& opts) {
      return core::detect(trace, opts);
    };
    workloads.push_back(std::move(w));
  }

  // Fig. 11: Nek5000 heatmap, reduced window (paper: 4642.1 s at 85.4%).
  {
    ftio::workloads::NekConfig c;
    const auto heatmap = ftio::workloads::generate_nek5000_heatmap(c);
    auto bandwidth = heatmap.bandwidth();
    Workload w;
    w.label = "fig11 Nek5000 (reduced window)";
    w.truth = c.regular_period;
    w.base.sampling_frequency = heatmap.implied_sampling_frequency();
    w.base.sampling_mode = ftio::signal::SamplingMode::kBinAverage;
    w.base.window_end = 56'000.0;
    w.base.with_metrics = false;
    w.run = [bandwidth = std::move(bandwidth)](
                const core::FtioOptions& opts) {
      return core::analyze_bandwidth(bandwidth, opts);
    };
    workloads.push_back(std::move(w));
  }

  // Fig. 12: HACC-IO loop, true mean period ~8.7 s.
  {
    ftio::workloads::HaccIoConfig c;
    auto trace = ftio::workloads::generate_haccio_trace(c);
    double gap_sum = 0.0;
    for (double g : c.phase_gaps) gap_sum += g;
    Workload w;
    w.label = "fig12 HACC-IO";
    w.truth = gap_sum / static_cast<double>(c.phase_gaps.size());
    w.base.sampling_frequency = 10.0;
    w.base.candidates.tolerance = 0.55;  // the paper's two-candidate knob
    w.base.with_metrics = false;
    w.run = [trace = std::move(trace)](const core::FtioOptions& opts) {
      return core::detect(trace, opts);
    };
    workloads.push_back(std::move(w));
  }

  const std::size_t reps = args.full ? 9 : 3;
  for (const auto& w : workloads) {
    std::printf("%s (truth %.1f s)\n", w.label.c_str(), w.truth);
    std::printf("  %-18s %-6s %12s %9s %15s\n", "detectors", "found",
                "fused period", "error", "time/call");
    for (const auto& config : configs()) {
      core::FtioOptions opts = w.base;
      opts.with_autocorrelation = config.with_acf;
      opts.detectors.detectors = config.selection;
      core::FtioResult r;
      double best_seconds = 0.0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        r = w.run(opts);
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        if (rep == 0 || s < best_seconds) best_seconds = s;
      }
      print_row(config.label, r.fused.found(), r.fused.period, w.truth,
                1e6 * best_seconds);
    }
    std::printf("\n");
  }
  return 0;
}
