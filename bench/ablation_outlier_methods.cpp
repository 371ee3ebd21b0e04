// Ablation: outlier-detection method (Sec. II-B2: "FTIO supports other
// outlier detection methods, including DBSCAN, isolation forest, [and the]
// local outlier factor ... while these algorithms can improve the results,
// they often require more computational effort"). This bench runs the
// full detection pipeline under each method on the semi-synthetic
// workload and reports detection rate, median error, and analysis time.
// Deterministic results go to stdout, so two runs with the same --seed
// print identical bytes there; wall-clock timings go to stderr.

#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "outlier/outlier.hpp"
#include "semisweep.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  const std::size_t traces = bench::trace_count(args, 15, 50);
  bench::print_header(
      "Ablation: outlier-detection method in the candidate rule",
      "paper: alternatives can help but cost more compute");

  ftio::workloads::PhaseLibraryConfig lib_config;
  lib_config.phase_count = 30;
  const auto library = ftio::workloads::make_phase_library(lib_config);

  const ftio::outlier::Method methods[] = {
      ftio::outlier::Method::kZScore, ftio::outlier::Method::kDbscan,
      ftio::outlier::Method::kIsolationForest,
      ftio::outlier::Method::kLocalOutlierFactor};

  std::printf("%-18s %-12s %s\n", "method", "detected", "median error");
  std::fprintf(stderr, "%-18s %s\n", "method", "time/trace");
  for (const auto method : methods) {
    std::size_t detected = 0;
    std::vector<double> errors;
    double seconds = 0.0;
    for (std::size_t i = 0; i < traces; ++i) {
      ftio::workloads::SemiSyntheticConfig c;
      c.tcpu_mean = 11.0;
      c.tcpu_sigma = 2.75;  // mild variability so methods can differ
      c.seed = args.seed + i * 7919;
      const auto app = ftio::workloads::generate_semisynthetic(c, library);
      ftio::core::FtioOptions opts;
      opts.sampling_frequency = 1.0;
      opts.with_metrics = false;
      opts.with_autocorrelation = false;
      opts.candidates.method = method;
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = ftio::core::detect(app.trace, opts);
      seconds += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
      if (r.periodic()) {
        ++detected;
        errors.push_back(app.detection_error(r.period()));
      }
    }
    std::printf("%-18s %4zu/%-7zu %11.2f%%\n",
                ftio::outlier::method_name(method), detected, traces,
                errors.empty() ? 100.0 : 100.0 * ftio::util::median(errors));
    std::fprintf(stderr, "%-18s %8.2f ms\n",
                 ftio::outlier::method_name(method),
                 1e3 * seconds / static_cast<double>(traces));
  }

  // Standalone outlier-step cost: each detector over a spectrum-sized
  // power array (baseline noise + periodic spikes), isolated from the
  // rest of the pipeline. This is the loop the per-call-scratch fixes
  // (isolation-forest in-place descent, LOF flat neighbour buffer)
  // target, so regressions show up here first.
  std::fprintf(stderr, "\n%-18s %-14s  (detector only, %zu-bin power array)\n",
               "method", "time/call", std::size_t{4096});
  ftio::util::Rng rng(args.seed);
  std::vector<double> powers(4096);
  for (auto& p : powers) p = rng.uniform(0.9, 1.1);
  for (std::size_t i = 64; i < powers.size(); i += 512) powers[i] = 40.0;
  for (const auto method : methods) {
    ftio::outlier::DetectOptions opts;
    // Repeat enough for a stable figure; the forest dominates the budget.
    const std::size_t reps =
        method == ftio::outlier::Method::kIsolationForest ? 3 : 20;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      const auto flags = ftio::outlier::detect(powers, method, opts);
      if (flags.size() != powers.size()) return 1;  // keep the call alive
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::fprintf(stderr, "%-18s %10.2f us\n",
                 ftio::outlier::method_name(method),
                 1e6 * seconds / static_cast<double>(reps));
  }

  // Isolation forest parallelised over trees (util::parallel_for):
  // serial (threads = 1) vs all cores (threads = 0) on the same power
  // array. The chunked reduction keeps scores bit-identical either way —
  // verified here on every run before the speedup is reported.
  std::fprintf(stderr, "\nisolation forest over trees (%zu-bin power array)\n",
               powers.size());
  ftio::outlier::IsolationForestOptions forest_opts;
  auto time_forest = [&](unsigned threads, std::vector<double>& scores) {
    forest_opts.threads = threads;
    const std::size_t reps = 3;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      scores = ftio::outlier::isolation_forest_scores(powers, forest_opts);
    }
    return 1e6 *
           std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
               .count() /
           static_cast<double>(reps);
  };
  std::vector<double> serial_scores;
  std::vector<double> parallel_scores;
  const double serial_us = time_forest(1, serial_scores);
  const double parallel_us = time_forest(0, parallel_scores);
  for (std::size_t i = 0; i < serial_scores.size(); ++i) {
    if (serial_scores[i] != parallel_scores[i]) {
      std::printf("FAIL: score %zu differs between serial and parallel\n", i);
      return 1;
    }
  }
  std::printf("\nisolation forest: serial and parallel scores bit-identical "
              "(%zu-bin power array)\n",
              powers.size());
  std::fprintf(stderr, "%-18s %10.2f us\n", "serial (1 thread)", serial_us);
  std::fprintf(stderr, "%-18s %10.2f us   (%.2fx)\n", "parallel (all)",
               parallel_us, serial_us / parallel_us);
  return 0;
}
