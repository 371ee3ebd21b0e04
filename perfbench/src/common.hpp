#pragma once

// Shared measurement plumbing of the end-to-end benchmark: a monotonic
// clock, sample sets with the percentile rule the report uses, the
// metric list each workload fills in, and the last-line JSON report.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}
inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Command-line settings of one benchmark run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  ///< scratch space for the durable workload
};

/// A latency sample set. Percentiles use the nearest-rank rule.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double sum() const {
    double s = 0.0;
    for (double v : values_) s += v;
    return s;
  }
  double mean() const { return empty() ? 0.0 : sum() / static_cast<double>(size()); }

  /// Nearest-rank p-quantile, p in [0, 1].
  double quantile(double p) {
    if (values_.empty()) return 0.0;
    sort();
    const auto n = static_cast<double>(values_.size());
    const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p * n)));
    return values_[std::min(rank, values_.size()) - 1];
  }

  /// The tail percentile reported as "p99": 0.99 when at least ten
  /// samples lie beyond it, else the highest percentile that still has
  /// ten samples beyond it (the choosing-metrics rule).
  double tail_fraction() const {
    const auto n = static_cast<double>(values_.size());
    if (n <= 10.0) return 0.5;
    return std::min(0.99, std::floor((n - 10.0) / n * 1000.0) / 1000.0);
  }

 private:
  void sort() {
    if (!sorted_) std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  std::vector<double> values_;
  bool sorted_ = false;
};

inline double median(std::vector<double> values) {
  Samples s;
  for (double v : values) s.add(v);
  return s.quantile(0.5);
}

/// Peak resident set of this process in MB (10^6 bytes).
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): the metrics of the
/// selected mode, the operation counts, and the verdict of every
/// correctness check (empty = all passed).
struct Report {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> check_failures;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Prints the report's human-readable lines on stderr and the single
/// JSON result line on stdout.
inline void print_report(const Report& report) {
  for (const Metric& m : report.metrics) {
    std::fprintf(stderr, "  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& failure : report.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              report.check_failures.empty() ? "true" : "false",
              report.attempted, report.failed);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Deterministic 64-bit mixer (splitmix64) for deriving per-item seeds
/// from the benchmark seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
