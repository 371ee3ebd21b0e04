#pragma once

// The three workloads and the per-layer metric table they share. See
// perfbench/README.md for why each workload exists and which end-to-end
// metric each layer metric should move.

#include <array>
#include <stdexcept>
#include <string_view>

#include "common.hpp"

namespace perfbench {

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

/// A traced run's stage sum must land within this many percent of the
/// untraced end-to-end time of the same run.
inline constexpr double kReconcileTolerancePct = 10.0;

/// The work of one run is --seconds times the workload's nominal rate on
/// the reference machine (a 4-core x86-64 container), so a run measures
/// about --seconds there while every run of a seed does the same work:
/// counts and quality figures repeat exactly and a faster program simply
/// finishes sooner.
inline constexpr double kOfflinePassesPerSecond = 1.2;
inline constexpr double kSteadyFlushesPerSecond = 3300.0;
inline constexpr double kDurableFlushesPerSecond = 620.0;

/// A run whose measurement loop exceeds this wall time is aborted.
inline constexpr double kWallLimitSeconds = 120.0;

/// The end-to-end metrics, which every workload reports with --trace 0.
/// An operation is one corpus trace offline (bytes to FtioResult) and one
/// flush online (submit to the end of the drain cycle that processed it).
struct EndToEnd {
  double setup_s = 0.0;            ///< median set-up time
  double ops_per_s = 0.0;          ///< successful operations per second
  double op_ms_p50 = 0.0;          ///< operation latency, median
  double op_ms_p99 = 0.0;          ///< operation latency, tail
  double period_error_mean = 0.0;  ///< see period_error()
  double rss_mb_peak = 0.0;

  void emit(Report& report) const {
    report.add("setup_s", setup_s, "s");
    report.add("ops_per_s", ops_per_s, "1/s");
    report.add("op_ms_p50", op_ms_p50, "ms");
    report.add("op_ms_p99", op_ms_p99, "ms");
    report.add("period_error_mean", period_error_mean, "ratio");
    report.add("rss_mb_peak", rss_mb_peak, "MB");
  }
};

struct LayerMetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Every per-layer metric, in report order. A traced run prints all of
/// them; a layer the workload does not exercise reads 0.
inline constexpr std::array<LayerMetricSpec, 41> kLayerMetrics{{
    {"trace.parse_ms", "ms"},
    {"trace.parse_mb_per_s", "MB/s"},
    {"trace.sweep_ms", "ms"},
    {"trace.requests", "count"},
    {"core.window_ms", "ms"},
    {"core.detectors_ms", "ms"},
    {"core.finish_ms", "ms"},
    {"signal.spectrum_ms", "ms"},
    {"signal.acf_ms", "ms"},
    {"signal.window_n_mean", "count"},
    {"signal.non_pow2_share", "ratio"},
    {"engine.ingest_us_p50", "us"},
    {"engine.ingest_ms_total", "ms"},
    {"engine.predict_skip_us_p50", "us"},
    {"engine.predict_skip_ms_total", "ms"},
    {"engine.triage_skip_ratio", "ratio"},
    {"engine.predict_full_us_p50", "us"},
    {"engine.predict_full_ms_total", "ms"},
    {"engine.full_analyses", "count"},
    {"engine.state_mb", "MB"},
    {"service.submit_us_p50", "us"},
    {"service.pump_ms_total", "ms"},
    {"service.overhead_ms", "ms"},
    {"service.analyses", "count"},
    {"service.coalesced_analyses", "count"},
    {"service.grouped_analyses", "count"},
    {"service.empty_window_analyses", "count"},
    {"service.quarantined", "count"},
    {"service.ladder_step_downs", "count"},
    {"service.queue_max_depth", "count"},
    {"service.failed_share", "ratio"},
    {"durability.journal_appends", "count"},
    {"durability.journal_mb", "MB"},
    {"durability.checkpoints_written", "count"},
    {"durability.snapshot_ms_total", "ms"},
    {"durability.snapshot_mb", "MB"},
    {"durability.records_replayed", "count"},
    {"durability.sessions_restored", "count"},
    {"durability.recovery_ms", "ms"},
    {"tracing.overhead_pct", "%"},
    {"tracing.reconcile_gap_pct", "%"},
}};

/// Values of the per-layer table for one traced run.
class LayerMetrics {
 public:
  void set(std::string_view name, double value) {
    for (std::size_t i = 0; i < kLayerMetrics.size(); ++i) {
      if (kLayerMetrics[i].name == name) {
        values_[i] = value;
        return;
      }
    }
    throw std::logic_error("unknown per-layer metric");
  }
  void emit(Report& report) const {
    for (std::size_t i = 0; i < kLayerMetrics.size(); ++i) {
      report.add(std::string(kLayerMetrics[i].name), values_[i],
                 std::string(kLayerMetrics[i].unit));
    }
  }

 private:
  std::array<double, kLayerMetrics.size()> values_{};
};

Report run_offline_corpus(const RunConfig& config);
/// online_steady (durable = false) and online_durable (durable = true).
Report run_online(const RunConfig& config, bool durable);

}  // namespace perfbench
