// online_steady / online_durable: an IngestDaemon in foreground mode
// (background = false, 2 shards, the default session template) driven in
// a closed loop: submit the next 32 time-ordered flushes, then pump until
// the shards are drained — exactly the drain cycle a shard worker runs,
// on one thread.
//
// Every batch is also replayed through one engine::StreamingSession per
// tenant, built from the same template, with the daemon's rule of one
// analysis per tenant per drain cycle. The replay is the correctness
// oracle (final predictions must match the daemon's) and, in a traced
// run, the engine-layer trace. It runs outside the timed region.

#include <unistd.h>

#include <bit>
#include <cmath>
#include <stdexcept>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "durability/journal.hpp"
#include "engine/streaming.hpp"
#include "inputs.hpp"
#include "service/daemon.hpp"
#include "signal/autocorrelation.hpp"
#include "signal/spectrum.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace service = ftio::service;
using ftio::core::Prediction;

constexpr std::size_t kBatchFlushes = 32;
/// Throughput is the median over chunks of this many batches. With two
/// drain cycles per batch and the default 64-cycle checkpoint cadence,
/// every durable chunk holds exactly one checkpoint.
constexpr std::size_t kChunkBatches = 32;
constexpr int kRecoveryRepeats = 5;

/// Removes a directory tree when it goes out of scope.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

service::ServiceOptions daemon_options(bool durable,
                                       const std::filesystem::path& dir) {
  service::ServiceOptions options;
  options.shards = 2;
  options.background = false;
  if (durable) {
    options.durability.enabled = true;
    options.durability.directory = dir.string();
    options.durability.fsync_every_records = 16;
    options.durability.checkpoint_on_stop = false;
  }
  return options;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_prediction(const std::optional<Prediction>& a,
                     const std::optional<Prediction>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  const bool freq = a->frequency.has_value() == b->frequency.has_value() &&
                    (!a->frequency || same_bits(*a->frequency, *b->frequency));
  return freq && same_bits(a->at_time, b->at_time) &&
         same_bits(a->confidence, b->confidence) &&
         same_bits(a->refined_confidence, b->refined_confidence) &&
         same_bits(a->window_start, b->window_start) &&
         same_bits(a->window_end, b->window_end) &&
         a->sample_count == b->sample_count &&
         a->from_triage == b->from_triage;
}

/// Engine-layer replay of the flush stream, with its spans.
class Replay {
 public:
  Replay(const std::vector<Tenant>& tenants,
         const ftio::engine::StreamingOptions& session_template)
      : tenants_(tenants),
        template_(session_template),
        sessions_(tenants.size()),
        last_(tenants.size()),
        dirty_(tenants.size(), false),
        blob_bytes_(tenants.size(), 0) {}

  /// Applies one batch (requests already decoded) the way a drain cycle
  /// does: ingest every flush, then analyse each touched tenant once.
  /// Returns the engine time spent (ingest + predict), in seconds.
  double apply(const std::vector<std::size_t>& batch_tenants,
               std::vector<std::vector<ftio::trace::IoRequest>>& batch_requests,
               double fs, Report& report) {
    double engine_time = 0.0;
    std::vector<std::size_t> due;
    for (std::size_t i = 0; i < batch_tenants.size(); ++i) {
      const std::size_t t = batch_tenants[i];
      if (!sessions_[t]) {
        sessions_[t] = std::make_unique<ftio::engine::StreamingSession>(template_);
      }
      const auto started = Clock::now();
      sessions_[t]->ingest(batch_requests[i]);
      const double dt = seconds_since(started);
      ingest_.add(dt);
      engine_time += dt;
      dirty_[t] = true;
      if (std::find(due.begin(), due.end(), t) == due.end()) due.push_back(t);
    }
    for (std::size_t t : due) {
      const auto started = Clock::now();
      try {
        const Prediction p = sessions_[t]->predict();
        const double dt = seconds_since(started);
        engine_time += dt;
        (p.from_triage ? predict_skip_ : predict_full_).add(dt);
        report.check(!p.frequency || *p.frequency > 0.0,
                     "published prediction with a non-positive frequency for " +
                         tenants_[t].name);
        if (!p.from_triage) time_transforms(p.sample_count, fs);
        last_[t] = p;
      } catch (const ftio::util::InvalidArgument&) {
        // The daemon files this as an empty-window analysis.
        engine_time += seconds_since(started);
        ++empty_windows_;
      }
    }
    return engine_time;
  }

  /// The checkpoint's serialization work: every tenant whose state moved
  /// since the last checkpoint is serialized afresh. Returns seconds.
  double checkpoint() {
    const auto started = Clock::now();
    std::size_t bytes = 0;
    for (std::size_t t = 0; t < sessions_.size(); ++t) {
      if (!sessions_[t]) continue;
      if (dirty_[t]) {
        blob_bytes_[t] = sessions_[t]->serialize_state().size();
        dirty_[t] = false;
      }
      bytes += blob_bytes_[t];
    }
    const double dt = seconds_since(started);
    snapshot_time_ += dt;
    snapshot_bytes_ += bytes;
    ++checkpoints_;
    return dt;
  }

  const std::optional<Prediction>& last(std::size_t t) const { return last_[t]; }
  std::size_t empty_windows() const { return empty_windows_; }

  void emit(LayerMetrics& layers) {
    const auto full = static_cast<double>(std::max<std::size_t>(1, predict_full_.size()));
    layers.set("signal.spectrum_ms", spectrum_.mean() * 1e3);
    layers.set("signal.acf_ms", acf_.mean() * 1e3);
    layers.set("signal.window_n_mean", window_n_sum_ / full);
    layers.set("signal.non_pow2_share", static_cast<double>(non_pow2_) / full);
    layers.set("engine.ingest_us_p50", ingest_.quantile(0.5) * 1e6);
    layers.set("engine.ingest_ms_total", ingest_.sum() * 1e3);
    layers.set("engine.predict_skip_us_p50", predict_skip_.quantile(0.5) * 1e6);
    layers.set("engine.predict_skip_ms_total", predict_skip_.sum() * 1e3);
    const double predictions =
        static_cast<double>(predict_skip_.size() + predict_full_.size());
    layers.set("engine.triage_skip_ratio",
               static_cast<double>(predict_skip_.size()) / std::max(1.0, predictions));
    layers.set("engine.predict_full_us_p50", predict_full_.quantile(0.5) * 1e6);
    layers.set("engine.predict_full_ms_total", predict_full_.sum() * 1e3);
    layers.set("engine.full_analyses", static_cast<double>(predict_full_.size()));
    std::size_t state = 0;
    for (const auto& s : sessions_) {
      if (s) state += s->memory_bytes();
    }
    layers.set("engine.state_mb", static_cast<double>(state) / 1e6);
    layers.set("durability.snapshot_ms_total", snapshot_time_ * 1e3);
    layers.set("durability.snapshot_mb",
               static_cast<double>(snapshot_bytes_) / 1e6 /
                   static_cast<double>(std::max<std::size_t>(1, checkpoints_)));
  }

 private:
  /// The signal layer's share of a full analysis, timed from outside:
  /// the spectrum and ACF of a window of the analysis' size N.
  void time_transforms(std::size_t n, double fs) {
    if (n == 0) return;
    window_n_sum_ += static_cast<double>(n);
    if (!std::has_single_bit(n)) ++non_pow2_;
    if (scratch_.size() != n) {
      scratch_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        scratch_[i] = static_cast<double>((i * 7919) % 97);
      }
    }
    auto started = Clock::now();
    const auto spectrum = ftio::signal::compute_spectrum(scratch_, fs);
    spectrum_.add(seconds_since(started));
    started = Clock::now();
    const auto acf = ftio::signal::autocorrelation(scratch_);
    acf_.add(seconds_since(started));
    if (spectrum.total_samples != n || acf.size() != n) {
      throw std::runtime_error("signal layer returned a wrong-sized result");
    }
  }

  const std::vector<Tenant>& tenants_;
  ftio::engine::StreamingOptions template_;
  std::vector<std::unique_ptr<ftio::engine::StreamingSession>> sessions_;
  std::vector<std::optional<Prediction>> last_;
  std::vector<bool> dirty_;
  std::vector<std::size_t> blob_bytes_;
  Samples ingest_, predict_skip_, predict_full_, spectrum_, acf_;
  std::vector<double> scratch_;
  double window_n_sum_ = 0.0;
  std::size_t non_pow2_ = 0;
  std::size_t empty_windows_ = 0;
  double snapshot_time_ = 0.0;
  std::size_t snapshot_bytes_ = 0;
  std::size_t checkpoints_ = 0;
};

}  // namespace

Report run_online(const RunConfig& config, bool durable) {
  Report report;
  const std::string workload = durable ? "online_durable" : "online_steady";
  const double tcpu_sigma = durable ? 22.0 : 0.0;
  const ScratchDir scratch(std::filesystem::path(config.work_dir) /
                           (workload + "-" + std::to_string(config.seed) + "-" +
                            std::to_string(::getpid())));
  const std::filesystem::path journal_dir = scratch.path / "daemon";

  // Set-up: generate the tenants and construct the daemon (median of
  // kSetupRepeats; the earlier daemons and their directories are
  // discarded).
  std::vector<double> setups;
  std::vector<Tenant> tenants;
  std::unique_ptr<service::IngestDaemon> daemon;
  const service::ServiceOptions options = daemon_options(durable, journal_dir);
  for (int i = 0; i < kSetupRepeats; ++i) {
    daemon.reset();
    tenants.clear();
    std::filesystem::remove_all(journal_dir);
    const auto started = Clock::now();
    tenants = make_tenants(config.seed, tcpu_sigma);
    daemon = std::make_unique<service::IngestDaemon>(options);
    setups.push_back(seconds_since(started));
  }

  const std::size_t checkpoint_pumps =
      durable ? options.durability.checkpoint_interval_cycles : 0;
  FlushStream stream(tenants);
  Replay replay(tenants, options.session);
  const double fs = options.session.online.base.sampling_frequency;
  const double nominal_rate =
      durable ? kDurableFlushesPerSecond : kSteadyFlushesPerSecond;
  const auto target_batches = static_cast<std::size_t>(std::max(
      2.0, std::round(config.seconds * nominal_rate /
                      static_cast<double>(kBatchFlushes))));

  Samples latency;       // per flush, untraced batches
  Samples chunk_rates;   // ok flushes per second, untraced chunks
  Samples submit_spans;  // traced batches
  double untraced_time = 0.0, chunk_time = 0.0;
  std::size_t untraced_flushes = 0, traced_flushes = 0;
  double traced_pump = 0.0, traced_engine = 0.0;
  // Reconciliation compares traced and untraced batches without a
  // checkpoint: the alternation cannot split the few checkpoint batches
  // evenly, and one of them costs as much as ten plain batches.
  double plain_untraced_time = 0.0, plain_traced_time = 0.0;
  double plain_traced_stages = 0.0;
  std::size_t plain_untraced_flushes = 0, plain_traced_flushes = 0;
  double parse_time = 0.0;
  std::size_t parse_bytes = 0, parse_frames = 0;
  std::size_t requests_submitted = 0;
  std::size_t journal_bytes = 0;
  std::size_t rejected = 0, chunk_failed_before = 0;
  std::size_t pumps = 0;
  double error_sum = 0.0;
  std::size_t error_count = 0;

  std::vector<std::size_t> batch_tenants(kBatchFlushes);
  std::vector<std::vector<ftio::trace::IoRequest>> batch_requests(kBatchFlushes);
  std::vector<std::vector<ftio::trace::IoRequest>> submitted(kBatchFlushes);
  std::vector<std::vector<std::uint8_t>> frames(kBatchFlushes);
  std::vector<Clock::time_point> submitted_at(kBatchFlushes);

  const auto started = Clock::now();
  for (std::size_t batch = 0;; ++batch) {
    // The durable run ends half-way between two checkpoints, so recovery
    // always replays the same journal tail length.
    const bool at_stop_phase =
        checkpoint_pumps == 0 ||
        pumps % checkpoint_pumps == checkpoint_pumps / 2;
    if (batch >= target_batches && at_stop_phase) break;
    if (seconds_since(started) > kWallLimitSeconds) {
      throw std::runtime_error("online run exceeded its wall-clock limit");
    }

    // Client-side preparation (untimed): the next flushes, their
    // MessagePack frames, and a copy the daemon consumes.
    for (std::size_t i = 0; i < kBatchFlushes; ++i) {
      StreamFlush flush = stream.next();
      batch_tenants[i] = flush.tenant;
      batch_requests[i] = std::move(flush.requests);
      requests_submitted += batch_requests[i].size();
      if (durable) {
        ftio::trace::Trace chunk;
        chunk.app = tenants[batch_tenants[i]].name;
        chunk.requests = batch_requests[i];
        frames[i] = ftio::trace::to_msgpack(chunk);
      } else {
        submitted[i] = batch_requests[i];
      }
    }

    // A traced run alternates traced and untraced batches; the pattern
    // flips every chunk so checkpoint batches land on both sides.
    const bool traced =
        config.trace && (batch + batch / kChunkBatches) % 2 == 1;

    // Timed: submit the batch, then run drain cycles until idle.
    const auto batch_start = Clock::now();
    double batch_stages = 0.0;
    for (std::size_t i = 0; i < kBatchFlushes; ++i) {
      const std::string& name = tenants[batch_tenants[i]].name;
      submitted_at[i] = Clock::now();
      const service::Admission admission =
          durable ? daemon->submit_msgpack(name, frames[i])
                  : daemon->submit(name, std::move(submitted[i]));
      if (traced) {
        const double dt = seconds_since(submitted_at[i]);
        submit_spans.add(dt);
        batch_stages += dt;
      }
      if (!service::admitted(admission)) ++rejected;
    }
    const std::size_t pumps_before = pumps;
    for (;;) {
      const auto pump_start = Clock::now();
      const std::size_t items = daemon->pump();
      if (traced) {
        const double dt = seconds_since(pump_start);
        traced_pump += dt;
        batch_stages += dt;
      }
      ++pumps;
      if (items == 0) break;
    }
    const auto batch_end = Clock::now();
    const double batch_time = seconds_between(batch_start, batch_end);
    const bool checkpointed =
        checkpoint_pumps > 0 &&
        pumps / checkpoint_pumps != pumps_before / checkpoint_pumps;
    if (!checkpointed) {
      (traced ? plain_traced_time : plain_untraced_time) += batch_time;
      (traced ? plain_traced_flushes : plain_untraced_flushes) += kBatchFlushes;
      if (traced) plain_traced_stages += batch_stages;
    }
    if (traced) {
      traced_flushes += kBatchFlushes;
    } else {
      untraced_time += batch_time;
      untraced_flushes += kBatchFlushes;
      chunk_time += batch_time;
      for (std::size_t i = 0; i < kBatchFlushes; ++i) {
        latency.add(seconds_between(submitted_at[i], batch_end));
      }
    }

    // Engine replay of the same batch (untimed for the end-to-end view).
    if (durable) {
      for (std::size_t i = 0; i < kBatchFlushes; ++i) {
        const auto parse_start = Clock::now();
        ftio::trace::Trace decoded = ftio::trace::from_msgpack(frames[i]);
        parse_time += seconds_since(parse_start);
        parse_bytes += frames[i].size();
        ++parse_frames;
        report.check(decoded.requests.size() == batch_requests[i].size(),
                     "decoded frame lost requests");
        batch_requests[i] = std::move(decoded.requests);
        if (config.trace) {
          ftio::durability::JournalRecord record;
          record.tenant = tenants[batch_tenants[i]].name;
          record.requests = batch_requests[i];
          journal_bytes += ftio::durability::encode_journal_record(record).size();
        }
      }
    }
    double engine = replay.apply(batch_tenants, batch_requests, fs, report);
    if (checkpointed) engine += replay.checkpoint();
    if (traced) traced_engine += engine;

    // Throughput of each full chunk, counting only flushes that did not
    // fail (the replay mirrors the daemon's failed analyses).
    if (!config.trace && (batch + 1) % kChunkBatches == 0) {
      const std::size_t failed_now = rejected + replay.empty_windows();
      const double ok = static_cast<double>(kChunkBatches * kBatchFlushes -
                                            (failed_now - chunk_failed_before));
      chunk_rates.add(ok / chunk_time);
      chunk_failed_before = failed_now;
      chunk_time = 0.0;
    }

    // Quality: score every prediction the daemon publishes for the
    // tenants of this batch (untimed).
    for (std::size_t i = 0; i < kBatchFlushes; ++i) {
      const Tenant& tenant = tenants[batch_tenants[i]];
      const auto published = daemon->last_prediction(tenant.name);
      error_sum += period_error(published ? published->frequency : std::nullopt,
                                tenant.true_period);
      ++error_count;
    }
  }

  // Correctness: the daemon and the replay must agree tenant by tenant.
  const service::ShardStats stats = daemon->stats().total();
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const auto published = daemon->last_prediction(tenants[t].name);
    report.check(same_prediction(published, replay.last(t)),
                 "daemon prediction differs from the engine replay for " +
                     tenants[t].name);
    report.check(!published || !published->frequency || *published->frequency > 0.0,
                 "daemon published a non-positive frequency for " + tenants[t].name);
  }
  report.check(stats.ladder_step_downs == 0,
               "the degradation ladder stepped down (analyses left kFull)");
  report.check(stats.empty_window_analyses == replay.empty_windows(),
               "daemon and replay disagree on failed analyses");
  const std::size_t attempted = untraced_flushes + traced_flushes;
  report.attempted = attempted;
  report.failed = rejected + stats.dropped_poisoned_flushes +
                  stats.empty_window_analyses;

  // Recovery: a fresh daemon over the run's checkpoint and journal tail.
  std::vector<double> recoveries;
  ftio::durability::RecoveryStats recovered;
  if (durable) {
    daemon.reset();
    for (int i = 0; i < kRecoveryRepeats; ++i) {
      const auto recovery_start = Clock::now();
      service::IngestDaemon fresh(options);
      recoveries.push_back(seconds_since(recovery_start));
      recovered = fresh.stats().total().recovery;
      report.check(recovered.sessions_restored == tenants.size(),
                   "recovery restored " +
                       std::to_string(recovered.sessions_restored) + " of " +
                       std::to_string(tenants.size()) + " sessions");
      report.check(recovered.checkpoints_quarantined == 0,
                   "recovery quarantined a checkpoint");
    }
  }

  std::fprintf(stderr,
               "%s: %zu flushes (%zu untraced), %zu pumps, %zu failed "
               "(%zu refused, %zu empty-window, %zu quarantined-drop)\n",
               workload.c_str(), attempted, untraced_flushes, pumps,
               report.failed, rejected, stats.empty_window_analyses,
               stats.dropped_poisoned_flushes);

  if (!config.trace) {
    EndToEnd e2e;
    e2e.setup_s = median(setups);
    e2e.ops_per_s = chunk_rates.empty()
                        ? static_cast<double>(attempted - report.failed) / untraced_time
                        : chunk_rates.quantile(0.5);
    e2e.op_ms_p50 = latency.quantile(0.5) * 1e3;
    const double tail = latency.tail_fraction();
    e2e.op_ms_p99 = latency.quantile(tail) * 1e3;
    e2e.period_error_mean = error_sum / static_cast<double>(error_count);
    e2e.rss_mb_peak = peak_rss_mb();
    e2e.emit(report);
    std::fprintf(stderr,
                 "%s: %zu latency samples (tail percentile %.3f), %zu chunks\n",
                 workload.c_str(), latency.size(), tail, chunk_rates.size());
    return report;
  }

  LayerMetrics layers;
  layers.set("service.failed_share",
             static_cast<double>(report.failed) / static_cast<double>(attempted));
  if (durable) {
    layers.set("durability.recovery_ms", median(recoveries) * 1e3);
    layers.set("trace.parse_ms", parse_time * 1e3 / static_cast<double>(parse_frames));
    layers.set("trace.parse_mb_per_s", static_cast<double>(parse_bytes) / 1e6 / parse_time);
  }
  layers.set("trace.requests",
             static_cast<double>(requests_submitted) / static_cast<double>(attempted));
  replay.emit(layers);
  layers.set("service.submit_us_p50", submit_spans.quantile(0.5) * 1e6);
  layers.set("service.pump_ms_total", traced_pump * 1e3);
  layers.set("service.overhead_ms", (traced_pump - traced_engine) * 1e3);
  layers.set("service.analyses", static_cast<double>(stats.analyses));
  layers.set("service.coalesced_analyses", static_cast<double>(stats.coalesced_analyses));
  layers.set("service.grouped_analyses", static_cast<double>(stats.grouped_analyses));
  layers.set("service.empty_window_analyses",
             static_cast<double>(stats.empty_window_analyses));
  layers.set("service.quarantined", static_cast<double>(stats.poisoned_sessions));
  layers.set("service.ladder_step_downs", static_cast<double>(stats.ladder_step_downs));
  layers.set("service.queue_max_depth", static_cast<double>(stats.queue_max_depth));
  layers.set("durability.journal_appends", static_cast<double>(stats.journal_appends));
  layers.set("durability.journal_mb", static_cast<double>(journal_bytes) / 1e6);
  layers.set("durability.checkpoints_written",
             static_cast<double>(stats.checkpoints_written));
  layers.set("durability.records_replayed", static_cast<double>(recovered.records_replayed));
  layers.set("durability.sessions_restored",
             static_cast<double>(recovered.sessions_restored));
  const double untraced_per_flush =
      plain_untraced_time / static_cast<double>(plain_untraced_flushes);
  const double traced_per_flush =
      plain_traced_time / static_cast<double>(plain_traced_flushes);
  const double stage_per_flush =
      plain_traced_stages / static_cast<double>(plain_traced_flushes);
  const double gap_pct = (stage_per_flush - untraced_per_flush) / untraced_per_flush * 100.0;
  layers.set("tracing.overhead_pct",
             (traced_per_flush - untraced_per_flush) / untraced_per_flush * 100.0);
  layers.set("tracing.reconcile_gap_pct", gap_pct);
  report.check(std::abs(gap_pct) <= kReconcileTolerancePct,
               "traced stage sum does not reconcile with the untraced flush time");
  layers.emit(report);
  return report;
}

}  // namespace perfbench
