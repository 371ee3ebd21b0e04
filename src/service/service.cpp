#include "service/service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace ftio::service {

const char* admission_name(Admission admission) {
  switch (admission) {
    case Admission::kAccepted: return "accepted";
    case Admission::kCoalesced: return "coalesced";
    case Admission::kRejectedQueueFull: return "rejected-queue-full";
    case Admission::kRejectedPoisoned: return "rejected-poisoned";
    case Admission::kRejectedMalformed: return "rejected-malformed";
    case Admission::kRejectedStopped: return "rejected-stopped";
    case Admission::kRejectedDurability: return "rejected-durability";
  }
  return "unknown";
}

const char* degradation_level_name(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kFull: return "full";
    case DegradationLevel::kTriageOnly: return "triage-only";
    case DegradationLevel::kIngestOnly: return "ingest-only";
  }
  return "unknown";
}

ftio::engine::StreamingOptions default_session_template() {
  ftio::engine::StreamingOptions session;
  session.compaction.enabled = true;
  session.compaction.max_history = 64;
  session.triage.enabled = true;
  session.online.base.with_metrics = false;
  return session;
}

void LatencyHistogram::record_seconds(double seconds) {
  const double us = std::max(seconds, 0.0) * 1e6;
  std::size_t bucket = 0;
  if (us >= 1.0) {
    const auto ticks = static_cast<std::uint64_t>(us);
    bucket = std::min<std::size_t>(std::bit_width(ticks) - 1, kBuckets - 1);
  }
  ++counts[bucket];
  ++total;
}

double LatencyHistogram::percentile(double p) const {
  if (total == 0) return 0.0;
  const double clamped = std::clamp(p, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(clamped * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) {
      return static_cast<double>(std::uint64_t{1} << (i + 1)) * 1e-6;
    }
  }
  return static_cast<double>(std::uint64_t{1} << kBuckets) * 1e-6;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
  total += other.total;
}

void ShardStats::merge(const ShardStats& other) {
  submitted += other.submitted;
  accepted += other.accepted;
  coalesced += other.coalesced;
  rejected_queue_full += other.rejected_queue_full;
  rejected_poisoned += other.rejected_poisoned;
  rejected_stopped += other.rejected_stopped;
  rejected_durability += other.rejected_durability;
  processed_items += other.processed_items;
  processed_requests += other.processed_requests;
  deferred_flushes += other.deferred_flushes;
  sessions_built += other.sessions_built;
  session_build_failures += other.session_build_failures;
  analyses += other.analyses;
  for (std::size_t i = 0; i < kDegradationLevels; ++i) {
    analyses_at_level[i] += other.analyses_at_level[i];
  }
  analysis_groups += other.analysis_groups;
  grouped_analyses += other.grouped_analyses;
  coalesced_analyses += other.coalesced_analyses;
  stride_skips += other.stride_skips;
  empty_window_analyses += other.empty_window_analyses;
  dropped_ingest_only += other.dropped_ingest_only;
  poisoned_sessions += other.poisoned_sessions;
  dropped_poisoned_flushes += other.dropped_poisoned_flushes;
  evicted_idle += other.evicted_idle;
  shard_restarts += other.shard_restarts;
  journal_appends += other.journal_appends;
  journal_append_failures += other.journal_append_failures;
  journal_rotations += other.journal_rotations;
  checkpoints_written += other.checkpoints_written;
  checkpoint_failures += other.checkpoint_failures;
  replay_skipped_duplicates += other.replay_skipped_duplicates;
  recovery.merge(other.recovery);
  level = std::max(level, other.level);
  ladder_step_downs += other.ladder_step_downs;
  ladder_step_ups += other.ladder_step_ups;
  tenants += other.tenants;
  live_sessions += other.live_sessions;
  queue_depth += other.queue_depth;
  queue_max_depth = std::max(queue_max_depth, other.queue_max_depth);
  queue_capacity += other.queue_capacity;
  queue_wait.merge(other.queue_wait);
  process_time.merge(other.process_time);
}

ShardStats DaemonStats::total() const {
  ShardStats sum;
  for (const ShardStats& shard : shards) sum.merge(shard);
  return sum;
}

}  // namespace ftio::service
