#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "durability/durability.hpp"
#include "engine/streaming.hpp"
#include "trace/formats.hpp"
#include "trace/model.hpp"

/// The sharded multi-tenant ingest front end (ROADMAP item 1): a
/// long-running daemon that owns one engine::StreamingSession per active
/// tenant, partitioned hash(tenant) -> shard. Each shard is a
/// single-threaded event loop fed through a bounded MPSC mailbox, so the
/// StreamingSession concurrency contract (mutating calls serialised,
/// reference accessors quiescent) holds by construction — only the shard
/// thread ever touches its sessions. Robustness is the design driver:
/// admission control and backpressure at the mailbox, a graceful-
/// degradation ladder that sheds analysis quality before availability,
/// and fault isolation (parse containment, session quarantine, work-item
/// deadlines, crash-only shard restart) at every layer. See
/// service/daemon.hpp for the entry point and README "Ingest service"
/// for the architecture contract.
namespace ftio::service {

using Clock = std::chrono::steady_clock;

/// Outcome of one flush submission, decided at admission time.
enum class Admission {
  kAccepted,          ///< enqueued as a new mailbox item
  kCoalesced,         ///< merged into a queued item of the same tenant
  kRejectedQueueFull, ///< mailbox at capacity and nothing to coalesce into
  kRejectedPoisoned,  ///< the tenant's session is quarantined
  kRejectedMalformed, ///< a framed submission decoded to zero valid records
  kRejectedStopped,   ///< the daemon is shutting down
  /// Durability is on and the write-ahead journal append failed: the
  /// flush cannot be made durable, so it is refused rather than
  /// acknowledged on a promise the journal cannot keep.
  kRejectedDurability,
};

const char* admission_name(Admission admission);
inline bool admitted(Admission a) {
  return a == Admission::kAccepted || a == Admission::kCoalesced;
}

/// The graceful-degradation ladder, cheapest rung last (the Yaseen et
/// al. cost-vs-quality posture): under queue pressure a shard steps
/// down one rung per drain cycle and recovers one rung per
/// `recovery_cycles` consecutive calm cycles, so quality degrades fast
/// and restores hysteretically.
enum class DegradationLevel : std::uint8_t {
  /// Every flush analysed.
  kFull = 0,
  /// Analysis cadence stretched to every `triage_stride`-th flush; the
  /// session's triage filter bank answers the flushes in between.
  kTriageOnly = 1,
  /// Ingest only: the incremental curve keeps extending (compaction
  /// bounds it to O(window)), no analysis runs at all.
  kIngestOnly = 2,
};

inline constexpr std::size_t kDegradationLevels = 3;
const char* degradation_level_name(DegradationLevel level);

/// Degradation-ladder knobs, watermarks as fractions of the mailbox
/// capacity.
struct LadderOptions {
  /// Queue depth at or above this fraction steps one rung down.
  double high_watermark = 0.75;
  /// Depth at or below this fraction counts as a calm cycle.
  double low_watermark = 0.25;
  /// Consecutive calm cycles before one rung of recovery (hysteresis:
  /// a single quiet cycle in a storm must not flap the ladder).
  std::size_t recovery_cycles = 4;
  /// Analysis stride at kTriageOnly: predict() runs on every Nth flush
  /// per tenant (must be >= 1).
  std::size_t triage_stride = 4;
};

/// Per-tenant token-bucket analysis budget. Refilled in wall-clock time;
/// a burst of 0 disables metering. Exhausted tenants keep ingesting —
/// only their analysis cadence degrades (ingest-only is the ladder's
/// cheapest rung applied per tenant).
struct BudgetOptions {
  double analyses_per_second = 0.0;  ///< token refill rate
  double burst = 0.0;                ///< bucket capacity; 0 = unmetered
};

/// The tenant-session template a multi-tenant daemon wants by default:
/// compaction and triage on (bounded memory, cheap steady-state
/// flushes) and a bounded prediction history. Each session analyses on
/// the shard thread that owns it; the shard event loop is the
/// parallelism axis.
ftio::engine::StreamingOptions default_session_template();

/// Configuration of the daemon. The embedded StreamingOptions is the
/// template every tenant session is built from, defaulted to
/// default_session_template(); override it wholesale for the exact
/// offline-equivalent posture.
struct ServiceOptions {
  std::size_t shards = 2;
  /// true: one worker thread per shard (the daemon posture). false: no
  /// threads are spawned and the caller drains synchronously via
  /// pump() — the deterministic mode the invariant tests and the fuzz
  /// harness run in.
  bool background = true;
  /// Mailbox bound, in work items per shard. The hard memory backstop:
  /// admission beyond it rejects, never queues.
  std::size_t mailbox_capacity = 256;
  /// Queue depth at which same-tenant flushes start coalescing into
  /// queued items instead of consuming new slots (0 = capacity / 2).
  std::size_t coalesce_depth = 0;
  /// A queued item stops accepting coalesced requests at this many
  /// requests (bounds per-item memory under coalescing).
  std::size_t max_item_requests = 4096;
  /// Work items drained per shard cycle (the ladder sampling cadence).
  std::size_t drain_batch = 64;
  /// A work item older than this when dequeued is ingested but not
  /// analysed (its analysis window has already moved on); 0 disables.
  double work_deadline_seconds = 0.0;
  /// Live tenants per shard before least-recently-active eviction kicks
  /// in. The second memory backstop: a million-tenant stream runs in
  /// O(max_tenants_per_shard * shards) resident sessions.
  std::size_t max_tenants_per_shard = 4096;
  /// Requests buffered per tenant before its StreamingSession is built.
  /// With Zipf-skewed tenancy most tenants never cross this threshold,
  /// so the long tail costs a small pending buffer, not a session.
  std::size_t materialize_after_requests = 1;
  /// Session construction attempts before a tenant is quarantined (a
  /// deterministically failing build must not retry forever).
  std::size_t max_build_failures = 3;
  /// Template for every tenant session.
  ftio::engine::StreamingOptions session = default_session_template();
  LadderOptions ladder;
  BudgetOptions budget;
  /// Checkpoint/WAL layer (see durability/durability.hpp). Disabled by
  /// default: no journal, no checkpoints, no recovery, zero cost.
  ftio::durability::DurabilityOptions durability;
};

/// One queued unit of shard work: a tenant's flushed request chunk.
struct Flush {
  std::string tenant;
  std::vector<ftio::trace::IoRequest> requests;
  Clock::time_point enqueued;
  /// Journal sequence of the flush (0 when durability is off). A
  /// coalesced item carries the highest merged sequence — replaying up
  /// to it covers every flush folded in.
  std::uint64_t seq = 0;
};

/// Fixed-bucket log2 latency histogram (microsecond resolution, capped
/// at ~17 minutes): cheap enough to record per work item, precise
/// enough for shed-load percentiles. Bucket i covers [2^i, 2^(i+1)) us.
struct LatencyHistogram {
  static constexpr std::size_t kBuckets = 30;
  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t total = 0;

  void record_seconds(double seconds);
  /// Upper edge of the bucket holding the p-quantile, in seconds
  /// (0 when empty). p in [0, 1].
  double percentile(double p) const;
  void merge(const LatencyHistogram& other);
};

/// Counters of one shard, snapshot under the shard's stats lock.
/// Admission counters are written by the submitting (ingest) threads,
/// processing counters by the shard thread.
struct ShardStats {
  // Admission.
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t coalesced = 0;
  std::size_t rejected_queue_full = 0;
  std::size_t rejected_poisoned = 0;
  std::size_t rejected_stopped = 0;
  std::size_t rejected_durability = 0;  ///< journal append failed

  // Processing.
  std::size_t processed_items = 0;
  std::size_t processed_requests = 0;
  std::size_t deferred_flushes = 0;  ///< buffered pre-materialization
  std::size_t sessions_built = 0;
  std::size_t session_build_failures = 0;
  std::size_t analyses = 0;
  std::array<std::size_t, kDegradationLevels> analyses_at_level{};
  /// Same-window-length admission groups executed per drain cycle, and
  /// how many analyses ran inside a group of >= 2 (riding warm plans).
  std::size_t analysis_groups = 0;
  std::size_t grouped_analyses = 0;
  /// Analyses answered for several queued flushes of one tenant at once
  /// (drain-cycle dedup — backpressure coalescing at the analysis tier).
  std::size_t coalesced_analyses = 0;
  std::size_t stride_skips = 0;    ///< kTriageOnly cadence skips
  std::size_t budget_skips = 0;    ///< token bucket empty
  std::size_t deadline_expired = 0;
  std::size_t empty_window_analyses = 0;  ///< benign InvalidArgument
  std::size_t dropped_ingest_only = 0;    ///< flushes at kIngestOnly

  // Fault isolation.
  std::size_t poisoned_sessions = 0;
  std::size_t dropped_poisoned_flushes = 0;
  std::size_t evicted_idle = 0;
  std::size_t shard_restarts = 0;

  // Durability (all zero while DurabilityOptions::enabled is false).
  std::size_t journal_appends = 0;
  std::size_t journal_append_failures = 0;
  std::size_t journal_rotations = 0;
  std::size_t checkpoints_written = 0;
  std::size_t checkpoint_failures = 0;
  std::size_t snapshot_reuses = 0;  ///< stale blob reused (token-broke tenant)
  /// Flushes skipped at processing because the journal already replayed
  /// them (mailbox items surviving an in-process restart).
  std::size_t replay_skipped_duplicates = 0;
  ftio::durability::RecoveryStats recovery;

  // Ladder.
  DegradationLevel level = DegradationLevel::kFull;
  std::size_t ladder_step_downs = 0;
  std::size_t ladder_step_ups = 0;

  // Occupancy.
  std::size_t tenants = 0;
  std::size_t live_sessions = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_max_depth = 0;
  std::size_t queue_capacity = 0;

  LatencyHistogram queue_wait;
  LatencyHistogram process_time;

  /// Folds `other` into this (histograms bucket-wise, level by max —
  /// used by DaemonStats::total()).
  void merge(const ShardStats& other);
};

/// Daemon-wide snapshot: per-shard stats plus the ingest-side parse
/// containment counters.
struct DaemonStats {
  std::vector<ShardStats> shards;
  std::size_t malformed_records = 0;   ///< records skipped by kSkipBad
  std::size_t rejected_malformed = 0;  ///< framed flushes with 0 records

  ShardStats total() const;
};

}  // namespace ftio::service
