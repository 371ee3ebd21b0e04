#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

/// Durability subsystem: versioned CRC32C-framed checkpoints of
/// engine::StreamingSession state plus a per-shard write-ahead flush
/// journal, so an ingest daemon restart (process crash or crash-only
/// shard restart) recovers every acknowledged flush instead of
/// rebuilding the tenant map empty.
///
/// Layout under DurabilityOptions::directory, one subdirectory per
/// shard (`shard-<index>/`):
///
///   checkpoint-<seq>.ckpt   full shard state at journal sequence <seq>
///   journal/seg-<seq>.wal   journal segment whose first record is <seq>
///
/// Recovery invariants (enforced by durability_chaos_test):
///  - an acknowledged flush (Admission::kAccepted/kCoalesced with
///    durability enabled) survives restart: it is either inside a
///    checkpointed session snapshot or replayed from the journal tail;
///  - torn or corrupt bytes are never trusted: a torn journal tail is
///    truncated, a corrupt record stops the scan of its segment, a
///    corrupt checkpoint is quarantined (renamed `.corrupt`) and the
///    next-older one is tried — recovery never throws on bad bytes;
///  - a session restored from a snapshot produces byte-identical
///    predictions to an uninterrupted one (engine_snapshot_test).
namespace ftio::durability {

/// Configuration of the checkpoint/WAL layer, carried inside
/// service::ServiceOptions. Disabled (and cost-free) by default.
struct DurabilityOptions {
  bool enabled = false;
  /// Root directory; shards create `shard-<index>/` below it. Must be
  /// non-empty when enabled.
  std::string directory;
  /// Rotate the journal to a fresh segment beyond this size; smaller
  /// segments let checkpoint-floor truncation reclaim space sooner.
  std::size_t max_segment_bytes = 4u << 20;
  /// fsync the journal after every N appended records; 1 makes every
  /// acknowledged flush durable before the ack (the strict contract),
  /// 0 trusts OS writeback (bench mode — a crash may lose the tail).
  std::size_t fsync_every_records = 1;
  /// Take a checkpoint every N drain cycles. The effective cadence is
  /// stretched by the degradation ladder (doubled per level), so
  /// durability work sheds under overload like any other analysis. A
  /// checkpoint holds every session at its last applied journal
  /// sequence, serializing only sessions that changed since the
  /// previous checkpoint.
  std::size_t checkpoint_interval_cycles = 64;
  /// Take a final checkpoint when the daemon stops cleanly.
  bool checkpoint_on_stop = true;
  /// Hard cap on one decoded journal record / checkpoint tenant frame;
  /// larger length prefixes are treated as corruption.
  std::size_t max_record_bytes = 16u << 20;
  /// Checkpoint files retained after a successful write (the newest
  /// plus spares to fall back on when the newest is later corrupted).
  std::size_t keep_checkpoints = 2;
};

/// What recovery found and did; exposed per shard and aggregated by
/// IngestDaemon::stats().
struct RecoveryStats {
  std::size_t tenants_restored = 0;    ///< tenant entries from checkpoint
  std::size_t sessions_restored = 0;   ///< session snapshots decoded
  std::size_t snapshots_rejected = 0;  ///< session blobs that failed decode
  std::size_t records_replayed = 0;    ///< journal records applied
  std::size_t records_discarded = 0;   ///< corrupt/stale records dropped
  std::size_t replayed_requests = 0;   ///< I/O requests re-ingested
  std::size_t torn_tails_truncated = 0;
  std::size_t checkpoints_quarantined = 0;  ///< renamed `.corrupt`
  std::size_t tenant_frames_skipped = 0;    ///< corrupt frames inside a ckpt

  void merge(const RecoveryStats& other) {
    tenants_restored += other.tenants_restored;
    sessions_restored += other.sessions_restored;
    snapshots_rejected += other.snapshots_rejected;
    records_replayed += other.records_replayed;
    records_discarded += other.records_discarded;
    replayed_requests += other.replayed_requests;
    torn_tails_truncated += other.torn_tails_truncated;
    checkpoints_quarantined += other.checkpoints_quarantined;
    tenant_frames_skipped += other.tenant_frames_skipped;
  }
};

}  // namespace ftio::durability
