#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <future>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/online.hpp"
#include "durability/journal.hpp"
#include "engine/streaming.hpp"
#include "service/mailbox.hpp"
#include "service/service.hpp"
#include "trace/model.hpp"
#include "util/annotated.hpp"

namespace ftio::service {

/// Transparent string hashing so the tenant containers accept
/// string_view lookups without allocating.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// One shard of the ingest daemon: a bounded mailbox plus a
/// single-threaded event loop owning every StreamingSession whose tenant
/// hashes here. Concurrency is by ownership, not by locking: the tenant
/// map, LRU list, and sessions are touched exclusively by the shard
/// thread (or by pump() in foreground mode — same exclusivity, caller-
/// side), so the only shared state is the mailbox, the stats block, and
/// the results board, each behind its own mutex, plus the checkpoint
/// writer (see write_checkpoint).
///
/// Robustness behaviours owned by this class:
///  - the degradation ladder: drain cycles sample the mailbox backlog
///    and move the shard's DegradationLevel one rung at a time
///    (hysteretic recovery — see LadderOptions);
///  - analysis coalescing: one drain cycle analyses each due tenant
///    once, no matter how many of its flushes were queued, and executes
///    the due set sorted by last analysis sample count so equal-length
///    windows run back to back into the warm FFT-plan cache;
///  - fault isolation: a throwing session is quarantined ("poisoned" —
///    session destroyed, tenant rejected at admission from then on,
///    healthy tenants untouched); a throwing drain cycle triggers a
///    crash-only restart (tenant map rebuilt empty, mailbox and
///    quarantine survive);
///  - resource bounds: sessions materialise only after
///    `materialize_after_requests` buffered requests, and the least-
///    recently-active tenants are evicted beyond `max_tenants_per_shard`.
class Shard {
 public:
  Shard(std::size_t index, const ServiceOptions& options);
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Admission control, callable from any thread: rejects quarantined
  /// tenants, then delegates to the mailbox's bounded push. Counted.
  Admission submit(std::string_view tenant,
                   std::vector<ftio::trace::IoRequest>&& requests);

  /// Spawns the worker thread (background mode only; call once).
  void start();
  /// Closes the mailbox, drains what is queued, and joins the worker.
  /// Idempotent. In foreground mode just closes the mailbox.
  void stop();

  /// Foreground mode: runs one drain cycle (up to `drain_batch` items)
  /// on the caller's thread. Returns the number of items processed; a
  /// return of 0 still runs the ladder update, so idle pumps recover a
  /// degraded shard. Must not be mixed with a started worker.
  std::size_t pump();

  /// True when nothing is queued, every popped item finished its drain
  /// cycle, and no checkpoint write is in flight. Exact only while no
  /// producer is submitting (the documented IngestDaemon::drain
  /// contract); both counters are monotone, so once producers stop this
  /// converges and sticks (an idle cycle that starts a checkpoint makes
  /// it false until that write finishes).
  bool quiesced() const {
    const std::size_t completed =
        completed_items_.load(std::memory_order_acquire);
    return mailbox_.empty() && completed >= mailbox_.popped_total() &&
           !checkpoint_in_flight_.load(std::memory_order_acquire);
  }

  /// Eventually-consistent counter snapshot: processing counters are
  /// folded in once per drain cycle, admission counters on every submit.
  ShardStats stats() const;

  /// Latest published prediction of one tenant (empty until its first
  /// successful analysis; cleared on quarantine and idle eviction).
  std::optional<ftio::core::Prediction> last_prediction(
      std::string_view tenant) const;
  /// True when the tenant is quarantined. Survives shard restarts and
  /// idle eviction; cleared only by daemon teardown.
  bool poisoned(std::string_view tenant) const;

  DegradationLevel level() const { return level_.load(std::memory_order_relaxed); }
  std::size_t index() const { return index_; }

  /// Writes one final checkpoint (durability enabled + checkpoint_on_stop
  /// only; idempotent, best-effort), then waits for it like
  /// await_checkpoint. Callable only when the shard is quiescent: after
  /// the worker joined (background) or after the owner finished pumping
  /// (foreground) — IngestDaemon::stop sequences this.
  void final_checkpoint();

  /// Blocks until the checkpoint write in flight, if any, has finished:
  /// its file renamed, the journal truncated, and its outcome counted in
  /// stats(). Shard-thread only: the pump owner in foreground mode, or
  /// the stopping thread once the worker joined.
  void await_checkpoint();

 private:
  /// Per-tenant shard-thread state. `session` stays null while the
  /// tenant's requests sit in the pre-materialization buffer — with
  /// Zipf-skewed tenancy that is most tenants, and the buffer costs
  /// O(materialize_after_requests) instead of a session.
  struct Tenant {
    const std::string* name = nullptr;  ///< points at the map key
    std::unique_ptr<ftio::engine::StreamingSession> session;
    std::vector<ftio::trace::IoRequest> pending;
    std::size_t build_failures = 0;
    std::size_t flushes_since_analysis = 0;
    /// Sample count of the last analysis — the warm-plan grouping key.
    std::size_t last_sample_count = 0;
    bool poisoned = false;
    // Durability. last_applied_seq is the highest journal sequence
    // reflected in this tenant's state (session + pending); the cached
    // snapshot blob (null until the first serialization) lets a
    // checkpoint reuse the last serialization when the token bucket
    // cannot afford a fresh one. It is immutable and shared with the
    // checkpoint writer, which may still be streaming it to disk.
    std::uint64_t last_applied_seq = 0;
    std::shared_ptr<const std::vector<std::uint8_t>> snapshot_blob;
    std::uint64_t snapshot_seq = 0;
    // Token bucket (BudgetOptions).
    double tokens = 0.0;
    Clock::time_point last_refill;
    bool bucket_primed = false;
    // Drain-cycle bookkeeping.
    std::uint64_t last_cycle = 0;  ///< last cycle that touched the tenant
    std::uint64_t due_cycle = 0;   ///< cycle that marked it due (dedup)
    std::list<Tenant*>::iterator lru_position;
  };

  using TenantMap =
      std::unordered_map<std::string, Tenant, StringHash, std::equal_to<>>;

  /// Cycle-local counter deltas, folded into stats_ under one lock per
  /// drain cycle instead of one per item.
  struct CycleDelta {
    ShardStats counters;  ///< only the processing counters are used
    void fold_into(ShardStats& stats) const;
  };

  void run();  ///< worker thread body (background mode)
  /// One drain cycle over `batch` (may be empty: ladder still updates).
  /// Throws only on crash-injection or library bugs — the caller treats
  /// any escape as a shard crash.
  void drain(std::vector<Flush>& batch, CycleDelta& delta);
  /// drain() plus the crash-only restart guard and the stats fold.
  std::size_t drain_guarded(std::vector<Flush>& batch);
  void update_ladder(std::size_t backlog, CycleDelta& delta);
  void process_flush(Flush& flush, DegradationLevel level, CycleDelta& delta);
  /// Buffers or ingests one flush into the tenant; materialises the
  /// session at the threshold. Returns false when the flush was only
  /// buffered or the tenant got quarantined. The `service.alloc` and
  /// `service.session_throw` failpoints live here.
  bool ingest_into(Tenant& tenant, Flush& flush, CycleDelta& delta);
  /// Analyses every due tenant once, grouped by last sample count.
  void run_due_analyses(DegradationLevel level, CycleDelta& delta);
  void analyze(Tenant& tenant, DegradationLevel level, CycleDelta& delta);
  void refill_bucket(Tenant& tenant);
  bool take_token(Tenant& tenant);
  bool take_snapshot_token(Tenant& tenant);
  /// Finds or creates the tenant entry and moves it to the LRU tail.
  Tenant& touch(const std::string& name);
  void evict_idle(CycleDelta& delta);
  /// Quarantines: drops session + buffer, flags the name on the board.
  void poison(Tenant& tenant, CycleDelta& delta);
  void publish(const Tenant& tenant, const ftio::core::Prediction& p);
  /// Crash-only restart: rebuilds the shard-thread state from scratch.
  /// The mailbox (with everything still queued) and the quarantine board
  /// survive; live sessions do not. With durability on, the state is
  /// rebuilt from the newest checkpoint plus a journal replay instead of
  /// empty.
  void restart();

  // Durability (all no-ops while options_.durability.enabled is false).
  bool durability_on() const { return options_.durability.enabled; }
  /// Checkpoint restore + journal replay into the (empty) tenant map,
  /// then (re)creates the journal writer past every recovered sequence.
  /// Runs in the constructor and inside restart(); throws only when the
  /// journal writer cannot be constructed at all.
  void recover_state();
  /// Everything a checkpoint write needs, owned by the write: pending
  /// requests are copied and session blobs shared, so the drain cycle
  /// goes on mutating tenants while the writer streams.
  struct CheckpointJob {
    struct Frame {
      std::string name;
      bool poisoned = false;
      std::uint64_t last_applied_seq = 0;
      std::vector<ftio::trace::IoRequest> pending;
      std::shared_ptr<const std::vector<std::uint8_t>> session_state;
    };
    std::uint64_t name_seq = 0;
    std::uint64_t floor = 0;
    std::vector<Frame> tenants;
  };

  /// The drain-cycle half of a checkpoint: waits for the previous write,
  /// serializes stale sessions (reusing cached blobs for token-broke
  /// ones), computes the floor, and hands the job to a writer started
  /// with std::async. A failure here is counted in `delta`.
  void write_checkpoint(CycleDelta& delta);
  /// The writer half, off the drain cycle: streams checkpoint-<seq>.ckpt
  /// atomically, prunes, then records the floor and truncates the
  /// journal, and counts the outcome into stats_.
  void run_checkpoint_job(const CheckpointJob& job);

  const std::size_t index_;
  const ServiceOptions& options_;
  const std::size_t high_depth_;  ///< ladder step-down backlog threshold
  const std::size_t low_depth_;   ///< ladder calm-cycle backlog threshold

  Mailbox mailbox_;
  std::thread worker_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> completed_items_{0};
  bool started_ = false;
  std::atomic<DegradationLevel> level_{DegradationLevel::kFull};

  // Shard-thread-owned state (pump() caller in foreground mode). No
  // locks by design; restart() is the only wholesale mutation.
  TenantMap tenants_;
  std::list<Tenant*> lru_;  ///< front = least recently active
  std::vector<Tenant*> due_;
  std::uint64_t cycle_ = 0;
  std::size_t calm_cycles_ = 0;
  std::size_t live_sessions_ = 0;
  std::size_t cycles_since_checkpoint_ = 0;
  bool final_checkpoint_done_ = false;
  /// Floors of the retained checkpoints, oldest first. The journal is
  /// truncated through the *oldest* retained floor, so falling back from
  /// a quarantined newest checkpoint to an older one still finds every
  /// record the older snapshot needs replayed. Written by the checkpoint
  /// writer; recover_state touches it only after await_checkpoint.
  std::deque<std::uint64_t> checkpoint_floors_;

  /// Admission-order serialization of the durability path: held across
  /// journal-append + mailbox-push so the journal's sequence order
  /// matches the mailbox's per-tenant arrival order, and by the shard
  /// thread for truncation and recovery. Null writer = durability off,
  /// or the journal could not be rebuilt after a restart (admission
  /// then rejects with kRejectedDurability rather than ack non-durable
  /// flushes).
  mutable ftio::util::Mutex journal_mutex_;
  std::filesystem::path durability_dir_;
  std::unique_ptr<ftio::durability::JournalWriter> journal_
      FTIO_GUARDED_BY(journal_mutex_);

  mutable ftio::util::Mutex stats_mutex_;
  ShardStats stats_ FTIO_GUARDED_BY(stats_mutex_);
  ftio::durability::RecoveryStats recovery_ FTIO_GUARDED_BY(stats_mutex_);

  /// The results board: the one place admission-side reads meet
  /// shard-side writes about tenants. Kept apart from stats_mutex_ so a
  /// stats scrape never contends with the per-analysis publish.
  mutable ftio::util::Mutex board_mutex_;
  std::unordered_map<std::string, ftio::core::Prediction, StringHash,
                     std::equal_to<>>
      board_ FTIO_GUARDED_BY(board_mutex_);
  std::unordered_set<std::string, StringHash, std::equal_to<>> poisoned_board_
      FTIO_GUARDED_BY(board_mutex_);

  /// The one checkpoint write in flight (invalid when none), declared
  /// after everything the writer uses. Shard-thread owned; the flag
  /// mirrors it for quiesced() and is cleared by the writer as its last
  /// act.
  std::future<void> checkpoint_write_;
  std::atomic<bool> checkpoint_in_flight_{false};
};

}  // namespace ftio::service
