#include "service/shard.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <new>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "durability/checkpoint.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"

namespace ftio::service {

namespace {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

Shard::Shard(std::size_t index, const ServiceOptions& options)
    : index_(index),
      options_(options),
      high_depth_(std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(
                 options.ladder.high_watermark *
                 static_cast<double>(options.mailbox_capacity))))),
      low_depth_(static_cast<std::size_t>(
          options.ladder.low_watermark *
          static_cast<double>(options.mailbox_capacity))),
      mailbox_(options.mailbox_capacity, options.coalesce_depth,
               options.max_item_requests) {
  FTIO_CONTRACT(options.ladder.low_watermark <= options.ladder.high_watermark,
                "ladder watermarks must satisfy low <= high");
  if (durability_on()) {
    FTIO_CONTRACT(!options_.durability.directory.empty(),
                  "durability enabled with an empty directory");
    durability_dir_ = std::filesystem::path(options_.durability.directory) /
                      ("shard-" + std::to_string(index_));
    // A failure here (unwritable directory, corrupt-beyond-repair
    // journal writer setup) is a construction failure: a daemon that
    // cannot keep its durability promise should not start.
    recover_state();
  }
}

Shard::~Shard() {
  stop();
  // The writer touches the journal, the stats and this directory.
  await_checkpoint();
}

Admission Shard::submit(std::string_view tenant,
                        std::vector<ftio::trace::IoRequest>&& requests) {
  Admission admission;
  std::size_t journal_appends = 0;
  std::size_t journal_failures = 0;
  if (poisoned(tenant)) {
    admission = Admission::kRejectedPoisoned;
  } else if (!durability_on()) {
    admission = mailbox_.push(tenant, std::move(requests), Clock::now());
  } else {
    // Write-ahead: the flush hits the journal before the mailbox, under
    // one lock so journal sequence order equals mailbox arrival order.
    // An append failure refuses the flush — acknowledging a flush the
    // journal cannot replay would break acked-implies-durable.
    const ftio::util::LockGuard journal_lock(journal_mutex_);
    if (journal_ == nullptr) {
      admission = Admission::kRejectedDurability;
    } else {
      std::uint64_t seq = 0;
      try {
        seq = journal_->append(ftio::durability::JournalRecordType::kFlush,
                               tenant, requests);
        ++journal_appends;
      } catch (const std::exception&) {
        ++journal_failures;
      }
      if (seq == 0) {
        admission = Admission::kRejectedDurability;
      } else {
        admission = mailbox_.push(tenant, std::move(requests), Clock::now(),
                                  seq);
        if (!admitted(admission)) {
          // The sequence is journaled but the flush was refused:
          // compensate so replay skips it. Best-effort — if the abort
          // cannot be written, replay re-applies an unacknowledged
          // flush, which at-least-once semantics tolerate.
          try {
            journal_->append(ftio::durability::JournalRecordType::kAbort,
                             tenant, {}, seq);
            ++journal_appends;
          } catch (const std::exception&) {
            ++journal_failures;
          }
        }
      }
    }
  }
  const ftio::util::LockGuard lock(stats_mutex_);
  ++stats_.submitted;
  stats_.journal_appends += journal_appends;
  stats_.journal_append_failures += journal_failures;
  switch (admission) {
    case Admission::kAccepted: ++stats_.accepted; break;
    case Admission::kCoalesced: ++stats_.coalesced; break;
    case Admission::kRejectedQueueFull: ++stats_.rejected_queue_full; break;
    case Admission::kRejectedPoisoned: ++stats_.rejected_poisoned; break;
    case Admission::kRejectedStopped: ++stats_.rejected_stopped; break;
    case Admission::kRejectedDurability: ++stats_.rejected_durability; break;
    case Admission::kRejectedMalformed: break;  // decided in the daemon
  }
  return admission;
}

void Shard::start() {
  FTIO_CONTRACT(!started_, "Shard::start called twice");
  started_ = true;
  worker_ = std::thread([this] { run(); });
}

void Shard::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  mailbox_.close();
  if (worker_.joinable()) {
    worker_.join();
    // The worker drained everything before exiting, so the shard state
    // is final and this thread now owns it (background mode only; in
    // foreground mode the daemon checkpoints after its own final pump).
    final_checkpoint();
  }
}

void Shard::final_checkpoint() {
  if (durability_on() && options_.durability.checkpoint_on_stop &&
      !final_checkpoint_done_) {
    final_checkpoint_done_ = true;
    CycleDelta delta;
    write_checkpoint(delta);
    delta.counters.tenants = tenants_.size();
    delta.counters.live_sessions = live_sessions_;
    const ftio::util::LockGuard lock(stats_mutex_);
    delta.fold_into(stats_);
  }
  await_checkpoint();
}

void Shard::await_checkpoint() {
  // The job catches everything itself, so get() only synchronises.
  if (checkpoint_write_.valid()) checkpoint_write_.get();
}

std::size_t Shard::pump() {
  FTIO_CONTRACT(!started_, "Shard::pump on a background shard");
  std::vector<Flush> batch;
  mailbox_.pop_batch(batch, options_.drain_batch,
                     std::chrono::milliseconds(0));
  return drain_guarded(batch);
}

void Shard::run() {
  std::vector<Flush> batch;
  while (true) {
    batch.clear();
    const bool stopping = stopping_.load(std::memory_order_relaxed);
    const std::size_t popped = mailbox_.pop_batch(
        batch, options_.drain_batch,
        stopping ? std::chrono::milliseconds(0)
                 : std::chrono::milliseconds(50));
    if (popped == 0 && stopping) break;
    drain_guarded(batch);
  }
}

std::size_t Shard::drain_guarded(std::vector<Flush>& batch) {
  const std::size_t items = batch.size();
  CycleDelta delta;
  try {
    drain(batch, delta);
  } catch (...) {
    // Crash-only: whatever the cycle corrupted lives in shard-thread
    // state, so the recovery is to throw that state away wholesale and
    // carry on from the mailbox. The exception itself is deliberately
    // not inspected — this is the handler of last resort.
    restart();
    ++delta.counters.shard_restarts;
  }
  delta.counters.tenants = tenants_.size();
  delta.counters.live_sessions = live_sessions_;
  {
    const ftio::util::LockGuard lock(stats_mutex_);
    delta.fold_into(stats_);
  }
  completed_items_.fetch_add(items, std::memory_order_release);
  return items;
}

void Shard::drain(std::vector<Flush>& batch, CycleDelta& delta) {
  if (FTIO_FAILPOINT("service.shard_crash")) {
    throw std::runtime_error("failpoint: service.shard_crash");
  }
  update_ladder(batch.size() + mailbox_.depth(), delta);
  ++cycle_;
  due_.clear();
  const DegradationLevel level = this->level();
  for (Flush& flush : batch) process_flush(flush, level, delta);
  run_due_analyses(level, delta);
  evict_idle(delta);
  if (durability_on() && options_.durability.checkpoint_interval_cycles > 0) {
    // The ladder stretches the cadence (doubled per rung): checkpoint
    // serialization is analysis-tier work and sheds under overload the
    // same way.
    const std::size_t interval =
        options_.durability.checkpoint_interval_cycles
        << static_cast<std::size_t>(level);
    if (++cycles_since_checkpoint_ >= interval) {
      cycles_since_checkpoint_ = 0;
      write_checkpoint(delta);
    }
  }
}

void Shard::update_ladder(std::size_t backlog, CycleDelta& delta) {
  DegradationLevel level = this->level();
  if (backlog >= high_depth_) {
    calm_cycles_ = 0;
    if (level != DegradationLevel::kIngestOnly) {
      level = static_cast<DegradationLevel>(
          static_cast<std::uint8_t>(level) + 1);
      ++delta.counters.ladder_step_downs;
    }
  } else if (backlog <= low_depth_ && level != DegradationLevel::kFull) {
    if (++calm_cycles_ >= options_.ladder.recovery_cycles) {
      level =
          static_cast<DegradationLevel>(static_cast<std::uint8_t>(level) - 1);
      ++delta.counters.ladder_step_ups;
      calm_cycles_ = 0;
    }
  } else {
    // The hysteresis band (and the calm band at kFull): hold.
    calm_cycles_ = 0;
  }
  level_.store(level, std::memory_order_relaxed);
}

void Shard::process_flush(Flush& flush, DegradationLevel level,
                          CycleDelta& delta) {
  const auto started = Clock::now();
  if (FTIO_FAILPOINT("service.slow_shard")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ++delta.counters.processed_items;
  delta.counters.processed_requests += flush.requests.size();
  delta.counters.queue_wait.record_seconds(
      seconds_between(flush.enqueued, started));

  Tenant& tenant = touch(flush.tenant);
  if (flush.seq != 0 && flush.seq <= tenant.last_applied_seq) {
    // Already recovered: this mailbox item survived an in-process
    // restart whose journal replay applied the same flush. Ingesting it
    // again would double-count the requests.
    ++delta.counters.replay_skipped_duplicates;
  } else if (tenant.poisoned) {
    // Admitted before the quarantine landed; drop without touching
    // anything (the tenant has no session to corrupt).
    ++delta.counters.dropped_poisoned_flushes;
  } else if (ingest_into(tenant, flush, delta)) {
    if (level == DegradationLevel::kIngestOnly) {
      ++delta.counters.dropped_ingest_only;
    } else if (options_.work_deadline_seconds > 0.0 &&
               seconds_between(flush.enqueued, started) >
                   options_.work_deadline_seconds) {
      // Stale work: the data still entered the curve (analysis windows
      // to come must see it), but its own analysis slot is forfeit.
      ++delta.counters.deadline_expired;
    } else {
      ++tenant.flushes_since_analysis;
      const std::size_t stride =
          level == DegradationLevel::kTriageOnly
              ? std::max<std::size_t>(1, options_.ladder.triage_stride)
              : 1;
      if (tenant.flushes_since_analysis < stride) {
        ++delta.counters.stride_skips;
      } else if (tenant.due_cycle == cycle_) {
        // Several queued flushes of one tenant collapse into one
        // analysis per drain cycle — backpressure coalescing at the
        // analysis tier.
        ++delta.counters.coalesced_analyses;
      } else {
        tenant.due_cycle = cycle_;
        due_.push_back(&tenant);
      }
    }
  }
  // Every non-duplicate outcome left the flush reflected in tenant
  // state: ingested into the session, buffered in the (checkpointed)
  // pending vector, or deliberately dropped by a durable quarantine.
  // Recording it applied keeps replay and checkpoint floors honest.
  tenant.last_applied_seq = std::max(tenant.last_applied_seq, flush.seq);
  delta.counters.process_time.record_seconds(
      seconds_between(started, Clock::now()));
}

bool Shard::ingest_into(Tenant& tenant, Flush& flush, CycleDelta& delta) {
  try {
    if (tenant.session == nullptr) {
      if (FTIO_FAILPOINT("service.alloc")) throw std::bad_alloc();
      tenant.pending.insert(tenant.pending.end(),
                            std::make_move_iterator(flush.requests.begin()),
                            std::make_move_iterator(flush.requests.end()));
      if (tenant.pending.size() < options_.materialize_after_requests) {
        ++delta.counters.deferred_flushes;
        return false;
      }
      tenant.session = std::make_unique<ftio::engine::StreamingSession>(
          options_.session);
      ++live_sessions_;
      ++delta.counters.sessions_built;
      tenant.session->ingest(tenant.pending);
      tenant.pending.clear();
      tenant.pending.shrink_to_fit();
    } else {
      if (FTIO_FAILPOINT("service.session_throw")) {
        throw std::runtime_error("failpoint: service.session_throw");
      }
      tenant.session->ingest(flush.requests);
    }
    return true;
  } catch (const std::exception&) {
    if (tenant.session == nullptr) {
      // Build failure: the pending buffer survives, so the next flush
      // retries — but not forever (a deterministic failure would spin).
      ++tenant.build_failures;
      ++delta.counters.session_build_failures;
      if (tenant.build_failures >= options_.max_build_failures) {
        poison(tenant, delta);
      }
    } else {
      // A session that threw mid-ingest holds state of unknown
      // integrity; quarantine it rather than analyse garbage.
      poison(tenant, delta);
    }
    return false;
  }
}

void Shard::run_due_analyses(DegradationLevel level, CycleDelta& delta) {
  // A tenant queued here by an early flush can be poisoned by a later
  // flush of the same cycle (its session is gone); quarantine wins.
  due_.erase(std::remove_if(due_.begin(), due_.end(),
                            [](const Tenant* t) { return t->poisoned; }),
             due_.end());
  if (due_.empty()) return;
  // Equal last-analysis sample counts mean equal window lengths with
  // high likelihood, and equal lengths share FFT plans: sorting the due
  // set runs them back to back into the warm plan cache. Name tie-break
  // keeps the order deterministic.
  std::sort(due_.begin(), due_.end(), [](const Tenant* a, const Tenant* b) {
    if (a->last_sample_count != b->last_sample_count) {
      return a->last_sample_count < b->last_sample_count;
    }
    return *a->name < *b->name;
  });
  std::size_t run_start = 0;
  for (std::size_t i = 1; i <= due_.size(); ++i) {
    if (i < due_.size() &&
        due_[i]->last_sample_count == due_[run_start]->last_sample_count) {
      continue;
    }
    ++delta.counters.analysis_groups;
    if (i - run_start >= 2) delta.counters.grouped_analyses += i - run_start;
    run_start = i;
  }
  for (Tenant* tenant : due_) analyze(*tenant, level, delta);
}

void Shard::analyze(Tenant& tenant, DegradationLevel level,
                    CycleDelta& delta) {
  FTIO_ASSERT(tenant.session != nullptr);
  if (!take_token(tenant)) {
    ++delta.counters.budget_skips;
    return;
  }
  try {
    if (FTIO_FAILPOINT("service.session_throw")) {
      throw std::runtime_error("failpoint: service.session_throw");
    }
    const ftio::core::Prediction prediction = tenant.session->predict();
    tenant.flushes_since_analysis = 0;
    tenant.last_sample_count = prediction.sample_count;
    ++delta.counters.analyses;
    ++delta.counters.analyses_at_level[static_cast<std::size_t>(level)];
    publish(tenant, prediction);
  } catch (const ftio::util::InvalidArgument&) {
    // The documented benign rejection: the selected window holds no
    // data yet. The flush counter is left alone so the tenant retries
    // on its next flush.
    ++delta.counters.empty_window_analyses;
  } catch (const std::exception&) {
    poison(tenant, delta);
  }
}

void Shard::refill_bucket(Tenant& tenant) {
  const BudgetOptions& budget = options_.budget;
  const auto now = Clock::now();
  if (!tenant.bucket_primed) {
    tenant.tokens = budget.burst;
    tenant.last_refill = now;
    tenant.bucket_primed = true;
  }
  tenant.tokens = std::min(
      budget.burst, tenant.tokens + seconds_between(tenant.last_refill, now) *
                                        budget.analyses_per_second);
  tenant.last_refill = now;
}

bool Shard::take_token(Tenant& tenant) {
  if (options_.budget.burst <= 0.0) return true;
  refill_bucket(tenant);
  if (tenant.tokens < 1.0) return false;
  tenant.tokens -= 1.0;
  return true;
}

bool Shard::take_snapshot_token(Tenant& tenant) {
  const double cost = options_.durability.snapshot_token_cost;
  if (cost <= 0.0 || options_.budget.burst <= 0.0) return true;
  refill_bucket(tenant);
  if (tenant.tokens < cost) return false;
  tenant.tokens -= cost;
  return true;
}

Shard::Tenant& Shard::touch(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    it = tenants_.try_emplace(name).first;
    Tenant& tenant = it->second;
    tenant.name = &it->first;
    tenant.lru_position = lru_.insert(lru_.end(), &tenant);
  } else {
    lru_.splice(lru_.end(), lru_, it->second.lru_position);
  }
  it->second.last_cycle = cycle_;
  return it->second;
}

void Shard::evict_idle(CycleDelta& delta) {
  while (tenants_.size() > options_.max_tenants_per_shard) {
    Tenant* victim = lru_.front();
    // Never evict a tenant this very cycle touched: the due_ list holds
    // raw pointers into the map.
    if (victim->last_cycle == cycle_) break;
    {
      const ftio::util::LockGuard lock(board_mutex_);
      board_.erase(*victim->name);
    }
    if (victim->session != nullptr) --live_sessions_;
    ++delta.counters.evicted_idle;
    lru_.pop_front();
    tenants_.erase(tenants_.find(*victim->name));
  }
}

void Shard::poison(Tenant& tenant, CycleDelta& delta) {
  if (tenant.session != nullptr) --live_sessions_;
  tenant.session.reset();
  tenant.pending.clear();
  tenant.pending.shrink_to_fit();
  tenant.poisoned = true;
  ++delta.counters.poisoned_sessions;
  const ftio::util::LockGuard lock(board_mutex_);
  poisoned_board_.insert(*tenant.name);
  board_.erase(*tenant.name);
}

void Shard::publish(const Tenant& tenant,
                    const ftio::core::Prediction& prediction) {
  const ftio::util::LockGuard lock(board_mutex_);
  board_[*tenant.name] = prediction;
}

void Shard::restart() {
  due_.clear();
  lru_.clear();
  tenants_.clear();
  live_sessions_ = 0;
  // The quarantine and results boards survive on purpose: poisoning is
  // an admission-side promise, and stale predictions beat lost ones.
  if (durability_on()) {
    // Crash-only recovery is where the durability layer earns its keep:
    // instead of an empty tenant map, rebuild from the newest checkpoint
    // plus a journal replay. Queued mailbox items that replay already
    // covered are deduplicated at processing by their sequence.
    try {
      recover_state();
    } catch (const std::exception&) {
      // Even the journal writer could not be rebuilt. Run non-durable-
      // degraded: admission rejects (kRejectedDurability) rather than
      // acknowledging flushes the journal cannot replay.
      const ftio::util::LockGuard journal_lock(journal_mutex_);
      journal_.reset();
    }
  }
}

void Shard::recover_state() {
  ftio::durability::RecoveryStats rs;
  std::uint64_t max_restored_seq = 0;

  // Before the lock: the writer takes it to truncate the journal. After
  // this no write is in flight, so the directory holds only finished
  // files and the remains of writes that died mid-file.
  await_checkpoint();
  const ftio::util::LockGuard journal_lock(journal_mutex_);
  journal_.reset();  // close the writer before scanning its segments
  checkpoint_floors_.clear();

  // Phase 1: newest parseable checkpoint (corrupt ones are quarantined
  // inside load_newest_checkpoint and the next-older file is tried).
  std::error_code ec;
  std::filesystem::create_directories(durability_dir_, ec);
  ftio::durability::remove_checkpoint_temps(durability_dir_);
  auto loaded = ftio::durability::load_newest_checkpoint(
      durability_dir_, options_.durability, rs);
  if (loaded.has_value()) {
    for (ftio::durability::TenantSnapshot& snap : loaded->data.tenants) {
      Tenant& tenant = touch(snap.name);
      tenant.pending = std::move(snap.pending);
      tenant.last_applied_seq = snap.last_applied_seq;
      if (snap.poisoned) {
        tenant.poisoned = true;
        const ftio::util::LockGuard lock(board_mutex_);
        poisoned_board_.insert(snap.name);
      } else if (snap.has_session) {
        try {
          auto session = std::make_unique<ftio::engine::StreamingSession>(
              options_.session);
          session->restore_state(snap.session_state);
          tenant.session = std::move(session);
          ++live_sessions_;
          ++rs.sessions_restored;
          // The restored blob doubles as the first checkpoint cache.
          tenant.snapshot_blob =
              std::make_shared<const std::vector<std::uint8_t>>(
                  std::move(snap.session_state));
          tenant.snapshot_seq = snap.last_applied_seq;
        } catch (const std::exception&) {
          // Rejected snapshot: start the tenant fresh and replay as far
          // back as the journal still reaches (floor truncation bounds
          // the loss to what older checkpoints already covered).
          ++rs.snapshots_rejected;
          tenant.last_applied_seq = 0;
        }
      }
      max_restored_seq = std::max(max_restored_seq, tenant.last_applied_seq);
      ++rs.tenants_restored;
    }
    max_restored_seq = std::max(max_restored_seq, loaded->data.floor_seq);
    // Seed the retention window so the next checkpoint's truncation
    // cannot orphan the one just restored from.
    checkpoint_floors_.push_back(loaded->data.floor_seq);
  }

  // Phase 2: journal replay. Torn tails are truncated in place; abort
  // records veto the flushes they compensate; anything at or below a
  // tenant's snapshot sequence is already inside the restored session.
  const auto journal_recovery = ftio::durability::recover_journal(
      durability_dir_ / "journal", options_.durability, rs);
  std::unordered_set<std::uint64_t> aborted;
  for (const auto& record : journal_recovery.records) {
    if (record.type == ftio::durability::JournalRecordType::kAbort) {
      aborted.insert(record.aborted_seq);
    }
  }
  CycleDelta scratch;
  for (const auto& record : journal_recovery.records) {
    if (record.type != ftio::durability::JournalRecordType::kFlush) continue;
    Tenant& tenant = touch(record.tenant);
    if (record.seq <= tenant.last_applied_seq || aborted.contains(record.seq)) {
      ++rs.records_discarded;
      continue;
    }
    if (!tenant.poisoned) {
      Flush flush;
      flush.tenant = record.tenant;
      flush.requests = record.requests;
      flush.enqueued = Clock::now();
      flush.seq = record.seq;
      rs.replayed_requests += flush.requests.size();
      ingest_into(tenant, flush, scratch);
    }
    tenant.last_applied_seq = record.seq;
    ++rs.records_replayed;
  }

  // Phase 3: a fresh writer past every sequence recovery has seen. The
  // next append lands in a new segment, so replayed files are never
  // appended to.
  journal_ = std::make_unique<ftio::durability::JournalWriter>(
      durability_dir_ / "journal", options_.durability,
      std::max(journal_recovery.max_seq, max_restored_seq) + 1);

  const ftio::util::LockGuard lock(stats_mutex_);
  recovery_.merge(rs);
}

void Shard::write_checkpoint(CycleDelta& delta) {
  await_checkpoint();  // at most one write in flight
  try {
    CheckpointJob job;
    job.tenants.reserve(tenants_.size());
    std::uint64_t floor = std::numeric_limits<std::uint64_t>::max();
    for (auto& [name, tenant] : tenants_) {
      CheckpointJob::Frame& snap = job.tenants.emplace_back();
      snap.name = name;
      snap.poisoned = tenant.poisoned;
      snap.pending = tenant.pending;
      snap.last_applied_seq = tenant.last_applied_seq;
      if (tenant.session != nullptr) {
        const bool stale = tenant.snapshot_blob == nullptr ||
                           tenant.snapshot_seq != tenant.last_applied_seq;
        if (stale) {
          // A fresh serialization is budgeted like a fraction of an
          // analysis — but only a tenant that *has* a reusable blob may
          // skip it (correctness first: without any blob, skipping
          // would checkpoint a sequence the journal no longer covers
          // after truncation).
          if (tenant.snapshot_blob == nullptr || take_snapshot_token(tenant)) {
            tenant.snapshot_blob =
                std::make_shared<const std::vector<std::uint8_t>>(
                    tenant.session->serialize_state());
            tenant.snapshot_seq = tenant.last_applied_seq;
          } else {
            ++delta.counters.snapshot_reuses;
          }
        }
        snap.session_state = tenant.snapshot_blob;
        // A stale blob reflects state at snapshot_seq; declaring that
        // sequence makes replay re-apply the gap.
        snap.last_applied_seq = tenant.snapshot_seq;
      }
      floor = std::min(floor, snap.last_applied_seq);
    }
    // The floor must also stay below every queued-but-unprocessed
    // sequence: those flushes exist only in the journal and the mailbox.
    const std::uint64_t queued_min = mailbox_.min_seq();
    if (queued_min != std::numeric_limits<std::uint64_t>::max()) {
      floor = std::min(floor, queued_min - 1);
    }
    {
      const ftio::util::LockGuard journal_lock(journal_mutex_);
      if (journal_ == nullptr) return;
      job.name_seq = journal_->next_seq();
    }
    if (floor == std::numeric_limits<std::uint64_t>::max()) {
      floor = job.name_seq == 0 ? 0 : job.name_seq - 1;
    }
    job.floor = floor;
    checkpoint_in_flight_.store(true, std::memory_order_relaxed);
    try {
      auto write = [this, job = std::move(job)] { run_checkpoint_job(job); };
      checkpoint_write_ = std::async(std::launch::async, std::move(write));
    } catch (...) {
      checkpoint_in_flight_.store(false, std::memory_order_relaxed);
      throw;
    }
  } catch (const std::exception&) {
    // A failed checkpoint costs nothing but the attempt: the previous
    // checkpoint file is still intact and the journal keeps every
    // record the failed one would have covered.
    ++delta.counters.checkpoint_failures;
  }
}

void Shard::run_checkpoint_job(const CheckpointJob& job) {
  bool written = false;
  try {
    std::vector<ftio::durability::TenantFrameView> frames;
    frames.reserve(job.tenants.size());
    for (const CheckpointJob::Frame& t : job.tenants) {
      ftio::durability::TenantFrameView& frame = frames.emplace_back();
      frame.name = t.name;
      frame.poisoned = t.poisoned;
      frame.last_applied_seq = t.last_applied_seq;
      frame.pending = t.pending;
      frame.has_session = t.session_state != nullptr;
      if (frame.has_session) frame.session_state = *t.session_state;
    }
    ftio::durability::write_checkpoint_file(durability_dir_, job.name_seq,
                                            job.floor, frames,
                                            options_.durability);
    // The file and its directory entry are on disk: only now may the
    // journal lose what it covers. Truncate through the oldest
    // *retained* floor, not this one: an older checkpoint kept as
    // corruption fallback is only useful while the records above its
    // floor still exist.
    checkpoint_floors_.push_back(job.floor);
    while (checkpoint_floors_.size() >
           std::max<std::size_t>(1, options_.durability.keep_checkpoints)) {
      checkpoint_floors_.pop_front();
    }
    std::filesystem::path open_segment;
    {
      const ftio::util::LockGuard journal_lock(journal_mutex_);
      if (journal_ != nullptr) open_segment = journal_->segment_path();
    }
    ftio::durability::truncate_journal(durability_dir_ / "journal",
                                       checkpoint_floors_.front(),
                                       open_segment);
    written = true;
  } catch (...) {
    // A failed write costs nothing but the attempt (see write_checkpoint).
  }
  {
    const ftio::util::LockGuard lock(stats_mutex_);
    ++(written ? stats_.checkpoints_written : stats_.checkpoint_failures);
  }
  checkpoint_in_flight_.store(false, std::memory_order_release);
}

ShardStats Shard::stats() const {
  ShardStats snapshot;
  {
    const ftio::util::LockGuard lock(stats_mutex_);
    snapshot = stats_;
    snapshot.recovery = recovery_;
  }
  {
    const ftio::util::LockGuard journal_lock(journal_mutex_);
    if (journal_ != nullptr) snapshot.journal_rotations = journal_->rotations();
  }
  snapshot.level = level();
  snapshot.queue_depth = mailbox_.depth();
  snapshot.queue_max_depth = mailbox_.max_depth();
  snapshot.queue_capacity = mailbox_.capacity();
  return snapshot;
}

std::optional<ftio::core::Prediction> Shard::last_prediction(
    std::string_view tenant) const {
  const ftio::util::LockGuard lock(board_mutex_);
  const auto it = board_.find(tenant);
  if (it == board_.end()) return std::nullopt;
  return it->second;
}

bool Shard::poisoned(std::string_view tenant) const {
  const ftio::util::LockGuard lock(board_mutex_);
  return poisoned_board_.contains(tenant);
}

void Shard::CycleDelta::fold_into(ShardStats& stats) const {
  stats.processed_items += counters.processed_items;
  stats.processed_requests += counters.processed_requests;
  stats.deferred_flushes += counters.deferred_flushes;
  stats.sessions_built += counters.sessions_built;
  stats.session_build_failures += counters.session_build_failures;
  stats.analyses += counters.analyses;
  for (std::size_t i = 0; i < kDegradationLevels; ++i) {
    stats.analyses_at_level[i] += counters.analyses_at_level[i];
  }
  stats.analysis_groups += counters.analysis_groups;
  stats.grouped_analyses += counters.grouped_analyses;
  stats.coalesced_analyses += counters.coalesced_analyses;
  stats.stride_skips += counters.stride_skips;
  stats.budget_skips += counters.budget_skips;
  stats.deadline_expired += counters.deadline_expired;
  stats.empty_window_analyses += counters.empty_window_analyses;
  stats.dropped_ingest_only += counters.dropped_ingest_only;
  stats.poisoned_sessions += counters.poisoned_sessions;
  stats.dropped_poisoned_flushes += counters.dropped_poisoned_flushes;
  stats.evicted_idle += counters.evicted_idle;
  stats.shard_restarts += counters.shard_restarts;
  stats.checkpoints_written += counters.checkpoints_written;
  stats.checkpoint_failures += counters.checkpoint_failures;
  stats.snapshot_reuses += counters.snapshot_reuses;
  stats.replay_skipped_duplicates += counters.replay_skipped_duplicates;
  stats.ladder_step_downs += counters.ladder_step_downs;
  stats.ladder_step_ups += counters.ladder_step_ups;
  stats.tenants = counters.tenants;
  stats.live_sessions = counters.live_sessions;
  stats.queue_wait.merge(counters.queue_wait);
  stats.process_time.merge(counters.process_time);
}

}  // namespace ftio::service
