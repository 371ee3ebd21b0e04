#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "service/service.hpp"
#include "trace/model.hpp"
#include "util/annotated.hpp"
#include "util/contracts.hpp"
#include "util/failpoints.hpp"

namespace ftio::service {

/// Bounded multi-producer single-consumer queue of Flush items — the
/// admission-control point of one shard. Producers are the ingest
/// threads calling IngestDaemon::submit; the single consumer is the
/// shard's event loop. Two backpressure behaviours live here:
///
///  - the queue never exceeds `capacity` items (the invariant the
///    backpressure tests pin): a push at capacity is rejected, not
///    queued, so a stalled shard costs its tenants rejections instead of
///    costing the process unbounded memory;
///  - from `coalesce_depth` items onward a push first tries to merge
///    into the youngest queued item of the same tenant (append the
///    requests, keep the original enqueue stamp), so a hot tenant
///    under pressure occupies O(1) slots instead of starving the rest.
///    Coalesced items are capped at `max_item_requests` requests, which
///    bounds per-item memory the same way capacity bounds item count.
///
/// The `service.queue_overflow` failpoint makes push report full
/// spuriously — the chaos tests drive the rejection path with it.
class Mailbox {
 public:
  Mailbox(std::size_t capacity, std::size_t coalesce_depth,
          std::size_t max_item_requests)
      : capacity_(capacity),
        coalesce_depth_(coalesce_depth == 0 ? capacity / 2 : coalesce_depth),
        max_item_requests_(max_item_requests) {
    FTIO_CONTRACT(capacity_ > 0, "mailbox capacity must be positive");
  }

  /// Thread-safe producer side. Returns kAccepted, kCoalesced,
  /// kRejectedQueueFull, or kRejectedStopped; `requests` is consumed
  /// only on admission. `seq` is the flush's journal sequence (0 with
  /// durability off); coalescing keeps the highest merged sequence.
  Admission push(std::string_view tenant,
                 std::vector<ftio::trace::IoRequest>&& requests,
                 Clock::time_point now, std::uint64_t seq = 0)
      FTIO_EXCLUDES(mutex_) {
    const ftio::util::LockGuard lock(mutex_);
    if (closed_) return Admission::kRejectedStopped;
    if (FTIO_FAILPOINT("service.queue_overflow")) {
      return Admission::kRejectedQueueFull;
    }
    if (queue_.size() >= coalesce_depth_ || queue_.size() >= capacity_) {
      // Newest-first scan: the youngest same-tenant item is the one the
      // shard will reach last, so appending there preserves per-tenant
      // request order.
      for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
        if (it->tenant != tenant) continue;
        if (it->requests.size() + requests.size() > max_item_requests_) break;
        it->requests.insert(it->requests.end(),
                            std::make_move_iterator(requests.begin()),
                            std::make_move_iterator(requests.end()));
        it->seq = std::max(it->seq, seq);
        return Admission::kCoalesced;
      }
    }
    if (queue_.size() >= capacity_) return Admission::kRejectedQueueFull;
    Flush& item = queue_.emplace_back();
    item.tenant = std::string(tenant);
    item.requests = std::move(requests);
    item.enqueued = now;
    item.seq = seq;
    if (queue_.size() > max_depth_) max_depth_ = queue_.size();
    not_empty_.notify_one();
    return Admission::kAccepted;
  }

  /// Single-consumer side: moves up to `max_items` items into `out`
  /// (appended), blocking up to `wait` when the queue is empty and not
  /// closed. Returns the number of items popped.
  std::size_t pop_batch(std::vector<Flush>& out, std::size_t max_items,
                        std::chrono::milliseconds wait)
      FTIO_EXCLUDES(mutex_) {
    ftio::util::UniqueLock lock(mutex_);
    if (queue_.empty() && !closed_ && wait.count() > 0) {
      not_empty_.wait_for(lock, wait);
    }
    std::size_t popped = 0;
    while (popped < max_items && !queue_.empty()) {
      out.push_back(std::move(queue_.front()));
      queue_.pop_front();
      ++popped;
    }
    popped_total_ += popped;
    return popped;
  }

  /// Rejects all future pushes and wakes a blocked consumer. Items
  /// already queued stay poppable (stop() drains them).
  void close() FTIO_EXCLUDES(mutex_) {
    const ftio::util::LockGuard lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
  }

  std::size_t depth() const FTIO_EXCLUDES(mutex_) {
    const ftio::util::LockGuard lock(mutex_);
    return queue_.size();
  }
  std::size_t max_depth() const FTIO_EXCLUDES(mutex_) {
    const ftio::util::LockGuard lock(mutex_);
    return max_depth_;
  }
  bool empty() const FTIO_EXCLUDES(mutex_) {
    const ftio::util::LockGuard lock(mutex_);
    return queue_.empty();
  }
  /// Lowest journal sequence still queued (UINT64_MAX when no queued
  /// item carries one). The checkpoint floor must stay below every
  /// queued-but-unprocessed sequence, or truncation could delete a
  /// journal record whose flush only exists in the mailbox.
  std::uint64_t min_seq() const FTIO_EXCLUDES(mutex_) {
    const ftio::util::LockGuard lock(mutex_);
    std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
    for (const Flush& item : queue_) {
      if (item.seq != 0) min = std::min(min, item.seq);
    }
    return min;
  }
  /// Items ever handed to the consumer — with Shard's completed-items
  /// counter this decides quiescence: once producers stop, the shard is
  /// drained exactly when the queue is empty and every popped item
  /// completed its drain cycle.
  std::size_t popped_total() const FTIO_EXCLUDES(mutex_) {
    const ftio::util::LockGuard lock(mutex_);
    return popped_total_;
  }
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  const std::size_t coalesce_depth_;
  const std::size_t max_item_requests_;

  mutable ftio::util::Mutex mutex_;
  std::condition_variable_any not_empty_;
  std::deque<Flush> queue_ FTIO_GUARDED_BY(mutex_);
  std::size_t max_depth_ FTIO_GUARDED_BY(mutex_) = 0;
  std::size_t popped_total_ FTIO_GUARDED_BY(mutex_) = 0;
  bool closed_ FTIO_GUARDED_BY(mutex_) = false;
};

}  // namespace ftio::service
