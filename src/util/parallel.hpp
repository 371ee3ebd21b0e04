#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "util/annotated.hpp"

namespace ftio::util {

namespace detail {

/// The error channel shared by the workers of one parallel_for: the
/// failure with the *lowest index* wins, so which exception the caller
/// sees does not depend on thread scheduling — repeated runs of a batch
/// whose item 3 and item 17 both throw always surface item 3's
/// exception. The exception object itself travels as a
/// std::exception_ptr, so the caller catches the worker's original type
/// with its payload intact, not a copy funnelled through what().
class FirstErrorChannel {
 public:
  /// Records the exception thrown by `body(index)`. Thread-safe.
  void record(std::size_t index, std::exception_ptr error) {
    const LockGuard lock(mutex_);
    if (!error_ || index < index_) {
      error_ = std::move(error);
      index_ = index;
    }
    failed_.store(true, std::memory_order_relaxed);
  }

  /// Cheap cancellation probe for the worker loops (no lock).
  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  /// Rethrows the recorded exception, if any. Call after every worker
  /// joined — nothing may race record() once the owner rethrows.
  void rethrow_if_failed() {
    std::exception_ptr error;
    {
      const LockGuard lock(mutex_);
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  mutable Mutex mutex_;
  std::exception_ptr error_ FTIO_GUARDED_BY(mutex_);
  std::size_t index_ FTIO_GUARDED_BY(mutex_) =
      std::numeric_limits<std::size_t>::max();
  std::atomic<bool> failed_{false};
};

}  // namespace detail

/// Runs body(i) for i in [0, count) across up to `threads` worker threads
/// (0 = hardware concurrency). Used for the embarrassingly parallel
/// experiment sweeps (100 traces per parameter point in Sec. III-A) and
/// the engine/wavelet/forest batch loops. `body` must be safe to call
/// concurrently for distinct indices.
///
/// The callable is taken as a template parameter, so lambdas run inlined
/// into the worker loop without any std::function allocation or
/// per-index virtual-call indirection.
///
/// If a body throws, the exception of the lowest failing index is
/// captured as a std::exception_ptr and rethrown intact on the calling
/// thread after all workers join (an exception escaping a std::thread
/// would std::terminate the process); remaining indices may be skipped
/// once an exception is pending. The lowest-index rule makes the
/// propagated exception deterministic when one index fails, and
/// schedule-independent-as-possible when several do.
template <class Body>
inline void parallel_for(std::size_t count, Body&& body,
                         unsigned threads = 0) {
  if (count == 0) return;
  if (count == 1) {  // skip the (surprisingly costly) concurrency probe
    body(0);
    return;
  }
  // sysconf re-derives the online-CPU count on every call (~2us on some
  // kernels) — a measurable per-flush tax for streaming sessions, so
  // resolve it once per process.
  static const unsigned hardware =
      std::max(1u, std::thread::hardware_concurrency());
  unsigned n = threads ? threads : hardware;
  n = std::max(1u, std::min<unsigned>(n, static_cast<unsigned>(count)));
  if (n == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(n);
  std::atomic<std::size_t> next{0};
  detail::FirstErrorChannel errors;
  for (unsigned t = 0; t < n; ++t) {
    workers.emplace_back([&] {
      while (!errors.failed()) {
        const std::size_t i = next.fetch_add(1);
        if (i >= count) break;
        try {
          body(i);
        } catch (...) {
          errors.record(i, std::current_exception());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  errors.rethrow_if_failed();
}

}  // namespace ftio::util
