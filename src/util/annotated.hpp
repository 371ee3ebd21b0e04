#pragma once

#include <mutex>

/// Thread-safety annotation layer (clang's -Wthread-safety, no-ops on
/// GCC and MSVC): lock contracts that today live in comments — "counters
/// are only touched under `mutex`", "must be safe to call concurrently"
/// — become declarations the compiler checks on every clang CI leg. A
/// forgotten lock, a guarded member read from an unlocked path, or a
/// helper called without its required capability is a compile error
/// (-Werror=thread-safety), not a TSan-leg coin flip.
///
/// The macro set mirrors the vocabulary of clang's analysis:
///  - FTIO_CAPABILITY marks a type as a lockable capability,
///  - FTIO_GUARDED_BY(m) ties a data member to the mutex that protects
///    it (reads and writes then require m held),
///  - FTIO_REQUIRES(m) declares that a function must be called with m
///    held (the "_locked" suffix convention, compiler-enforced),
///  - FTIO_EXCLUDES(m) declares that a function acquires m itself and
///    must not be entered with it held (catches self-deadlock),
///  - FTIO_ACQUIRE / FTIO_RELEASE annotate the lock primitives,
///  - FTIO_NO_THREAD_SAFETY_ANALYSIS opts one function out (used only
///    inside the wrappers below, never in analysis code).
///
/// Use the util::Mutex / util::LockGuard / util::UniqueLock wrappers
/// instead of the std primitives wherever a capability is declared: the
/// analysis only understands lock scopes expressed through annotated
/// types.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define FTIO_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef FTIO_THREAD_ANNOTATION
#define FTIO_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define FTIO_CAPABILITY(x) FTIO_THREAD_ANNOTATION(capability(x))
#define FTIO_SCOPED_CAPABILITY FTIO_THREAD_ANNOTATION(scoped_lockable)
#define FTIO_GUARDED_BY(x) FTIO_THREAD_ANNOTATION(guarded_by(x))
#define FTIO_PT_GUARDED_BY(x) FTIO_THREAD_ANNOTATION(pt_guarded_by(x))
#define FTIO_REQUIRES(...) \
  FTIO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define FTIO_REQUIRES_SHARED(...) \
  FTIO_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define FTIO_ACQUIRE(...) \
  FTIO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define FTIO_RELEASE(...) \
  FTIO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define FTIO_EXCLUDES(...) FTIO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define FTIO_RETURN_CAPABILITY(x) FTIO_THREAD_ANNOTATION(lock_returned(x))
#define FTIO_NO_THREAD_SAFETY_ANALYSIS \
  FTIO_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ftio::util {

/// std::mutex carrying the capability annotation. Non-recursive;
/// declare it `mutable` when const accessors lock it.
class FTIO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FTIO_ACQUIRE() { mutex_.lock(); }
  void unlock() FTIO_RELEASE() { mutex_.unlock(); }

 private:
  std::mutex mutex_;
};

/// std::lock_guard equivalent over util::Mutex: acquires for the
/// lifetime of the scope. The analysis treats the scope as holding the
/// capability, so guarded members are accessible inside it.
class FTIO_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) FTIO_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() FTIO_RELEASE() { mutex_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// Scoped lock that can be dropped and re-taken mid-scope (Mailbox waits
/// on a condition variable with it). Starts held.
class FTIO_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) FTIO_ACQUIRE(mutex)
      : mutex_(mutex), held_(true) {
    mutex_.lock();
  }
  ~UniqueLock() FTIO_RELEASE() {
    if (held_) mutex_.unlock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() FTIO_ACQUIRE() {
    mutex_.lock();
    held_ = true;
  }
  void unlock() FTIO_RELEASE() {
    mutex_.unlock();
    held_ = false;
  }
  bool owns_lock() const { return held_; }

 private:
  Mutex& mutex_;
  bool held_;
};

}  // namespace ftio::util
