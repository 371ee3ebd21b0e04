#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace ftio::util {

/// Contiguous sequence that grows at the back and is evicted at the
/// front, for streaming state bounded to a moving window (the bandwidth
/// curve and its sweep events). drop_front() only advances a head index,
/// so an eviction costs O(1) whatever the live size. The dead prefix is
/// reclaimed when an append runs out of room:
///  - if the buffer already holds 1.25 x (live + appended), the live range
///    slides down to the start in place;
///  - otherwise it moves into a new buffer of 1.5 x (live + appended).
/// Either way only live elements move, and a slide leaves at least a
/// quarter of (live + appended) free, so over a steady drop/append stream
/// the elements moved stay within 4 x the elements evicted.
///
/// Copies hold exactly the live range. Dropped elements stay constructed
/// until a slide or reallocation overwrites or frees them: the buffer is
/// meant for plain value types.
template <class T>
class SlidingBuffer {
 public:
  SlidingBuffer() = default;
  /// Adopts `items` as the live range, with its capacity.
  explicit SlidingBuffer(std::vector<T> items) : buf_(std::move(items)) {}

  SlidingBuffer(const SlidingBuffer& other)
      : buf_(other.begin(), other.end()) {}
  SlidingBuffer(SlidingBuffer&& other) noexcept
      : buf_(std::move(other.buf_)), head_(std::exchange(other.head_, 0)) {
    other.buf_.clear();
  }
  SlidingBuffer& operator=(const SlidingBuffer& other) {
    if (this != &other) *this = SlidingBuffer(other);
    return *this;
  }
  SlidingBuffer& operator=(SlidingBuffer&& other) noexcept {
    buf_ = std::move(other.buf_);
    head_ = std::exchange(other.head_, 0);
    other.buf_.clear();
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return buf_.size() - head_; }
  [[nodiscard]] bool empty() const { return buf_.size() == head_; }
  /// Allocated elements, dropped prefix and free tail included.
  [[nodiscard]] std::size_t capacity() const { return buf_.capacity(); }

  T* data() { return buf_.data() + head_; }
  const T* data() const { return buf_.data() + head_; }
  T* begin() { return data(); }
  T* end() { return buf_.data() + buf_.size(); }
  const T* begin() const { return data(); }
  const T* end() const { return buf_.data() + buf_.size(); }
  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  const T& front() const { return *begin(); }
  const T& back() const { return end()[-1]; }

  /// Removes the first `n` elements in O(1).
  void drop_front(std::size_t n) {
    FTIO_ASSERT(n <= size());
    head_ += n;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    }
  }

  void append(std::span<const T> items) {
    reserve_back(items.size());
    buf_.insert(buf_.end(), items.begin(), items.end());
  }

  void push_back(const T& value) {
    reserve_back(1);
    buf_.push_back(value);
  }

  /// Truncates, or grows with value-initialised elements.
  void resize(std::size_t n) {
    if (n > size()) reserve_back(n - size());
    buf_.resize(head_ + n);
  }

  /// Gives memory back once it dominates the live range: reallocates to
  /// 1.5 x live when the capacity exceeds 3 x live.
  void release_slack() {
    if (capacity() > 3 * size()) reallocate(grown(size()));
  }

 private:
  static std::size_t grown(std::size_t n) { return n + n / 2; }

  /// Makes room to append `n` elements without reallocating.
  void reserve_back(std::size_t n) {
    if (buf_.size() + n <= buf_.capacity()) return;
    const std::size_t need = size() + n;
    if (4 * capacity() >= 5 * need) {
      std::move(begin(), end(), buf_.begin());
      buf_.erase(buf_.end() - static_cast<std::ptrdiff_t>(head_), buf_.end());
      head_ = 0;
    } else {
      reallocate(grown(need));
    }
  }

  void reallocate(std::size_t cap) {
    std::vector<T> fresh;
    fresh.reserve(cap);
    fresh.insert(fresh.end(), std::make_move_iterator(begin()),
                 std::make_move_iterator(end()));
    buf_ = std::move(fresh);
    head_ = 0;
  }

  /// [0, head_) is the dropped prefix, [head_, buf_.size()) the live range.
  std::vector<T> buf_;
  std::size_t head_ = 0;
};

}  // namespace ftio::util
