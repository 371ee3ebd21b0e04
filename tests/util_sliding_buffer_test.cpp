#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "util/sliding_buffer.hpp"

namespace {

using ftio::util::SlidingBuffer;

std::vector<int> iota_vector(int first, int count) {
  std::vector<int> v(static_cast<std::size_t>(count));
  std::iota(v.begin(), v.end(), first);
  return v;
}

std::vector<int> contents(const SlidingBuffer<int>& b) {
  return {b.begin(), b.end()};
}

TEST(SlidingBuffer, DropFrontOnlyAdvancesTheHead) {
  SlidingBuffer<int> b;
  b.append(iota_vector(1, 10));
  const int* first = b.data();
  const std::size_t cap = b.capacity();
  b.drop_front(3);
  EXPECT_EQ(b.data(), first + 3);
  EXPECT_EQ(b.capacity(), cap);
  EXPECT_EQ(contents(b), iota_vector(4, 7));
  EXPECT_EQ(b.front(), 4);
  EXPECT_EQ(b.back(), 10);
  b.drop_front(0);
  EXPECT_EQ(b.size(), 7u);
  b.drop_front(7);
  EXPECT_TRUE(b.empty());
  b.append(iota_vector(20, 2));
  EXPECT_EQ(contents(b), iota_vector(20, 2));
}

TEST(SlidingBuffer, AppendSlidesWhenTheCapacitySuffices) {
  SlidingBuffer<int> b;
  b.append(iota_vector(0, 10));  // capacity 1.5 x 10
  ASSERT_EQ(b.capacity(), 15u);
  const int* storage = b.data();
  b.drop_front(8);
  // 2 live + 6 new = 8; 15 >= 1.25 x 8, so the live range slides down.
  b.append(iota_vector(10, 6));
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b.capacity(), 15u);
  EXPECT_EQ(contents(b), iota_vector(8, 8));
}

TEST(SlidingBuffer, AppendReallocatesWhenTheCapacityIsShort) {
  SlidingBuffer<int> b;
  b.append(iota_vector(0, 10));
  b.drop_front(1);
  b.append(iota_vector(10, 5));  // fits the free tail exactly
  EXPECT_EQ(b.capacity(), 15u);
  // 14 live + 3 new = 17 > 15 / 1.25: reallocate to 1.5 x 17.
  b.append(iota_vector(15, 3));
  EXPECT_EQ(b.capacity(), 25u);
  EXPECT_EQ(contents(b), iota_vector(1, 17));
}

TEST(SlidingBuffer, ResizeTruncatesAndValueInitialises) {
  SlidingBuffer<int> b;
  b.append(iota_vector(1, 6));
  b.drop_front(2);
  b.resize(2);
  EXPECT_EQ(contents(b), (std::vector<int>{3, 4}));
  b.resize(5);
  EXPECT_EQ(contents(b), (std::vector<int>{3, 4, 0, 0, 0}));
  b.resize(0);
  EXPECT_TRUE(b.empty());
}

TEST(SlidingBuffer, SpanViewsFollowTheLiveRange) {
  SlidingBuffer<int> b;
  b.append(iota_vector(0, 100));
  b.drop_front(40);
  const std::span<const int> view = b;
  EXPECT_EQ(view.data(), b.data());
  EXPECT_EQ(view.size(), 60u);
  EXPECT_EQ(view.front(), 40);
  b[0] = -1;
  EXPECT_EQ(view[0], -1);
}

TEST(SlidingBuffer, CopiesHoldOnlyTheLiveRange) {
  SlidingBuffer<int> b;
  b.append(iota_vector(0, 1000));
  b.drop_front(990);
  const SlidingBuffer<int> copy(b);
  EXPECT_EQ(copy.capacity(), 10u);
  EXPECT_EQ(contents(copy), iota_vector(990, 10));
  SlidingBuffer<int> assigned;
  assigned = b;
  EXPECT_EQ(contents(assigned), iota_vector(990, 10));
  SlidingBuffer<int> moved(std::move(assigned));
  EXPECT_EQ(contents(moved), iota_vector(990, 10));
  EXPECT_TRUE(assigned.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(SlidingBuffer, AdoptsAVectorWithItsCapacity) {
  std::vector<int> v = iota_vector(0, 4);
  v.reserve(64);
  const int* storage = v.data();
  const SlidingBuffer<int> b(std::move(v));
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b.capacity(), 64u);
  EXPECT_EQ(contents(b), iota_vector(0, 4));
}

TEST(SlidingBuffer, ReleaseSlackOnlyAboveThreeTimesLive) {
  SlidingBuffer<int> b;
  b.append(iota_vector(0, 100));  // capacity 150
  b.drop_front(50);
  b.release_slack();  // 150 <= 3 x 50: kept
  EXPECT_EQ(b.capacity(), 150u);
  b.drop_front(10);
  b.release_slack();  // 150 > 3 x 40: down to 1.5 x 40
  EXPECT_EQ(b.capacity(), 60u);
  EXPECT_EQ(contents(b), iota_vector(60, 40));
}

TEST(SlidingBuffer, SeededOperationsMatchADeque) {
  std::mt19937_64 rng(17);
  SlidingBuffer<int> b;
  std::deque<int> model;
  int next = 0;
  for (int op = 0; op < 20000; ++op) {
    switch (rng() % 6) {
      case 0:
      case 1: {
        const auto n = static_cast<int>(rng() % 40);
        const auto items = iota_vector(next, n);
        next += n;
        b.append(items);
        model.insert(model.end(), items.begin(), items.end());
        break;
      }
      case 2:
        b.push_back(next);
        model.push_back(next++);
        break;
      case 3: {
        const std::size_t n = model.empty() ? 0 : rng() % (model.size() + 1);
        b.drop_front(n);
        model.erase(model.begin(),
                    model.begin() + static_cast<std::ptrdiff_t>(n));
        break;
      }
      case 4: {
        const std::size_t n = rng() % (model.size() + 8);
        b.resize(n);
        model.resize(n);
        break;
      }
      default:
        b.release_slack();
        break;
    }
    ASSERT_EQ(b.size(), model.size()) << "op " << op;
    ASSERT_LE(b.size(), b.capacity());
    ASSERT_TRUE(std::equal(b.begin(), b.end(), model.begin(), model.end()))
        << "op " << op;
  }
}

TEST(SlidingBuffer, SteadyWindowCapacityStaysWithinOneAndAHalf) {
  // A window of `live` elements fed and evicted `chunk` at a time never
  // holds more than 1.5 x (live + chunk), rounded down, once it is full.
  for (const std::size_t live : {1u, 7u, 100u, 1000u}) {
    for (const std::size_t chunk : {1u, 3u, 50u}) {
      SlidingBuffer<int> b;
      while (b.size() < live) b.push_back(0);
      const std::vector<int> items(chunk, 1);
      for (int cycle = 0; cycle < 2000; ++cycle) {
        const std::size_t need = b.size() + chunk;
        b.append(items);
        ASSERT_LE(b.capacity(), need + need / 2)
            << "live " << live << " chunk " << chunk << " cycle " << cycle;
        b.drop_front(chunk);
      }
    }
  }
}

/// Counts every move and copy, so the test sees each element the buffer
/// relocates.
struct Counted {
  static inline std::uint64_t moves = 0;
  static inline std::uint64_t copies = 0;
  int value = 0;

  Counted() = default;
  explicit Counted(int v) : value(v) {}
  Counted(const Counted& other) : value(other.value) { ++copies; }
  Counted(Counted&& other) noexcept : value(other.value) { ++moves; }
  Counted& operator=(const Counted& other) {
    value = other.value;
    ++copies;
    return *this;
  }
  Counted& operator=(Counted&& other) noexcept {
    value = other.value;
    ++moves;
    return *this;
  }
  ~Counted() = default;
};

TEST(SlidingBuffer, MovesStayWithinFourTimesTheEvicted) {
  std::mt19937_64 rng(3);
  SlidingBuffer<Counted> b;
  std::vector<Counted> chunk;
  chunk.reserve(64);
  Counted::moves = 0;
  Counted::copies = 0;
  std::uint64_t appended = 0;
  std::uint64_t evicted = 0;
  int next = 0;
  for (int cycle = 0; cycle < 10000; ++cycle) {
    chunk.clear();
    const auto n = 1 + static_cast<int>(rng() % 64);
    for (int i = 0; i < n; ++i) chunk.emplace_back(next++);
    const std::uint64_t copies_before = Counted::copies;
    b.append(chunk);
    // Appending copies each new element once; anything beyond is the
    // buffer relocating live elements.
    ASSERT_EQ(Counted::copies - copies_before, static_cast<std::uint64_t>(n));
    appended += static_cast<std::uint64_t>(n);
    // Keep a window of ~1000 elements, like a compacted curve.
    const std::size_t drop = b.size() > 1000 ? b.size() - 1000 : 0;
    b.drop_front(drop);
    evicted += drop;
  }
  ASSERT_EQ(evicted + b.size(), appended);
  ASSERT_EQ(b.front().value, static_cast<int>(evicted));
  EXPECT_GT(evicted, 300000u);
  EXPECT_LE(Counted::moves, 4 * evicted);
}

TEST(SlidingBuffer, MovesStayWithinFourTimesTheEvictedAsTheWindowCreeps) {
  // The window grows by one element per cycle, so the live range keeps
  // catching up with the capacity. Sliding as soon as the capacity merely
  // fits would then move the whole window every few cycles; the 1.25x
  // rule reallocates instead.
  SlidingBuffer<Counted> b;
  const std::vector<Counted> chunk(64);
  b.append(std::vector<Counted>(1000));
  Counted::moves = 0;
  std::uint64_t evicted = 0;
  for (int cycle = 0; cycle < 10000; ++cycle) {
    b.append(chunk);
    b.drop_front(63);
    evicted += 63;
  }
  EXPECT_EQ(b.size(), 1000u + 10000u);
  EXPECT_LE(Counted::moves, 4 * evicted);
}

}  // namespace
