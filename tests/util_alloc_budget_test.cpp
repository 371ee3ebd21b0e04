// Heap-allocation budgets of the per-request paths. The bandwidth curve is
// built "with a linear complexity with the number of I/O requests"
// (Sec. II-A); these cases pin that the constant in that cost holds no
// heap allocation per request or per curve boundary. A passing
// util::expect must allocate nothing: it guards the per-boundary loops of
// StepFunction, so a check that built its message on every call cost one
// malloc/free pair per boundary.
//
// This file replaces the global operator new/delete with a counter over
// malloc/free. It builds as its own test binary, so the replacement
// reaches no other test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "engine/streaming.hpp"
#include "service/daemon.hpp"
#include "service/service.hpp"
#include "signal/step_function.hpp"
#include "trace/formats.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every unaligned form is replaced, so each block is freed by the family
// that allocated it (ASan checks that; std::stable_sort takes
// its buffer through the nothrow form). The aligned forms stay the
// runtime's, as a matched pair.
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

namespace tr = ftio::trace;
namespace svc = ftio::service;

/// Allocations made by `fn`, on any thread, while it runs. The count is
/// also recorded as the test's `allocations` property.
template <typename Fn>
std::size_t count_allocations(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  std::forward<Fn>(fn)();
  const std::size_t n =
      g_allocations.load(std::memory_order_relaxed) - before;
  testing::Test::RecordProperty("allocations", std::to_string(n));
  return n;
}

constexpr std::size_t kChunkRequests = 4096;
constexpr int kRanks = 16;
constexpr double kPeriod = 10.0;

/// One steady I/O phase of `count` requests starting at `t0`, in start
/// order: request i starts at t0 + i ms, lasts 5 ms and writes 1 MB, so
/// end events are in time order too and neighbours overlap.
std::vector<tr::IoRequest> phase(double t0,
                                 std::size_t count = kChunkRequests) {
  std::vector<tr::IoRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double start = t0 + 1e-3 * static_cast<double>(i);
    requests.push_back({static_cast<int>(i % kRanks), start, start + 5e-3,
                        1'000'000, tr::IoKind::kWrite});
  }
  return requests;
}

/// A trace of one phase with its meta record, as a tracer writes it.
tr::Trace phase_trace() {
  tr::Trace trace;
  trace.app = "alloc";
  trace.rank_count = kRanks;
  trace.requests = phase(0.0);
  return trace;
}

/// A condition the compiler cannot fold, so the passing check below
/// runs as it does inside the library.
bool opaque_true() {
  static volatile bool value = true;
  return value;
}

TEST(ExpectMessage, FailingLiteralThrowsItVerbatim) {
  try {
    ftio::util::expect(false, "ExpectMessage: a literal message");
    FAIL() << "expect(false, ...) did not throw";
  } catch (const ftio::util::InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "ExpectMessage: a literal message");
  }
}

TEST(ExpectMessage, FailingRuntimeStringThrowsItVerbatim) {
  const std::string message =
      "ExpectMessage: built at run time, " + std::to_string(kChunkRequests);
  try {
    ftio::util::expect(false, message);
    FAIL() << "expect(false, ...) did not throw";
  } catch (const ftio::util::InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(ExpectMessage, PassingCheckAllocatesNothing) {
  const std::size_t n = count_allocations([] {
    ftio::util::expect(opaque_true(),
                       "ExpectMessage: longer than any inline string buffer");
  });
  EXPECT_EQ(n, 0u);
}

TEST(AllocBudget, StepFunctionFromMovedVectorsAllocatesNothing) {
  constexpr std::size_t kBoundaries = 100'000;
  std::vector<double> times(kBoundaries);
  std::vector<double> values(kBoundaries - 1);
  for (std::size_t i = 0; i < kBoundaries; ++i) {
    times[i] = static_cast<double>(i);
    if (i + 1 < kBoundaries) values[i] = static_cast<double>(i % 7);
  }
  const std::size_t n = count_allocations([&] {
    const ftio::signal::StepFunction curve(std::move(times),
                                           std::move(values));
    EXPECT_EQ(curve.segment_count(), kBoundaries - 1);
  });
  EXPECT_EQ(n, 0u);
}

TEST(AllocBudget, WarmBandwidthSignalIsNotPerRequest) {
  tr::Trace trace;
  trace.requests = phase(0.0, 50'000);
  const auto cold = tr::bandwidth_signal(trace);
  std::size_t segments = 0;
  const std::size_t n = count_allocations([&] {
    const auto warm = tr::bandwidth_signal(trace);
    segments = warm.segment_count();
  });
  EXPECT_EQ(segments, cold.segment_count());
  EXPECT_LE(n, 8u) << "for " << trace.requests.size() << " requests";
}

TEST(AllocBudget, WarmInOrderExtendIsNotPerRequest) {
  tr::IncrementalBandwidth bandwidth;
  for (int k = 0; k < 4; ++k) bandwidth.extend(phase(kPeriod * k));
  const auto chunk = phase(kPeriod * 4);
  const std::size_t n =
      count_allocations([&] { bandwidth.extend(chunk); });
  EXPECT_LE(n, 8u) << "for " << chunk.size() << " requests";
}

TEST(AllocBudget, WarmSessionIngestIsNotPerRequest) {
  ftio::engine::StreamingSession session(svc::default_session_template());
  constexpr int kWarm = 4;
  constexpr int kCounted = 8;
  for (int k = 0; k < kWarm; ++k) session.ingest(phase(kPeriod * k));
  std::vector<std::vector<tr::IoRequest>> chunks;
  for (int k = 0; k < kCounted; ++k) {
    chunks.push_back(phase(kPeriod * (kWarm + k)));
  }
  const std::size_t n = count_allocations([&] {
    for (const auto& chunk : chunks) session.ingest(chunk);
  });
  EXPECT_EQ(session.request_count(), (kWarm + kCounted) * kChunkRequests);
  EXPECT_LE(n, 32u) << "for " << kCounted * kChunkRequests << " requests";
}

TEST(AllocBudget, DaemonFlushIsNotPerRequest) {
  svc::ServiceOptions options;
  options.background = false;
  options.shards = 1;
  svc::IngestDaemon daemon(options);
  constexpr int kWarm = 8;
  constexpr int kCounted = 32;
  for (int k = 0; k < kWarm; ++k) {
    ASSERT_EQ(daemon.submit("app", phase(kPeriod * k)),
              svc::Admission::kAccepted);
    daemon.pump();
  }
  std::vector<std::vector<tr::IoRequest>> flushes;
  for (int k = 0; k < kCounted; ++k) {
    flushes.push_back(phase(kPeriod * (kWarm + k)));
  }
  const std::size_t n = count_allocations([&] {
    for (auto& flush : flushes) {
      daemon.submit("app", std::move(flush));
      daemon.pump();
    }
  });
  const svc::ShardStats total = daemon.stats().total();
  EXPECT_EQ(total.processed_items, static_cast<std::size_t>(kWarm + kCounted));
  EXPECT_GT(total.analyses, 0u);
  const double per_flush = static_cast<double>(n) / kCounted;
  EXPECT_LE(per_flush, 16.0) << "over " << kCounted << " flushes of "
                             << kChunkRequests << " requests";
}

// Decoding a trace allocates its request vector once, sized from the input
// length, plus the record sink's two slot tables. Growing the vector from
// empty took 18 allocations for 4,096 records.
TEST(AllocBudget, JsonlDecodeAllocatesOncePerTrace) {
  const std::string text = tr::to_jsonl(phase_trace());
  tr::Trace decoded;
  const std::size_t n =
      count_allocations([&] { decoded = tr::from_jsonl(text); });
  EXPECT_EQ(decoded.requests.size(), kChunkRequests);
  EXPECT_LE(n, 4u) << "for " << kChunkRequests << " records";
}

TEST(AllocBudget, MsgpackDecodeAllocatesOncePerTrace) {
  const std::vector<std::uint8_t> bytes = tr::to_msgpack(phase_trace());
  tr::Trace decoded;
  const std::size_t n =
      count_allocations([&] { decoded = tr::from_msgpack(bytes); });
  EXPECT_EQ(decoded.requests.size(), kChunkRequests);
  EXPECT_LE(n, 4u) << "for " << kChunkRequests << " records";
}

TEST(AllocBudget, DaemonMsgpackSubmitIsNotPerRequest) {
  svc::ServiceOptions options;
  options.background = false;
  options.shards = 1;
  svc::IngestDaemon daemon(options);
  const std::vector<std::uint8_t> bytes = tr::to_msgpack(phase_trace());
  // Warm: the tenant and its mailbox exist before the counted submit.
  ASSERT_EQ(daemon.submit_msgpack("app", bytes), svc::Admission::kAccepted);
  daemon.pump();
  svc::Admission admission = svc::Admission::kRejectedMalformed;
  const std::size_t n = count_allocations(
      [&] { admission = daemon.submit_msgpack("app", bytes); });
  EXPECT_EQ(admission, svc::Admission::kAccepted);
  EXPECT_LE(n, 8u) << "for " << kChunkRequests << " requests";
}

}  // namespace
