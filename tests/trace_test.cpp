#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/ftio.hpp"
#include "fuzz/sweep_oracle.hpp"
#include "fuzz/trace_dom_oracle.hpp"
#include "tests/incremental_state_fixture.hpp"
#include "trace/formats.hpp"
#include "trace/model.hpp"
#include "util/binio.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"
#include "util/json.hpp"
#include "util/msgpack.hpp"

namespace tr = ftio::trace;

namespace {

/// Two ranks writing 100 MB each over [0, 1] and [0.5, 1.5].
tr::Trace overlap_trace() {
  tr::Trace t;
  t.app = "test";
  t.rank_count = 2;
  t.requests.push_back({0, 0.0, 1.0, 100'000'000, tr::IoKind::kWrite});
  t.requests.push_back({1, 0.5, 1.5, 100'000'000, tr::IoKind::kWrite});
  return t;
}

}  // namespace

// ---------------------------------------------------------------------------
// Model basics
// ---------------------------------------------------------------------------

TEST(TraceModel, TimesAndVolume) {
  const auto t = overlap_trace();
  EXPECT_DOUBLE_EQ(t.begin_time(), 0.0);
  EXPECT_DOUBLE_EQ(t.end_time(), 1.5);
  EXPECT_DOUBLE_EQ(t.duration(), 1.5);
  EXPECT_EQ(t.total_bytes(), 200'000'000u);
}

TEST(TraceModel, EmptyTrace) {
  tr::Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.duration(), 0.0);
  EXPECT_EQ(t.total_bytes(), 0u);
  EXPECT_TRUE(tr::bandwidth_signal(t).empty());
}

TEST(TraceModel, FilterByKind) {
  auto t = overlap_trace();
  t.requests.push_back({0, 2.0, 3.0, 5'000, tr::IoKind::kRead});
  EXPECT_EQ(t.filtered(tr::IoKind::kRead).requests.size(), 1u);
  EXPECT_EQ(t.filtered(tr::IoKind::kWrite).requests.size(), 2u);
  EXPECT_EQ(t.total_bytes(tr::IoKind::kRead), 5'000u);
}

TEST(TraceModel, RequestBandwidth) {
  const tr::IoRequest r{0, 1.0, 3.0, 2'000'000, tr::IoKind::kWrite};
  EXPECT_DOUBLE_EQ(r.bandwidth(), 1'000'000.0);
  const tr::IoRequest zero{0, 1.0, 1.0, 10, tr::IoKind::kWrite};
  EXPECT_DOUBLE_EQ(zero.bandwidth(), 0.0);
}

TEST(TraceModel, WindowClipsAndScalesBytes) {
  const auto t = overlap_trace();
  const auto w = t.window(0.75, 1.25);
  ASSERT_EQ(w.requests.size(), 2u);
  // Rank 0's request [0,1] clipped to [0.75,1]: quarter of the bytes.
  EXPECT_DOUBLE_EQ(w.requests[0].start, 0.75);
  EXPECT_DOUBLE_EQ(w.requests[0].end, 1.0);
  EXPECT_EQ(w.requests[0].bytes, 25'000'000u);
}

TEST(TraceModel, WindowRejectsEmptyRange) {
  EXPECT_THROW(overlap_trace().window(1.0, 1.0), ftio::util::InvalidArgument);
}

TEST(TraceModel, SortByStart) {
  tr::Trace t;
  t.requests.push_back({1, 5.0, 6.0, 1, tr::IoKind::kWrite});
  t.requests.push_back({0, 1.0, 2.0, 1, tr::IoKind::kWrite});
  t.sort_by_start();
  EXPECT_DOUBLE_EQ(t.requests.front().start, 1.0);
}

// ---------------------------------------------------------------------------
// Bandwidth sweep
// ---------------------------------------------------------------------------

TEST(Bandwidth, OverlappingRequestsAdd) {
  const auto f = tr::bandwidth_signal(overlap_trace());
  // Each request runs at 100 MB/s; the overlap [0.5, 1.0] carries 200 MB/s.
  EXPECT_DOUBLE_EQ(f.value_at(0.25), 1e8);
  EXPECT_DOUBLE_EQ(f.value_at(0.75), 2e8);
  EXPECT_DOUBLE_EQ(f.value_at(1.25), 1e8);
  EXPECT_DOUBLE_EQ(f.value_at(2.0), 0.0);
}

TEST(Bandwidth, VolumeIsConserved) {
  const auto t = overlap_trace();
  const auto f = tr::bandwidth_signal(t);
  EXPECT_NEAR(f.total_integral(), static_cast<double>(t.total_bytes()), 1.0);
}

TEST(Bandwidth, GapsHaveZeroBandwidth) {
  tr::Trace t;
  t.requests.push_back({0, 0.0, 1.0, 1'000'000, tr::IoKind::kWrite});
  t.requests.push_back({0, 3.0, 4.0, 1'000'000, tr::IoKind::kWrite});
  const auto f = tr::bandwidth_signal(t);
  EXPECT_DOUBLE_EQ(f.value_at(2.0), 0.0);
  EXPECT_GT(f.value_at(0.5), 0.0);
  EXPECT_GT(f.value_at(3.5), 0.0);
}

TEST(Bandwidth, KindFilterSelectsDirection) {
  tr::Trace t;
  t.requests.push_back({0, 0.0, 1.0, 1'000'000, tr::IoKind::kWrite});
  t.requests.push_back({0, 0.0, 1.0, 9'000'000, tr::IoKind::kRead});
  tr::BandwidthOptions options;
  options.kind = tr::IoKind::kWrite;
  const auto writes = tr::bandwidth_signal(t, options);
  EXPECT_DOUBLE_EQ(writes.value_at(0.5), 1e6);
  options.kind = tr::IoKind::kRead;
  const auto reads = tr::bandwidth_signal(t, options);
  EXPECT_DOUBLE_EQ(reads.value_at(0.5), 9e6);
}

TEST(Bandwidth, WindowRestrictsSignal) {
  const auto t = overlap_trace();
  tr::BandwidthOptions opts;
  opts.window_start = 0.5;
  opts.window_end = 1.0;
  const auto f = tr::bandwidth_signal(t, opts);
  EXPECT_DOUBLE_EQ(f.start_time(), 0.5);
  EXPECT_DOUBLE_EQ(f.end_time(), 1.0);
  EXPECT_DOUBLE_EQ(f.value_at(0.75), 2e8);
}

TEST(Bandwidth, PerRankSignal) {
  const auto t = overlap_trace();
  const auto r0 = tr::rank_bandwidth_signal(t, 0);
  EXPECT_DOUBLE_EQ(r0.value_at(0.25), 1e8);
  EXPECT_DOUBLE_EQ(r0.value_at(1.25), 0.0);
  const auto r1 = tr::rank_bandwidth_signal(t, 1);
  EXPECT_DOUBLE_EQ(r1.value_at(1.25), 1e8);
}

TEST(Bandwidth, ZeroDurationRequestsIgnoredInSweep) {
  tr::Trace t;
  t.requests.push_back({0, 1.0, 1.0, 500, tr::IoKind::kWrite});
  EXPECT_TRUE(tr::bandwidth_signal(t).empty());
}

TEST(Bandwidth, ManyIdenticalRequestsScaleLinearly) {
  tr::Trace t;
  for (int r = 0; r < 32; ++r) {
    t.requests.push_back({r, 0.0, 2.0, 1'000'000, tr::IoKind::kWrite});
  }
  const auto f = tr::bandwidth_signal(t);
  EXPECT_NEAR(f.value_at(1.0), 32.0 * 500'000.0, 1e-6);
}

TEST(Bandwidth, OverflowingRateContributesNothing) {
  // 40 periodic 2 s writes every 10 s, plus one request whose rate
  // overflows to +inf (2^40 bytes in 1e-300 s). Summed into the sweep it
  // would turn every later segment into inf - inf = NaN.
  tr::Trace t;
  for (int i = 0; i < 40; ++i) {
    t.requests.push_back(
        {0, i * 10.0, i * 10.0 + 2.0, 1'000'000, tr::IoKind::kWrite});
  }
  const double clean = ftio::core::detect(t, {}).frequency();
  t.requests.push_back({1, 0.0, 1e-300, 1ull << 40, tr::IoKind::kWrite});
  ASSERT_TRUE(std::isinf(t.requests.back().bandwidth()));

  const auto f = tr::bandwidth_signal(t);
  ASSERT_FALSE(f.empty());
  for (const double v : f.values()) EXPECT_TRUE(std::isfinite(v));
  tr::IncrementalBandwidth inc;
  inc.extend(t.requests);
  EXPECT_EQ(ftio::fuzz::sweep_oracle::curve_difference(inc.curve(), f), "");

  const auto r = ftio::core::detect(t, {});
  ASSERT_TRUE(r.periodic());
  EXPECT_EQ(r.frequency(), clean);
  EXPECT_NEAR(r.frequency(), 0.0995, 5e-4);
}

// ---------------------------------------------------------------------------
// Event sort: the distribution sort against std::sort
// ---------------------------------------------------------------------------

namespace {

using Events = std::vector<tr::BandwidthEvent>;

/// Sorts a copy both ways and reports the first element-wise difference
/// (under ==, the comparator's equality), or "" when they agree.
std::string sort_difference(const Events& input) {
  Events got = input;
  tr::sort_bandwidth_events(got);
  Events want = input;
  ftio::fuzz::sweep_oracle::sort_events(want);
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!(got[i].time == want[i].time) || !(got[i].delta == want[i].delta)) {
      return "element " + std::to_string(i) + " of " +
             std::to_string(want.size());
    }
  }
  return "";
}

Events random_events(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> time(-50.0, 500.0);
  std::uniform_real_distribution<double> delta(-1e9, 1e9);
  Events events(n);
  for (auto& e : events) e = {time(rng), delta(rng)};
  return events;
}

}  // namespace

TEST(SortBandwidthEvents, SizesAroundTheBucketThreshold) {
  std::mt19937_64 rng(7);
  for (const std::size_t n : {0u, 1u, 63u, 64u, 65u}) {
    EXPECT_EQ(sort_difference(random_events(n, rng)), "") << "n=" << n;
  }
}

TEST(SortBandwidthEvents, AllTimesEqualWithMixedDeltas) {
  Events events;
  for (int i = 0; i < 500; ++i) {
    events.push_back({3.25, (i % 7 - 3) * 1.5e6});
  }
  EXPECT_EQ(sort_difference(events), "");
}

TEST(SortBandwidthEvents, FewDistinctTimesHaccShaped) {
  // 32 phase boundaries, each shared by 4000 start or end events.
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<int> phase(0, 31);
  std::uniform_real_distribution<double> bw(1e6, 1e8);
  Events events;
  for (int i = 0; i < 32 * 4000; ++i) {
    const double d = bw(rng);
    events.push_back({phase(rng) * 12.5, i % 2 ? d : -d});
  }
  EXPECT_EQ(sort_difference(events), "");
}

TEST(SortBandwidthEvents, SignedZeroAndNegativeTimes) {
  Events events;
  for (int i = 0; i < 200; ++i) {
    const double t = i % 3 == 0 ? 0.0 : i % 3 == 1 ? -0.0 : -0.5 * i;
    events.push_back({t, (i % 5 + 1) * (i % 2 ? 1.0 : -1.0)});
  }
  EXPECT_EQ(sort_difference(events), "");
}

TEST(SortBandwidthEvents, SubnormalSpanFallsBack) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  Events events;
  for (int i = 0; i < 300; ++i) {
    events.push_back({(i * 37 % 101) * tiny, static_cast<double>(i % 9)});
  }
  EXPECT_EQ(sort_difference(events), "");
}

TEST(SortBandwidthEvents, OverflowingSpanFallsBack) {
  const double big = std::numeric_limits<double>::max();
  Events events;
  for (int i = 0; i < 300; ++i) {
    events.push_back({(i % 11 - 5) * (big / 5.0), static_cast<double>(-i)});
  }
  ASSERT_TRUE(std::isinf(big - (-big)));
  EXPECT_EQ(sort_difference(events), "");
}

TEST(SortBandwidthEvents, SortedAndReversedInput) {
  std::mt19937_64 rng(13);
  Events events = random_events(5000, rng);
  std::sort(events.begin(), events.end(), tr::bandwidth_event_less);
  EXPECT_EQ(sort_difference(events), "");
  std::reverse(events.begin(), events.end());
  EXPECT_EQ(sort_difference(events), "");
}

TEST(SortBandwidthEvents, SeededRandomTraces) {
  // Request-shaped events (a start and an end per request) with times
  // drawn spread out, quantised to a few phases, or heavy-tailed.
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<int> count(0, 800);
  std::uniform_int_distribution<int> shape(0, 2);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 2000; ++trial) {
    const int requests = count(rng);
    const int kind = shape(rng);
    Events events;
    for (int i = 0; i < requests; ++i) {
      double start = unit(rng) * 1000.0;
      if (kind == 1) start = std::floor(start / 50.0) * 50.0;
      if (kind == 2) start = std::exp(unit(rng) * 20.0) - 1.0;
      const double end = kind == 1 ? start + 10.0 : start + unit(rng) * 5.0;
      const double bw = std::floor(unit(rng) * 8.0 + 1.0) * 1e6;
      events.push_back({start, bw});
      events.push_back({end, -bw});
    }
    std::shuffle(events.begin(), events.end(), rng);
    ASSERT_EQ(sort_difference(events), "") << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Incremental bandwidth compaction
// ---------------------------------------------------------------------------

namespace {

/// Periodic write phases: 4 ranks, 2 s bursts every `period` seconds.
std::vector<tr::IoRequest> burst_chunk(double start) {
  std::vector<tr::IoRequest> reqs;
  for (int r = 0; r < 4; ++r) {
    reqs.push_back({r, start, start + 2.0, 50'000'000, tr::IoKind::kWrite});
  }
  return reqs;
}

}  // namespace

TEST(IncrementalCompact, NoopWhenHorizonBeforeSupport) {
  tr::IncrementalBandwidth inc;
  inc.extend(burst_chunk(10.0));
  EXPECT_EQ(inc.compact(5.0), 0u);
  EXPECT_EQ(inc.compact(10.0), 0u);  // horizon == front: nothing older
  EXPECT_FALSE(inc.floor_time().has_value());
}

TEST(IncrementalCompact, AlignsDownAndPreservesSuffixBitExact) {
  tr::Trace all;
  tr::IncrementalBandwidth inc;
  for (int i = 0; i < 12; ++i) {
    const auto chunk = burst_chunk(i * 10.0);
    all.requests.insert(all.requests.end(), chunk.begin(), chunk.end());
    inc.extend(chunk);
  }
  const std::size_t events_before = inc.event_count();
  const std::size_t evicted = inc.compact(57.0);
  ASSERT_GT(evicted, 0u);
  EXPECT_EQ(inc.event_count(), events_before - evicted);
  // The cut aligns down to a boundary at or before the horizon.
  ASSERT_TRUE(inc.floor_time().has_value());
  EXPECT_LE(*inc.floor_time(), 57.0);
  EXPECT_EQ(inc.curve().start_time(), *inc.floor_time());

  // Retained suffix equals the full sweep bit for bit.
  const auto reference = tr::bandwidth_signal(all);
  const auto& got = inc.curve();
  const std::size_t offset =
      reference.times().size() - got.times().size();
  for (std::size_t i = 0; i < got.times().size(); ++i) {
    EXPECT_EQ(got.times()[i], reference.times()[offset + i]) << i;
  }
  for (std::size_t i = 0; i < got.values().size(); ++i) {
    EXPECT_EQ(got.values()[i], reference.values()[offset + i]) << i;
  }
}

TEST(IncrementalCompact, KeepsAtLeastOneSegment) {
  tr::IncrementalBandwidth inc;
  inc.extend(burst_chunk(0.0));
  inc.compact(1e9);
  EXPECT_GE(inc.curve().segment_count(), 1u);
  EXPECT_FALSE(inc.curve().empty());
}

TEST(IncrementalCompact, ExtendAfterCompactMatchesUncompacted) {
  tr::IncrementalBandwidth compacted;
  tr::IncrementalBandwidth plain;
  for (int i = 0; i < 8; ++i) {
    compacted.extend(burst_chunk(i * 10.0));
    plain.extend(burst_chunk(i * 10.0));
  }
  ASSERT_GT(compacted.compact(40.0), 0u);
  // Straggler dirtying the entire retained range: the re-sweep must
  // restart from the folded base level, not from zero.
  std::vector<tr::IoRequest> late{
      {1, 41.0, 78.0, 37'000'000, tr::IoKind::kWrite}};
  compacted.extend(late);
  plain.extend(late);
  for (int i = 8; i < 11; ++i) {
    compacted.extend(burst_chunk(i * 10.0));
    plain.extend(burst_chunk(i * 10.0));
  }
  const auto& a = compacted.curve();
  const auto& b = plain.curve();
  ASSERT_LT(a.times().size(), b.times().size());
  const std::size_t offset = b.times().size() - a.times().size();
  for (std::size_t i = 0; i < a.times().size(); ++i) {
    EXPECT_EQ(a.times()[i], b.times()[offset + i]) << "boundary " << i;
  }
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    EXPECT_EQ(a.values()[i],
              b.values()[b.values().size() - a.values().size() + i])
        << "segment " << i;
  }
}

TEST(IncrementalCompact, RequestsBelowFloorAreClipped) {
  tr::IncrementalBandwidth inc;
  for (int i = 0; i < 8; ++i) inc.extend(burst_chunk(i * 10.0));
  ASSERT_GT(inc.compact(40.0), 0u);
  const double floor = *inc.floor_time();
  const std::size_t events = inc.event_count();
  const std::vector<double> times(inc.curve().times().begin(),
                                  inc.curve().times().end());
  const std::vector<double> values(inc.curve().values().begin(),
                                   inc.curve().values().end());

  // Entirely before the floor: dropped, the curve untouched.
  std::vector<tr::IoRequest> ancient{
      {0, 1.0, 3.0, 10'000'000, tr::IoKind::kWrite}};
  inc.extend(ancient);
  EXPECT_EQ(inc.event_count(), events);
  EXPECT_TRUE(std::ranges::equal(inc.curve().times(), times));
  EXPECT_TRUE(std::ranges::equal(inc.curve().values(), values));

  // Spanning the floor: clipped to [floor, end), bandwidth unchanged.
  const double at_floor = inc.curve().value_at(floor);
  std::vector<tr::IoRequest> spanning{
      {0, floor - 5.0, floor + 5.0, 20'000'000, tr::IoKind::kWrite}};
  inc.extend(spanning);
  EXPECT_EQ(inc.event_count(), events + 2);
  EXPECT_EQ(inc.curve().start_time(), floor);
  EXPECT_DOUBLE_EQ(inc.curve().value_at(floor),
                   at_floor + spanning.front().bandwidth());
}

TEST(IncrementalCompact, MemoryBytesShrinkAfterEviction) {
  tr::IncrementalBandwidth inc;
  for (int i = 0; i < 200; ++i) inc.extend(burst_chunk(i * 10.0));
  const std::size_t before = inc.memory_bytes();
  ASSERT_GT(inc.compact(1900.0), 0u);
  EXPECT_LT(inc.memory_bytes(), before / 2);
}

TEST(IncrementalBandwidth, OutOfOrderChunksMatchFullSweep) {
  // Chunks of 60 overlapping requests arrive in shuffled order, so most
  // extend() calls reach back into swept time and take the merge path.
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> jitter(0.0, 3.0);
  std::vector<std::vector<tr::IoRequest>> chunks(24);
  tr::Trace all;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    for (int r = 0; r < 60; ++r) {
      const double start = c * 20.0 + jitter(rng);
      chunks[c].push_back({r, start, start + 4.0 + jitter(rng),
                           1'000'000u + static_cast<std::uint64_t>(r),
                           tr::IoKind::kWrite});
    }
  }
  std::shuffle(chunks.begin(), chunks.end(), rng);
  tr::IncrementalBandwidth inc;
  for (const auto& chunk : chunks) {
    inc.extend(chunk);
    all.requests.insert(all.requests.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(ftio::fuzz::sweep_oracle::curve_difference(
                inc.curve(), tr::bandwidth_signal(all)),
            "");
  EXPECT_EQ(ftio::fuzz::sweep_oracle::curve_difference(
                inc.curve(), ftio::fuzz::sweep_oracle::bandwidth_signal(all)),
            "");
}

namespace {

/// A seeded chunk stream for the compaction property. Chunks hold 1 to
/// `max_chunk` overlapping requests whose start times mostly advance;
/// every fourth chunk reaches back up to 40 s into swept time (the merge
/// path, and below the floor once compaction has run, so it is clipped).
/// Every third chunk is followed by a compact() to a trailing horizon.
/// Raw engine bits, not <random> distributions, so the stream (and the
/// pinned state below) is the same under every standard library.
struct StreamStep {
  std::vector<tr::IoRequest> chunk;
  std::optional<double> horizon;
};

std::vector<StreamStep> compaction_stream(std::uint64_t seed, int steps,
                                          std::uint64_t max_chunk) {
  std::mt19937_64 rng(seed);
  const auto unit = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  std::vector<StreamStep> stream(static_cast<std::size_t>(steps));
  double now = 0.0;
  for (int s = 0; s < steps; ++s) {
    auto& step = stream[static_cast<std::size_t>(s)];
    const bool late = s % 4 == 3;
    const double base = late ? now - 40.0 * unit() : now;
    const auto count = static_cast<int>(1 + rng() % max_chunk);
    for (int r = 0; r < count; ++r) {
      const double start = base + 5.0 * unit();
      const double end = start + 0.01 + 3.0 * unit();
      const auto bytes = static_cast<std::uint64_t>(1.0 + 1e7 * unit());
      step.chunk.push_back({r, start, end, bytes, tr::IoKind::kWrite});
    }
    if (!late) now += 2.0 + 4.0 * unit();
    if (s % 3 == 2) step.horizon = now - 20.0 - 20.0 * unit();
  }
  return stream;
}

/// Replays `stream` into `inc`.
void replay(const std::vector<StreamStep>& stream,
            tr::IncrementalBandwidth& inc) {
  for (const auto& step : stream) {
    inc.extend(step.chunk);
    if (step.horizon) inc.compact(*step.horizon);
  }
}

/// The curve `inc` holds over its retained support, against a full
/// comparison-sort sweep of every event it admitted: boundaries at or
/// after the floor must coincide and segment values match bit for bit.
std::string retained_difference(
    const tr::IncrementalBandwidth& inc,
    std::vector<tr::BandwidthEvent> admitted) {
  ftio::fuzz::sweep_oracle::sort_events(admitted);
  const auto full = tr::bandwidth_from_events(admitted);
  const auto got = inc.curve();
  const auto times = full.times();
  const auto first = static_cast<std::size_t>(
      std::lower_bound(times.begin(), times.end(), got.start_time()) -
      times.begin());
  if (first >= times.size()) return "no retained support";
  const ftio::signal::StepFunction suffix(
      std::vector<double>(times.begin() + static_cast<std::ptrdiff_t>(first),
                          times.end()),
      std::vector<double>(full.values().begin() +
                              static_cast<std::ptrdiff_t>(first),
                          full.values().end()));
  return ftio::fuzz::sweep_oracle::curve_difference(got, suffix);
}

std::vector<std::uint8_t> saved_state(const tr::IncrementalBandwidth& inc) {
  ftio::util::BinWriter out;
  inc.save_state(out);
  return out.take();
}

/// The bit patterns of `values`, so that EXPECT_EQ compares bit for bit.
std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  out.reserve(values.size());
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

}  // namespace

TEST(IncrementalCompact, SeededStreamsMatchSweepOfAdmittedEvents) {
  // In-order and reaching-back chunks interleaved with compact(): after
  // every step the curve equals the sweep of the events the instance
  // admitted (each chunk clipped at the floor in force when it arrived),
  // over the retained support, and the state survives a save/load round
  // trip that then evolves identically. The saved bytes do not carry the
  // curve, so the re-swept curve is checked against the original's.
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE(seed);
    const auto stream = compaction_stream(seed, 90, 24);
    tr::IncrementalBandwidth inc;
    std::vector<tr::BandwidthEvent> admitted;
    std::size_t evicted = 0;
    for (const auto& step : stream) {
      tr::BandwidthOptions clip;
      clip.window_start = inc.floor_time();
      tr::append_bandwidth_events(step.chunk, clip, std::nullopt, admitted);
      inc.extend(step.chunk);
      if (step.horizon) evicted += inc.compact(*step.horizon);
      ASSERT_EQ(retained_difference(inc, admitted), "");
      ASSERT_EQ(inc.event_count() + evicted, admitted.size());
    }
    ASSERT_GT(evicted, 0u);

    const auto bytes = saved_state(inc);
    tr::IncrementalBandwidth restored;
    ftio::util::BinReader in(bytes);
    restored.load_state(in);
    EXPECT_TRUE(in.done());
    EXPECT_EQ(bits(restored.curve().times()), bits(inc.curve().times()));
    EXPECT_EQ(bits(restored.curve().values()), bits(inc.curve().values()));
    EXPECT_EQ(saved_state(restored), bytes);
    const auto more = compaction_stream(seed + 1000, 12, 24);
    for (const auto& step : more) {
      std::vector<tr::IoRequest> shifted = step.chunk;
      for (auto& r : shifted) {
        r.start += inc.curve().end_time() - 10.0;
        r.end += inc.curve().end_time() - 10.0;
      }
      inc.extend(shifted);
      restored.extend(shifted);
      if (step.horizon) {
        const double horizon = inc.curve().end_time() - 30.0;
        EXPECT_EQ(inc.compact(horizon), restored.compact(horizon));
      }
    }
    EXPECT_EQ(saved_state(restored), saved_state(inc));
  }
}

TEST(IncrementalCompact, SavedStateBytesArePinned) {
  // The version-2 layout: the clip, the live events, the base level and
  // the floor; no curve.
  tr::IncrementalBandwidth small;
  replay(compaction_stream(7, 16, 6), small);
  const auto bytes = saved_state(small);
  EXPECT_EQ(small.event_count(), 57u);
  EXPECT_TRUE(small.floor_time().has_value());
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(),
                         std::begin(ftio::test::kIncrementalStateFixture),
                         std::end(ftio::test::kIncrementalStateFixture)));

  // A long stream (130 compactions, slides and reallocations included),
  // pinned by size and CRC32C.
  tr::IncrementalBandwidth large;
  replay(compaction_stream(11, 400, 24), large);
  const auto large_bytes = saved_state(large);
  EXPECT_EQ(large.event_count(), 234u);
  EXPECT_EQ(large_bytes.size(), 3778u);
  EXPECT_EQ(ftio::util::crc32c(large_bytes.data(), large_bytes.size()),
            0x892f98e8u);
}

TEST(IncrementalCompact, LoadStateRejectsNonFiniteState) {
  // A NaN time passes the order check (every comparison with it is
  // false), and the re-sweep would carry a NaN or infinite delta, or
  // base level, into every later level: all are rejected, and the
  // instance keeps its state.
  tr::IncrementalBandwidth source;
  replay(compaction_stream(7, 16, 6), source);
  const auto bytes = saved_state(source);
  // Layout: window_start (bool + f64), event count, events, base level.
  const std::size_t events_at = 9 + 8;
  const std::size_t base_at = events_at + 16 * source.event_count();
  const auto with_f64 = [&bytes](std::size_t at, double v) {
    std::vector<std::uint8_t> out = bytes;
    const auto u = std::bit_cast<std::uint64_t>(v);
    for (std::size_t i = 0; i < 8; ++i) {
      out[at + i] = static_cast<std::uint8_t>(u >> (8 * i));
    }
    return out;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<std::uint8_t>> corrupt = {
      with_f64(events_at + 16 * 3, nan),      // event time
      with_f64(events_at + 16 * 5 + 8, inf),  // event delta
      with_f64(base_at, nan),                 // base level
  };

  tr::IncrementalBandwidth target;
  replay(compaction_stream(3, 16, 6), target);
  const auto before = saved_state(target);
  const auto times_before = bits(target.curve().times());
  for (const auto& payload : corrupt) {
    ftio::util::BinReader in(payload);
    EXPECT_THROW(target.load_state(in), ftio::util::ParseError);
    EXPECT_EQ(saved_state(target), before);
    EXPECT_EQ(bits(target.curve().times()), times_before);
  }
  // The untouched bytes still load.
  ftio::util::BinReader in(bytes);
  target.load_state(in);
  EXPECT_EQ(saved_state(target), bytes);
}

// ---------------------------------------------------------------------------
// JSONL round trip
// ---------------------------------------------------------------------------

TEST(Jsonl, RoundTripPreservesRequests) {
  const auto t = overlap_trace();
  const auto text = tr::to_jsonl(t);
  const auto back = tr::from_jsonl(text);
  EXPECT_EQ(back.app, "test");
  EXPECT_EQ(back.rank_count, 2);
  ASSERT_EQ(back.requests.size(), 2u);
  EXPECT_DOUBLE_EQ(back.requests[1].start, 0.5);
  EXPECT_EQ(back.requests[1].bytes, 100'000'000u);
  EXPECT_EQ(back.requests[1].kind, tr::IoKind::kWrite);
}

TEST(Jsonl, NegativeZeroTimeSurvivesRoundTrip) {
  tr::Trace t;
  t.requests.push_back({0, -0.0, 1.0, 10, tr::IoKind::kWrite});
  const auto back = tr::from_jsonl(tr::to_jsonl(t));
  ASSERT_EQ(back.requests.size(), 1u);
  EXPECT_TRUE(std::signbit(back.requests[0].start));
}

TEST(Jsonl, SkipsUnknownRecordTypes) {
  const std::string text =
      "{\"type\":\"meta\",\"app\":\"x\",\"ranks\":1}\n"
      "{\"type\":\"flush\",\"time\":3.5}\n"
      "{\"type\":\"io\",\"kind\":\"read\",\"rank\":0,\"start\":1.0,\"end\":2.0,\"bytes\":10}\n";
  const auto t = tr::from_jsonl(text);
  ASSERT_EQ(t.requests.size(), 1u);
  EXPECT_EQ(t.requests[0].kind, tr::IoKind::kRead);
}

TEST(Jsonl, RejectsCorruptRecords) {
  EXPECT_THROW(tr::from_jsonl("{\"no_type\":1}\n"), ftio::util::ParseError);
  EXPECT_THROW(
      tr::from_jsonl("{\"type\":\"io\",\"kind\":\"write\",\"rank\":0,"
                     "\"start\":2.0,\"end\":1.0,\"bytes\":1}\n"),
      ftio::util::ParseError);
}

TEST(Jsonl, SkipBadDropsAndCountsMalformedRecords) {
  const std::string text =
      "{\"type\":\"meta\",\"app\":\"x\",\"ranks\":1}\n"
      "not json at all\n"
      "{\"type\":\"io\",\"kind\":\"write\",\"rank\":0,\"start\":0.0,"
      "\"end\":1.0,\"bytes\":10}\n"
      "{\"type\":\"io\",\"kind\":\"write\",\"rank\":0,\"start\":2.0,"
      "\"end\":1.0,\"bytes\":1}\n"
      "{\"type\":\"io\",\"kind\":\"read\",\"rank\":0,\"start\":1.0,"
      "\"end\":2.0,\"bytes\":20}\n";
  tr::ParseStats stats;
  const auto t = tr::from_jsonl(text, tr::ParsePolicy::kSkipBad, &stats);
  ASSERT_EQ(t.requests.size(), 2u);  // the garbage line and end<start drop
  EXPECT_EQ(t.app, "x");
  EXPECT_EQ(stats.records, 3u);  // meta + two good io records
  EXPECT_EQ(stats.skipped, 2u);
}

// The decoders reserve the request vector from the input size over the
// shortest io record each format encodes: 41 bytes of JSONL, 27 of
// MessagePack. Records of exactly that size decode, one request each.
TEST(Jsonl, ShortestIoRecordsDecode) {
  const std::string line = R"({"type":"io","start":0,"end":0,"kind":""})";
  ASSERT_EQ(line.size(), 41u);
  const auto t = tr::from_jsonl(line + "\n" + line + "\n" + line);
  ASSERT_EQ(t.requests.size(), 3u);
  EXPECT_EQ(t.requests[2].kind, tr::IoKind::kWrite);
  EXPECT_EQ(t.requests[2].rank, 0);
  EXPECT_EQ(t.requests[2].bytes, 0u);
}

TEST(MsgpackTrace, ShortestIoRecordsDecode) {
  const std::vector<std::uint8_t> record = {
      0x84,                                      // fixmap, 4 entries
      0xa4, 't', 'y', 'p', 'e', 0xa2, 'i', 'o',  // "type": "io"
      0xa5, 's', 't', 'a', 'r', 't', 0x00,       // "start": 0
      0xa3, 'e', 'n', 'd', 0x00,                 // "end": 0
      0xa4, 'k', 'i', 'n', 'd', 0xa0};           // "kind": ""
  ASSERT_EQ(record.size(), 27u);
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 3; ++i) {
    bytes.insert(bytes.end(), record.begin(), record.end());
  }
  const auto t = tr::from_msgpack(bytes);
  ASSERT_EQ(t.requests.size(), 3u);
  EXPECT_EQ(t.requests[2].kind, tr::IoKind::kWrite);
  EXPECT_EQ(t.requests[2].end, 0.0);
}

TEST(MsgpackTrace, SkipBadDropsBufferTailOnFramingError) {
  auto t = overlap_trace();
  auto bytes = tr::to_msgpack(t);
  // A corrupt byte mid-stream is a framing error: no resynchronisation
  // is possible, so the remainder drops as one skipped record.
  bytes.push_back(0xc1);  // the one reserved/never-used msgpack byte
  tr::ParseStats stats;
  const auto back = tr::from_msgpack(bytes, tr::ParsePolicy::kSkipBad, &stats);
  EXPECT_EQ(back.requests.size(), t.requests.size());
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_THROW(static_cast<void>(tr::from_msgpack(bytes)),
               ftio::util::ParseError);
}

TEST(RecorderCsv, SkipBadDropsAndCountsMalformedRows) {
  const std::string csv =
      "rank,start,end,bytes,op\n"
      "0,0.0,1.0,1048576,write\n"
      "0,abc,1,1,write\n"
      "1,0.25,0.75,2097152,read\n";
  tr::ParseStats stats;
  const auto t =
      tr::from_recorder_csv(csv, tr::ParsePolicy::kSkipBad, &stats);
  ASSERT_EQ(t.requests.size(), 2u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.skipped, 1u);
}

// ---------------------------------------------------------------------------
// MessagePack round trip
// ---------------------------------------------------------------------------

TEST(MsgpackTrace, RoundTrip) {
  auto t = overlap_trace();
  t.requests.push_back({1, 3.0, 4.5, 42, tr::IoKind::kRead});
  const auto bytes = tr::to_msgpack(t);
  const auto back = tr::from_msgpack(bytes);
  ASSERT_EQ(back.requests.size(), 3u);
  EXPECT_EQ(back.app, t.app);
  EXPECT_EQ(back.requests[2].kind, tr::IoKind::kRead);
  EXPECT_DOUBLE_EQ(back.requests[2].end, 4.5);
}

TEST(MsgpackTrace, SmallerThanJsonl) {
  tr::Trace t;
  t.app = "compact";
  t.rank_count = 8;
  for (int i = 0; i < 100; ++i) {
    t.requests.push_back({i % 8, i * 1.0, i * 1.0 + 0.5,
                          static_cast<std::uint64_t>(1024 * i),
                          tr::IoKind::kWrite});
  }
  EXPECT_LT(tr::to_msgpack(t).size(), tr::to_jsonl(t).size());
}

// ---------------------------------------------------------------------------
// Record decoder vs the DOM oracle (fuzz/trace_dom_oracle.hpp)
// ---------------------------------------------------------------------------

namespace {

namespace oracle = ftio::fuzz::dom_oracle;
using ftio::util::Json;

constexpr tr::ParsePolicy kPolicies[] = {tr::ParsePolicy::kStrict,
                                         tr::ParsePolicy::kSkipBad};

void expect_jsonl_agrees(std::string_view text) {
  for (const auto policy : kPolicies) {
    EXPECT_EQ(oracle::jsonl_difference(text, policy), "")
        << "policy " << static_cast<int>(policy) << ", input: " << text;
  }
}

void expect_msgpack_agrees(const std::vector<std::uint8_t>& bytes) {
  for (const auto policy : kPolicies) {
    EXPECT_EQ(oracle::msgpack_difference(bytes, policy), "")
        << "policy " << static_cast<int>(policy) << ", " << bytes.size()
        << " bytes";
  }
}

std::vector<std::uint8_t> packed(const Json& doc) {
  return ftio::util::msgpack::encode(doc);
}

std::vector<std::uint8_t> cat(
    std::initializer_list<std::vector<std::uint8_t>> parts) {
  std::vector<std::uint8_t> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// A valid io record with the given `start` value bytes spliced in
/// (fixmap of 5: type, kind, rank, start, end).
std::vector<std::uint8_t> io_record_with_start(
    const std::vector<std::uint8_t>& start_value) {
  const std::vector<std::uint8_t> head = {
      0x85, 0xA4, 't', 'y', 'p', 'e', 0xA2, 'i', 'o',  0xA4, 'k',
      'i',  'n',  'd', 0xA4, 'r', 'e', 'a', 'd', 0xA4, 'r',  'a',
      'n',  'k',  0x07, 0xA5, 's', 't', 'a', 'r', 't'};
  const std::vector<std::uint8_t> end = {0xA3, 'e', 'n', 'd', 0xCB, 0x40,
                                         0x24, 0,   0,   0,   0,    0,
                                         0};  // 10.0
  return cat({head, start_value, end});
}

tr::Trace small_trace() {
  tr::Trace t;
  t.app = "oracle";
  t.rank_count = 4;
  for (int i = 0; i < 6; ++i) {
    t.requests.push_back({i % 4, 0.25 * i, 0.25 * i + 0.125,
                          static_cast<std::uint64_t>(1000 + 37 * i),
                          i % 3 == 0 ? tr::IoKind::kRead : tr::IoKind::kWrite});
  }
  return t;
}

/// Seeded structure-aware byte mutations: overwrite, insert a token,
/// erase a range, duplicate a range. `tokens` are format fragments that
/// steer the mutants toward the decoders' edge cases.
std::string mutate(std::string s, std::mt19937_64& rng,
                   const std::vector<std::string>& tokens) {
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = s.empty() ? 0 : rng() % (s.size() + 1);
    switch (rng() % 4) {
      case 0:
        if (at < s.size()) s[at] = static_cast<char>(rng() & 0xFF);
        break;
      case 1:
        s.insert(at, tokens[rng() % tokens.size()]);
        break;
      case 2:
        s.erase(at, 1 + rng() % 8);
        break;
      default: {
        const std::size_t len = std::min<std::size_t>(1 + rng() % 24,
                                                      s.size() - at);
        const std::string piece = s.substr(at, len);
        s.insert(s.empty() ? 0 : rng() % (s.size() + 1), piece);
        break;
      }
    }
  }
  return s;
}

}  // namespace

TEST(RecordDecoder, DuplicateKeysFirstOccurrenceWins) {
  const std::string line =
      "{\"type\":\"io\",\"kind\":\"read\",\"type\":\"meta\",\"rank\":2,"
      "\"rank\":\"x\",\"start\":1,\"end\":2,\"start\":9,\"bytes\":3,"
      "\"bytes\":-1,\"kind\":7}\n";
  const auto t = tr::from_jsonl(line);
  ASSERT_EQ(t.requests.size(), 1u);
  EXPECT_EQ(t.requests[0].rank, 2);
  EXPECT_EQ(t.requests[0].start, 1.0);
  EXPECT_EQ(t.requests[0].bytes, 3u);
  EXPECT_EQ(t.requests[0].kind, tr::IoKind::kRead);
  expect_jsonl_agrees(line);

  Json::Object dup = {{"type", Json("io")},    {"type", Json(5)},
                      {"kind", Json("read")},  {"start", Json(1.5)},
                      {"end", Json(2.5)},      {"end", Json("late")},
                      {"rank", Json(3)},       {"rank", Json(1.5)}};
  const auto bytes = packed(Json(dup));
  const auto m = tr::from_msgpack(bytes);
  ASSERT_EQ(m.requests.size(), 1u);
  EXPECT_EQ(m.requests[0].end, 2.5);
  EXPECT_EQ(m.requests[0].rank, 3);
  expect_msgpack_agrees(bytes);
}

TEST(RecordDecoder, EscapedKeysAndValuesDecode) {
  const std::string line =
      "{\"typ\\u0065\":\"m\\u0065ta\",\"\\u0061pp\":\"caf\\u00e9 \\u20ac\","
      "\"ranks\":3}\n";
  const auto t = tr::from_jsonl(line);
  EXPECT_EQ(t.app, "caf\xC3\xA9 \xE2\x82\xAC");
  EXPECT_EQ(t.rank_count, 3);
  expect_jsonl_agrees(line);
  expect_jsonl_agrees("{\"type\":\"io\",\"kind\":\"re\\u0061d\",\"start\":0,"
                      "\"end\":1,\"r\\ank\":1}\n");
}

TEST(RecordDecoder, NumberTokenisationMatchesJson) {
  // int64 overflow becomes a double, which as_int rejects.
  EXPECT_THROW(tr::from_jsonl("{\"type\":\"meta\",\"ranks\":"
                              "9223372036854775808}\n"),
               ftio::util::ParseError);
  // A double-shaped token is a double even when integral.
  for (const char* rank : {"1e0", "1.5", "1.0", "1E2", "0-1"}) {
    const std::string line = std::string("{\"type\":\"io\",\"kind\":\"write\","
                                         "\"start\":0,\"end\":1,\"rank\":") +
                             rank + "}\n";
    EXPECT_THROW(tr::from_jsonl(line), ftio::util::ParseError) << rank;
    expect_jsonl_agrees(line);
  }
  // Negative bytes wrap to uint64, as the cast always did.
  const std::string negative =
      "{\"type\":\"io\",\"kind\":\"write\",\"start\":0,\"end\":1,"
      "\"bytes\":-5}\n";
  const auto t = tr::from_jsonl(negative);
  ASSERT_EQ(t.requests.size(), 1u);
  EXPECT_EQ(t.requests[0].bytes, static_cast<std::uint64_t>(-5));
  for (const char* line :
       {"{\"type\":\"meta\",\"ranks\":9223372036854775808}",
        "{\"type\":\"meta\",\"ranks\":-9223372036854775808}",
        "{\"type\":\"io\",\"kind\":\"read\",\"start\":-0,\"end\":1e400}",
        "{\"type\":\"io\",\"kind\":\"read\",\"start\":1e-400,\"end\":1.}",
        "{\"type\":\"io\",\"kind\":\"read\",\"start\":.5,\"end\":-}",
        "{\"type\":\"io\",\"kind\":\"read\",\"start\":0,\"end\":1,"
        "\"bytes\":99999999999999999999}"}) {
    expect_jsonl_agrees(line);
  }
}

TEST(RecordDecoder, MetaWithBadRanksKeepsAppUnderSkipBad) {
  const std::string text =
      "{\"type\":\"meta\",\"app\":\"first\",\"ranks\":2}\n"
      "{\"type\":\"meta\",\"app\":\"second\",\"ranks\":\"4\"}\n"
      "{\"type\":\"io\",\"kind\":\"write\",\"start\":0,\"end\":1}\n";
  tr::ParseStats stats;
  const auto t = tr::from_jsonl(text, tr::ParsePolicy::kSkipBad, &stats);
  EXPECT_EQ(t.app, "second");  // set before ranks threw
  EXPECT_EQ(t.rank_count, 2);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.skipped, 1u);
  expect_jsonl_agrees(text);
}

TEST(RecordDecoder, NestedUnknownValuesAreValidatedAndIgnored) {
  const std::string nested =
      "{\"type\":\"io\",\"extra\":{\"type\":\"meta\",\"kind\":\"read\","
      "\"rank\":[1,{\"start\":5}]},\"kind\":\"write\",\"start\":0.5,"
      "\"end\":1,\"rank\":1,\"more\":[null,true,false,\"s\",-2.5e3]}\n";
  const auto t = tr::from_jsonl(nested);
  ASSERT_EQ(t.requests.size(), 1u);
  EXPECT_EQ(t.requests[0].kind, tr::IoKind::kWrite);
  EXPECT_EQ(t.requests[0].start, 0.5);
  EXPECT_EQ(t.requests[0].rank, 1);
  expect_jsonl_agrees(nested);
  // A grammar error anywhere rejects the record, however deep.
  for (const char* bad :
       {"{\"type\":\"meta\",\"x\":[1,2,}",
        "{\"type\":\"meta\",\"x\":{\"a\":tru}}",
        "{\"type\":\"meta\",\"x\":\"\\q\"}",
        "{\"type\":\"meta\"} trailing",
        "{\"type\":\"meta\",\"app\":\"\\u12G4\"}",
        "[{\"type\":\"meta\"}]", "\"type\"", "42", "{}",
        "{\"type\":null}", "{\"type\":[\"io\"]}"}) {
    EXPECT_THROW(tr::from_jsonl(bad), ftio::util::ParseError) << bad;
    expect_jsonl_agrees(bad);
  }
}

TEST(RecordDecoder, MsgpackEdgeCasesAgreeWithOracle) {
  // float32 start.
  const auto f32 = io_record_with_start({0xCA, 0x3F, 0xC0, 0, 0});  // 1.5f
  const auto t = tr::from_msgpack(f32);
  ASSERT_EQ(t.requests.size(), 1u);
  EXPECT_EQ(t.requests[0].start, 1.5);
  EXPECT_EQ(t.requests[0].rank, 7);
  expect_msgpack_agrees(f32);
  // uint64 bytes above INT64_MAX wraps through int64.
  expect_msgpack_agrees(io_record_with_start({0xCF, 0xFF, 0xFF, 0xFF, 0xFF,
                                              0xFF, 0xFF, 0xFF, 0xFF}));
  // A non-string map key is a framing error: under kSkipBad the rest of
  // the buffer drops as one skipped record.
  const auto meta = packed(Json::parse("{\"type\":\"meta\",\"app\":\"m\"}"));
  const std::vector<std::uint8_t> int_key = {0x81, 0x01, 0xA1, 'x'};
  const auto framed = cat({meta, int_key, meta});
  tr::ParseStats stats;
  const auto m = tr::from_msgpack(framed, tr::ParsePolicy::kSkipBad, &stats);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_THROW(tr::from_msgpack(framed), ftio::util::ParseError);
  expect_msgpack_agrees(framed);
  // Array and map counts the remaining input cannot hold.
  for (const std::vector<std::uint8_t>& truncated :
       {std::vector<std::uint8_t>{0xDD, 0xFF, 0xFF, 0xFF, 0xFF, 0x00},
        std::vector<std::uint8_t>{0xDF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00},
        std::vector<std::uint8_t>{0xDC, 0x00, 0x03, 0x01, 0x02},
        std::vector<std::uint8_t>{0x82, 0xA1, 'a', 0x01},
        std::vector<std::uint8_t>{0xDB, 0x00, 0x00, 0x01, 0x00, 'a'}}) {
    expect_msgpack_agrees(cat({meta, truncated}));
  }
  // Nested unknown values, and a key that only matches at depth 2.
  const auto nested = packed(Json::parse(
      "{\"x\":{\"type\":\"meta\",\"app\":\"inner\"},\"type\":\"meta\","
      "\"y\":[1,[2,{\"ranks\":9}],null,true,2.5],\"app\":\"outer\"}"));
  const auto n = tr::from_msgpack(nested);
  EXPECT_EQ(n.app, "outer");
  EXPECT_EQ(n.rank_count, 0);
  expect_msgpack_agrees(nested);
}

TEST(RecordDecoder, SeededMutationsAgreeWithOracle) {
  const tr::Trace base = small_trace();
  const std::vector<std::string> json_seeds = {
      tr::to_jsonl(base),
      "{\"typ\\u0065\":\"meta\",\"app\":\"a\\\"b\",\"ranks\":2}\n"
      "{\"type\":\"io\",\"kind\":\"read\",\"rank\":1,\"start\":1e0,"
      "\"end\":2.5E+1,\"bytes\":-3,\"x\":{\"y\":[1,null]}}\n"};
  const std::vector<std::string> json_tokens = {
      "\"", "{", "}", "[", "]", ",", ":", "\\", "\\u00", "\n", "-", ".",
      "e", "E+", "0", "9", " ", "null", "true", "\"type\":\"io\",",
      "\"type\":\"meta\",", "\"rank\":1.5,", "\"ranks\":\"2\",",
      "99999999999999999999", "\"bytes\":-7,", "\"start\":3,",
      "\"end\":", "\"kind\":\"read\",", "{\"a\":[1,{}]}", "\"app\":\"z\","};
  const auto base_packed = tr::to_msgpack(base);
  const std::vector<std::string> packed_seeds = {
      std::string(base_packed.begin(), base_packed.end())};
  const std::vector<std::string> packed_tokens = {
      "\xC0", "\xC2", "\xC3", "\xCA\x3F\xC0\x00\x00", "\xCB", "\xCC\xFF",
      "\xCF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF", "\xD0\x80", "\xD9\x04",
      "\xDC\x00\x02", "\xDE\x00\x01", "\xDF\xFF\xFF\xFF\xFF", "\x81",
      "\x92", "\xA4type", "\xA2io", "\xA4meta", "\xA4rank", "\xA5ranks",
      "\xA5start", "\xA3""end", "\xA5""bytes", "\xA4kind", "\xA4read",
      "\x01", "\xFF", "\xC1"};

  std::mt19937_64 rng(20240501);
  std::size_t accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string text =
        mutate(json_seeds[i % json_seeds.size()], rng, json_tokens);
    expect_jsonl_agrees(text);
    const std::string raw =
        mutate(packed_seeds[i % packed_seeds.size()], rng, packed_tokens);
    const std::vector<std::uint8_t> bytes(raw.begin(), raw.end());
    expect_msgpack_agrees(bytes);
    try {
      static_cast<void>(tr::from_jsonl(text));
      ++accepted;
    } catch (const ftio::util::ParseError&) {
    }
    if (HasFailure()) break;  // one report is enough
  }
  // The mutants must exercise both outcomes, not only rejections.
  EXPECT_GT(accepted, 100u);
  EXPECT_LT(accepted, 3900u);
}

TEST(RecordDecoder, FailpointSequenceMatchesOracle) {
  namespace fp = ftio::util::failpoints;
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  const std::string text = tr::to_jsonl(small_trace());
  const auto bytes = tr::to_msgpack(small_trace());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto policy = tr::ParsePolicy::kSkipBad;
    fp::arm("trace.parse_garbage", 0.3, seed);
    const auto got = oracle::run(
        [&](auto p, auto* s) { return tr::from_jsonl(text, p, s); }, policy);
    fp::arm("trace.parse_garbage", 0.3, seed);
    const auto want = oracle::run(
        [&](auto p, auto* s) { return oracle::from_jsonl(text, p, s); },
        policy);
    EXPECT_EQ(oracle::difference(got, want), "") << "seed " << seed;
    fp::arm("trace.parse_garbage", 0.3, seed);
    const auto got_mp = oracle::run(
        [&](auto p, auto* s) { return tr::from_msgpack(bytes, p, s); },
        policy);
    fp::arm("trace.parse_garbage", 0.3, seed);
    const auto want_mp = oracle::run(
        [&](auto p, auto* s) { return oracle::from_msgpack(bytes, p, s); },
        policy);
    EXPECT_EQ(oracle::difference(got_mp, want_mp), "") << "seed " << seed;
  }
  fp::disarm_all();
}

// ---------------------------------------------------------------------------
// Recorder CSV
// ---------------------------------------------------------------------------

TEST(RecorderCsv, RoundTrip) {
  const auto t = overlap_trace();
  const auto csv = tr::to_recorder_csv(t);
  const auto back = tr::from_recorder_csv(csv);
  ASSERT_EQ(back.requests.size(), 2u);
  EXPECT_EQ(back.rank_count, 2);
  EXPECT_DOUBLE_EQ(back.requests[1].end, 1.5);
}

TEST(RecorderCsv, ParsesHandWrittenFile) {
  const std::string csv =
      "rank,start,end,bytes,op\n"
      "0,0.0,1.0,1048576,write\n"
      "1,0.25,0.75,2097152,read\n";
  const auto t = tr::from_recorder_csv(csv);
  ASSERT_EQ(t.requests.size(), 2u);
  EXPECT_EQ(t.requests[1].kind, tr::IoKind::kRead);
  EXPECT_EQ(t.requests[1].bytes, 2097152u);
}

TEST(RecorderCsv, HighestRankCountsWithoutOverflow) {
  const auto t = tr::from_recorder_csv(
      "rank,start,end,bytes,op\n2147483647,0.0,1.0,1,write\n");
  ASSERT_EQ(t.requests.size(), 1u);
  EXPECT_EQ(t.requests[0].rank, std::numeric_limits<int>::max());
  EXPECT_EQ(t.rank_count, std::numeric_limits<int>::max());
}

TEST(RecorderCsv, RankThatIsNoIntIsABadRow) {
  for (const std::string rank : {"nan", "inf", "-inf", "1e300", "-1e300",
                                 "2147483648", "-2147483649"}) {
    const std::string csv = "rank,start,end,bytes,op\n0,0.0,1.0,1,write\n" +
                            rank + ",0.0,1.0,1,write\n";
    EXPECT_THROW(static_cast<void>(tr::from_recorder_csv(csv)),
                 ftio::util::ParseError)
        << rank;
    tr::ParseStats stats;
    const auto t =
        tr::from_recorder_csv(csv, tr::ParsePolicy::kSkipBad, &stats);
    EXPECT_EQ(t.requests.size(), 1u) << rank;
    EXPECT_EQ(stats.skipped, 1u) << rank;
    EXPECT_EQ(t.rank_count, 1) << rank;
  }
  // A rank that truncates to an int stays accepted, as before.
  const auto t = tr::from_recorder_csv(
      "rank,start,end,bytes,op\n"
      "2147483647.5,0.0,1.0,1,write\n"
      "-2147483648.9,0.0,1.0,1,write\n"
      "3.7,0.0,1.0,1,write\n");
  ASSERT_EQ(t.requests.size(), 3u);
  EXPECT_EQ(t.requests[0].rank, std::numeric_limits<int>::max());
  EXPECT_EQ(t.requests[1].rank, std::numeric_limits<int>::min());
  EXPECT_EQ(t.requests[2].rank, 3);
}

TEST(RecorderCsv, RejectsInvalidNumbers) {
  EXPECT_THROW(tr::from_recorder_csv("rank,start,end,bytes,op\n0,abc,1,1,write\n"),
               ftio::util::ParseError);
}

// ---------------------------------------------------------------------------
// Darshan-like heatmap
// ---------------------------------------------------------------------------

TEST(Heatmap, FromTraceBinsBytes) {
  tr::Trace t;
  t.app = "hm";
  // 10 MB written uniformly over [0, 2): 5 MB per 1 s bin.
  t.requests.push_back({0, 0.0, 2.0, 10'000'000, tr::IoKind::kWrite});
  const auto h = tr::heatmap_from_trace(t, 1.0);
  ASSERT_EQ(h.bytes_per_bin.size(), 2u);
  EXPECT_NEAR(h.bytes_per_bin[0], 5e6, 1.0);
  EXPECT_NEAR(h.bytes_per_bin[1], 5e6, 1.0);
  EXPECT_DOUBLE_EQ(h.implied_sampling_frequency(), 1.0);
}

TEST(Heatmap, VolumeConserved) {
  const auto t = overlap_trace();
  const auto h = tr::heatmap_from_trace(t, 0.25);
  double total = 0.0;
  for (double b : h.bytes_per_bin) total += b;
  EXPECT_NEAR(total, static_cast<double>(t.total_bytes()), 1.0);
}

TEST(Heatmap, BandwidthCurveFromBins) {
  tr::Heatmap h;
  h.bin_width = 2.0;
  h.bytes_per_bin = {4e6, 0.0, 8e6};
  const auto f = h.bandwidth();
  EXPECT_DOUBLE_EQ(f.value_at(1.0), 2e6);
  EXPECT_DOUBLE_EQ(f.value_at(3.0), 0.0);
  EXPECT_DOUBLE_EQ(f.value_at(5.0), 4e6);
  EXPECT_DOUBLE_EQ(f.duration(), 6.0);
}

TEST(Heatmap, CsvRoundTrip) {
  tr::Heatmap h;
  h.app = "nek5000";
  h.start_time = 10.0;
  h.bin_width = 160.0;
  h.bytes_per_bin = {1e9, 0.0, 3.5e9, 2e8};
  const auto csv = tr::to_heatmap_csv(h);
  const auto back = tr::from_heatmap_csv(csv);
  EXPECT_EQ(back.app, "nek5000");
  EXPECT_DOUBLE_EQ(back.start_time, 10.0);
  EXPECT_NEAR(back.bin_width, 160.0, 1e-9);
  ASSERT_EQ(back.bytes_per_bin.size(), 4u);
  EXPECT_DOUBLE_EQ(back.bytes_per_bin[2], 3.5e9);
}

TEST(Heatmap, InstantaneousRequestLandsInBin) {
  tr::Trace t;
  t.requests.push_back({0, 0.0, 4.0, 0, tr::IoKind::kWrite});  // span trace
  t.requests.push_back({0, 2.5, 2.5, 777, tr::IoKind::kWrite});
  const auto h = tr::heatmap_from_trace(t, 1.0);
  EXPECT_DOUBLE_EQ(h.bytes_per_bin[2], 777.0);
}

TEST(Heatmap, RejectsBadBinWidth) {
  EXPECT_THROW(tr::heatmap_from_trace(tr::Trace{}, 0.0),
               ftio::util::InvalidArgument);
}
