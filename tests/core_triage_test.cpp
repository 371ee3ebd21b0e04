#include "core/triage.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "util/error.hpp"

namespace core = ftio::core;

namespace {

core::TriageBankOptions bank_options() {
  core::TriageBankOptions o;
  o.bands = 32;
  o.min_period = 2.0;
  o.max_period = 256.0;
  return o;
}

/// Feeds `count` burst observations of period `period` starting at
/// `start`, weight 1 each.
void feed_bursts(core::TriageFilterBank& bank, int count, double period,
                 double start = 0.0, double weight = 1.0) {
  for (int i = 0; i < count; ++i) {
    bank.observe(start + static_cast<double>(i) * period, weight);
  }
}

/// Deterministic xorshift for jitter / aperiodic tests.
struct Rng {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  double uniform() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return static_cast<double>(s >> 11) / 9007199254740992.0;
  }
};

}  // namespace

TEST(TriageFilterBank, RejectsBadOptions) {
  core::TriageBankOptions o = bank_options();
  o.bands = 1;
  EXPECT_THROW(core::TriageFilterBank{o}, ftio::util::InvalidArgument);
  o = bank_options();
  o.min_period = 0.0;
  EXPECT_THROW(core::TriageFilterBank{o}, ftio::util::InvalidArgument);
  o = bank_options();
  o.max_period = o.min_period;
  EXPECT_THROW(core::TriageFilterBank{o}, ftio::util::InvalidArgument);
  o = bank_options();
  o.decay_periods = 0.0;
  EXPECT_THROW(core::TriageFilterBank{o}, ftio::util::InvalidArgument);
}

TEST(TriageFilterBank, InvalidBeforeWarmup) {
  core::TriageFilterBank bank(bank_options());
  EXPECT_FALSE(bank.estimate().valid());
  bank.observe(0.0, 1.0);
  EXPECT_FALSE(bank.estimate().valid());
  // Two observations 10 s apart: no band has seen min_cycles periods yet
  // except possibly very short ones that the bursts do not excite.
  bank.observe(10.0, 1.0);
  const auto est = bank.estimate();
  if (est.valid()) {
    EXPECT_LE(est.period, 10.0);
  }
}

TEST(TriageFilterBank, DetectsSteadyPeriod) {
  core::TriageFilterBank bank(bank_options());
  feed_bursts(bank, 24, 10.0);
  const auto est = bank.estimate();
  ASSERT_TRUE(est.valid());
  // Band-grid resolution plus interpolation: within 15% of the truth.
  EXPECT_NEAR(est.period, 10.0, 1.5);
  EXPECT_GT(est.confidence, 0.8);
  EXPECT_DOUBLE_EQ(est.frequency, 1.0 / est.period);
  EXPECT_EQ(est.observations, 24u);
}

TEST(TriageFilterBank, PicksFundamentalOverHarmonics) {
  // A period-10 burst train is perfectly coherent at 10, 5, 2.5, ... —
  // the estimate must land on the longest coherent period, not a
  // harmonic.
  core::TriageFilterBank bank(bank_options());
  feed_bursts(bank, 32, 10.0);
  const auto est = bank.estimate();
  ASSERT_TRUE(est.valid());
  EXPECT_GT(est.period, 7.0);
  EXPECT_LT(est.period, 14.0);
}

TEST(TriageFilterBank, MinCyclesGuardsLongPeriodLeakage) {
  // Early in a stream every near-DC band looks coherent (all phases in a
  // fraction of a cycle). The min_cycles rule must keep the estimate at
  // the burst period, not at the longest band.
  core::TriageFilterBank bank(bank_options());
  feed_bursts(bank, 6, 10.0);  // span 50 s, max eligible period ~16 s
  const auto est = bank.estimate();
  ASSERT_TRUE(est.valid());
  EXPECT_LT(est.period, 17.0);
}

TEST(TriageFilterBank, TracksPeriodDrift) {
  core::TriageFilterBank bank(bank_options());
  feed_bursts(bank, 24, 10.0);
  const auto before = bank.estimate();
  ASSERT_TRUE(before.valid());
  // The application switches to a 24 s cadence; the forgetting horizon
  // (decay_periods x band period) washes the old pattern out.
  feed_bursts(bank, 40, 24.0, 24.0 * 10.0);
  const auto after = bank.estimate();
  ASSERT_TRUE(after.valid());
  EXPECT_NEAR(after.period, 24.0, 3.6);
  EXPECT_GT(std::abs(std::log(after.period / before.period)), 0.5);
}

TEST(TriageFilterBank, AperiodicTimesHaveLowCoherence) {
  core::TriageFilterBank bank(bank_options());
  Rng rng;
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += 1.0 + 19.0 * rng.uniform();  // uniform gaps in [1, 20]
    bank.observe(t, 0.5 + rng.uniform());
  }
  const auto est = bank.estimate();
  // Whatever band wins, it must not look like a confident detection.
  if (est.valid()) {
    EXPECT_LT(est.confidence, 0.6);
  }
}

TEST(TriageFilterBank, JitteredPeriodStaysConfident) {
  core::TriageFilterBank bank(bank_options());
  Rng rng;
  for (int i = 0; i < 40; ++i) {
    const double jitter = 0.4 * (rng.uniform() - 0.5);
    bank.observe(10.0 * static_cast<double>(i) + jitter, 1.0);
  }
  const auto est = bank.estimate();
  ASSERT_TRUE(est.valid());
  EXPECT_NEAR(est.period, 10.0, 1.5);
  EXPECT_GT(est.confidence, 0.7);
}

TEST(TriageFilterBank, IgnoresNonPositiveWeights) {
  core::TriageFilterBank bank(bank_options());
  bank.observe(0.0, 0.0);
  bank.observe(1.0, -5.0);
  EXPECT_EQ(bank.observation_count(), 0u);
}

TEST(TriageFilterBank, StateIsFixedSize) {
  core::TriageFilterBank bank(bank_options());
  const std::size_t before = bank.memory_bytes();
  feed_bursts(bank, 1000, 10.0);
  EXPECT_EQ(bank.memory_bytes(), before);
  EXPECT_EQ(bank.band_count(), bank_options().bands);
  // A 32-band bank is a few hundred bytes — the whole point of the tier.
  EXPECT_LT(before, std::size_t{4096});
}

TEST(TriageFilterBank, OutOfOrderObservationDoesNotCorrupt) {
  core::TriageFilterBank bank(bank_options());
  feed_bursts(bank, 20, 10.0);
  bank.observe(95.0, 1.0);  // straggler behind the stream head
  feed_bursts(bank, 10, 10.0, 200.0);
  const auto est = bank.estimate();
  ASSERT_TRUE(est.valid());
  EXPECT_NEAR(est.period, 10.0, 1.5);
}
