#include "outlier/outlier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace out = ftio::outlier;

namespace {

/// Baseline noise plus one large spike at index 17 — the canonical shape of
/// a periodic signal's power spectrum.
std::vector<double> spiked_data(double spike = 50.0) {
  ftio::util::Rng rng(7);
  std::vector<double> v(200);
  for (auto& x : v) x = rng.uniform(0.9, 1.1);
  v[17] = spike;
  return v;
}

std::size_t count_true(const std::vector<bool>& flags) {
  return static_cast<std::size_t>(std::count(flags.begin(), flags.end(), true));
}

}  // namespace

TEST(MethodNames, AllNamed) {
  EXPECT_STREQ(out::method_name(out::Method::kZScore), "z-score");
  EXPECT_STREQ(out::method_name(out::Method::kDbscan), "dbscan");
  EXPECT_STREQ(out::method_name(out::Method::kIsolationForest), "isolation-forest");
  EXPECT_STREQ(out::method_name(out::Method::kLocalOutlierFactor), "lof");
}

// ---------------------------------------------------------------------------
// Z-score
// ---------------------------------------------------------------------------

TEST(ZScore, FlagsSingleSpike) {
  const auto v = spiked_data();
  const auto flags = out::zscore_outliers(v, 3.0);
  EXPECT_TRUE(flags[17]);
  EXPECT_EQ(count_true(flags), 1u);
}

TEST(ZScore, NoOutliersInUniformData) {
  ftio::util::Rng rng(9);
  std::vector<double> v(100);
  for (auto& x : v) x = rng.uniform(0.0, 1.0);
  EXPECT_EQ(count_true(out::zscore_outliers(v, 3.5)), 0u);
}

TEST(ZScore, ThresholdControlsSensitivity) {
  const auto v = spiked_data(3.0);  // mild spike
  const auto strict = out::zscore_outliers(v, 20.0);
  const auto loose = out::zscore_outliers(v, 1.0);
  EXPECT_EQ(count_true(strict), 0u);
  EXPECT_GE(count_true(loose), 1u);
}

TEST(ZScore, EmptyInput) {
  EXPECT_TRUE(out::zscore_outliers(std::vector<double>{}).empty());
}

TEST(ZScore, OneSidedDefaultIgnoresLowSideOutliers) {
  // Mixed-sign data with one high spike and one low spike. The default
  // Eq. (2) semantics (spectral powers, anomalously *high* bins) must
  // flag only the high side — the low spike has z < -t, not z > t.
  ftio::util::Rng rng(11);
  std::vector<double> v(200);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  v[17] = 60.0;
  v[42] = -60.0;
  const auto flags = out::zscore_outliers(v, 3.0);
  EXPECT_TRUE(flags[17]);
  EXPECT_FALSE(flags[42]);
  EXPECT_EQ(count_true(flags), 1u);
}

TEST(ZScore, TwoSidedFlagsBothTails) {
  ftio::util::Rng rng(11);
  std::vector<double> v(200);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  v[17] = 60.0;
  v[42] = -60.0;
  const auto flags = out::zscore_outliers(v, 3.0, /*two_sided=*/true);
  EXPECT_TRUE(flags[17]);
  EXPECT_TRUE(flags[42]);
  EXPECT_EQ(count_true(flags), 2u);
}

TEST(ZScore, DetectRoutesTwoSidedOption) {
  ftio::util::Rng rng(13);
  std::vector<double> v(200);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  v[5] = -80.0;
  out::DetectOptions one_sided;
  out::DetectOptions two_sided;
  two_sided.zscore_two_sided = true;
  EXPECT_FALSE(out::detect(v, out::Method::kZScore, one_sided)[5]);
  EXPECT_TRUE(out::detect(v, out::Method::kZScore, two_sided)[5]);
}

// ---------------------------------------------------------------------------
// DBSCAN
// ---------------------------------------------------------------------------

TEST(Dbscan1d, TwoWellSeparatedClusters) {
  std::vector<double> v{1.0, 1.1, 1.2, 10.0, 10.1, 10.2};
  const auto labels = out::dbscan_1d(v, 0.5, 2);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_EQ(labels[4], labels[5]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_GE(labels[0], 0);
}

TEST(Dbscan1d, IsolatedPointIsNoise) {
  std::vector<double> v{1.0, 1.1, 1.2, 50.0};
  const auto labels = out::dbscan_1d(v, 0.5, 2);
  EXPECT_EQ(labels[3], -1);
  EXPECT_GE(labels[0], 0);
}

TEST(Dbscan1d, MinPointsGovernsCoreStatus) {
  std::vector<double> v{1.0, 1.1};
  EXPECT_EQ(out::dbscan_1d(v, 0.5, 3)[0], -1);  // too few neighbours
  EXPECT_GE(out::dbscan_1d(v, 0.5, 2)[0], 0);
}

TEST(Dbscan1d, EmptyInput) {
  EXPECT_TRUE(out::dbscan_1d(std::vector<double>{}, 1.0, 2).empty());
}

TEST(Dbscan1d, ChainClustersThroughDensity) {
  // Points spaced 0.4 apart chain into one cluster with eps 0.5.
  std::vector<double> v;
  for (int i = 0; i < 10; ++i) v.push_back(0.4 * i);
  const auto labels = out::dbscan_1d(v, 0.5, 2);
  for (int l : labels) EXPECT_EQ(l, labels[0]);
}

TEST(DbscanOutliers, FlagsHighValueNoise) {
  const auto v = spiked_data();
  const auto flags = out::dbscan_outliers(v, 0.3, 3);
  EXPECT_TRUE(flags[17]);
  EXPECT_EQ(count_true(flags), 1u);
}

// ---------------------------------------------------------------------------
// Isolation forest
// ---------------------------------------------------------------------------

TEST(IsolationForest, SpikeGetsHighScore) {
  const auto v = spiked_data();
  const auto scores = out::isolation_forest_scores(v);
  double max_normal = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 17) max_normal = std::max(max_normal, scores[i]);
  }
  EXPECT_GT(scores[17], max_normal);
  EXPECT_GT(scores[17], 0.6);
}

TEST(IsolationForest, FlagsSpikeOnly) {
  const auto v = spiked_data();
  const auto flags = out::isolation_forest_outliers(v);
  EXPECT_TRUE(flags[17]);
  EXPECT_EQ(count_true(flags), 1u);
}

TEST(IsolationForest, DeterministicForFixedSeed) {
  const auto v = spiked_data();
  out::IsolationForestOptions opts;
  opts.seed = 5;
  const auto a = out::isolation_forest_scores(v, opts);
  const auto b = out::isolation_forest_scores(v, opts);
  EXPECT_EQ(a, b);
}

TEST(IsolationForest, ScoresBitIdenticalForEveryThreadCount) {
  // The tree loop fans across util::parallel_for with per-tree RNG
  // streams and a fixed chunk-ordered reduction: the scores must not
  // depend on how many workers actually ran. Exercised with tree counts
  // below, at, and above the chunk count so uneven tree/chunk splits are
  // covered.
  const auto v = spiked_data();
  for (std::size_t trees : {3u, 16u, 50u}) {
    out::IsolationForestOptions opts;
    opts.tree_count = trees;
    opts.threads = 1;
    const auto serial = out::isolation_forest_scores(v, opts);
    for (unsigned threads : {2u, 5u, 0u}) {
      opts.threads = threads;
      EXPECT_EQ(out::isolation_forest_scores(v, opts), serial)
          << "trees = " << trees << " threads = " << threads;
    }
  }
}

TEST(IsolationForest, ScoresWithinUnitInterval) {
  const auto v = spiked_data();
  for (double s : out::isolation_forest_scores(v)) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(IsolationForest, EmptyInput) {
  EXPECT_TRUE(out::isolation_forest_scores(std::vector<double>{}).empty());
}

// ---------------------------------------------------------------------------
// Local outlier factor
// ---------------------------------------------------------------------------

TEST(Lof, SpikeHasElevatedFactor) {
  const auto v = spiked_data();
  const auto lof = out::local_outlier_factors(v, {.neighbors = 10});
  EXPECT_GT(lof[17], 1.5);
}

TEST(Lof, InliersNearOne) {
  ftio::util::Rng rng(4);
  std::vector<double> v(100);
  for (auto& x : v) x = rng.uniform(0.0, 1.0);
  const auto lof = out::local_outlier_factors(v, {.neighbors = 10});
  double mean = 0.0;
  for (double f : lof) mean += f;
  mean /= static_cast<double>(lof.size());
  EXPECT_NEAR(mean, 1.0, 0.3);
}

TEST(Lof, FlagsSpikeOnly) {
  const auto v = spiked_data();
  const auto flags = out::lof_outliers(v, {.neighbors = 10});
  EXPECT_TRUE(flags[17]);
  EXPECT_EQ(count_true(flags), 1u);
}

TEST(Lof, TinyInputsAreInliers) {
  std::vector<double> v{1.0};
  const auto lof = out::local_outlier_factors(v);
  EXPECT_DOUBLE_EQ(lof[0], 1.0);
}

// ---------------------------------------------------------------------------
// Unified detect() — every method must find the canonical spectrum spike
// ---------------------------------------------------------------------------

class DetectAllMethods : public ::testing::TestWithParam<out::Method> {};

TEST_P(DetectAllMethods, FindsCanonicalSpike) {
  const auto v = spiked_data();
  out::DetectOptions opts;
  opts.lof.neighbors = 10;
  const auto flags = out::detect(v, GetParam(), opts);
  ASSERT_EQ(flags.size(), v.size());
  EXPECT_TRUE(flags[17]) << out::method_name(GetParam());
}

TEST_P(DetectAllMethods, HandlesConstantInput) {
  std::vector<double> v(50, 2.0);
  const auto flags = out::detect(v, GetParam());
  EXPECT_EQ(count_true(flags), 0u) << out::method_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Methods, DetectAllMethods,
                         ::testing::Values(out::Method::kZScore,
                                           out::Method::kDbscan,
                                           out::Method::kIsolationForest,
                                           out::Method::kLocalOutlierFactor));
