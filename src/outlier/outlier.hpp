#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ftio::outlier {

/// Outlier-detection methods supported by FTIO (Sec. II-B2: "Aside from the
/// Z-score, FTIO supports other outlier detection methods, including
/// DBSCAN, isolation forest, local outlier factor, and the find peaks
/// algorithm").
enum class Method {
  kZScore,
  kDbscan,
  kIsolationForest,
  kLocalOutlierFactor,
};

/// Human-readable method name (for bench output).
const char* method_name(Method method);

// ---------------------------------------------------------------------------
// Z-score
// ---------------------------------------------------------------------------

/// Flags values whose Z-score (Eq. (2)) exceeds `threshold` (paper default
/// 3). The default is one-sided (z > threshold): the Eq. (2) use case
/// flags anomalously *high* spectral powers, and low-side bins are never
/// outliers of interest there. Pass two_sided = true to flag |z| >
/// threshold instead — required for mixed-sign data (residuals, deltas)
/// where anomalously *low* values matter too; the one-sided default
/// silently ignores them.
std::vector<bool> zscore_outliers(std::span<const double> values,
                                  double threshold = 3.0,
                                  bool two_sided = false);

// ---------------------------------------------------------------------------
// DBSCAN
// ---------------------------------------------------------------------------

/// Cluster label for each input point; -1 marks noise. 1-D DBSCAN over
/// scalar values, O(n log n) via sorting. Used both as an alternative
/// spectrum outlier detector and for merging online predictions
/// (Sec. II-D, eps = time-window difference).
std::vector<int> dbscan_1d(std::span<const double> values, double eps,
                           std::size_t min_points);

/// Treats DBSCAN noise points with above-mean value as outliers; this
/// matches using a density clustering decision function to isolate the
/// high-power spectral bins.
std::vector<bool> dbscan_outliers(std::span<const double> values, double eps,
                                  std::size_t min_points);

// ---------------------------------------------------------------------------
// Isolation forest
// ---------------------------------------------------------------------------

struct IsolationForestOptions {
  std::size_t tree_count = 100;     ///< number of random trees
  std::size_t subsample_size = 64;  ///< points per tree (capped at n)
  double score_threshold = 0.6;     ///< anomaly score above which a point is an outlier
  std::uint64_t seed = 42;          ///< RNG seed for reproducible forests
  /// Worker threads for the tree loop (0 = hardware concurrency). Each
  /// tree runs its own seed-derived RNG stream and partial path sums are
  /// reduced in a fixed chunk order, so scores are bit-identical for
  /// every setting. Defaults to serial: the engine batch path already
  /// fans traces across cores, and nesting thread pools oversubscribes.
  unsigned threads = 1;
};

/// Per-point anomaly scores in [0, 1] (higher = more anomalous), using the
/// standard iForest score s = 2^(-E[path length] / c(n)).
std::vector<double> isolation_forest_scores(std::span<const double> values,
                                            const IsolationForestOptions& options = {});

/// Flags points whose anomaly score exceeds options.score_threshold.
std::vector<bool> isolation_forest_outliers(std::span<const double> values,
                                            const IsolationForestOptions& options = {});

// ---------------------------------------------------------------------------
// Local outlier factor
// ---------------------------------------------------------------------------

struct LofOptions {
  std::size_t neighbors = 20;    ///< k for the k-distance neighbourhood
  double factor_threshold = 1.5; ///< LOF above which a point is an outlier
};

/// Local outlier factor per point (1-D, k-NN via sorted order). Values
/// near 1 are inliers; substantially larger values are outliers.
std::vector<double> local_outlier_factors(std::span<const double> values,
                                          const LofOptions& options = {});

/// Flags points with LOF > options.factor_threshold.
std::vector<bool> lof_outliers(std::span<const double> values,
                               const LofOptions& options = {});

// ---------------------------------------------------------------------------
// Unified entry point
// ---------------------------------------------------------------------------

/// Parameters for `detect`; only the fields of the chosen method are read.
struct DetectOptions {
  double zscore_threshold = 3.0;
  bool zscore_two_sided = false;    ///< flag |z| > t instead of z > t
  double dbscan_eps = 0.0;          ///< 0 = derive from data spacing
  std::size_t dbscan_min_points = 3;
  IsolationForestOptions forest;
  LofOptions lof;
};

/// Runs the chosen detector over `values` and returns the outlier flags.
/// For DBSCAN with eps = 0, eps is derived as 3x the median spacing of the
/// sorted values (the paper notes the frequency step can be used).
std::vector<bool> detect(std::span<const double> values, Method method,
                         const DetectOptions& options = {});

}  // namespace ftio::outlier
