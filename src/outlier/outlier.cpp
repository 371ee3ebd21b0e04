#include "outlier/outlier.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ftio::outlier {

const char* method_name(Method method) {
  switch (method) {
    case Method::kZScore: return "z-score";
    case Method::kDbscan: return "dbscan";
    case Method::kIsolationForest: return "isolation-forest";
    case Method::kLocalOutlierFactor: return "lof";
  }
  return "unknown";
}

std::vector<bool> zscore_outliers(std::span<const double> values,
                                  double threshold, bool two_sided) {
  const auto scores = ftio::util::z_scores(values);
  std::vector<bool> flags(values.size(), false);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    flags[i] = two_sided ? std::abs(scores[i]) > threshold
                         : scores[i] > threshold;
  }
  return flags;
}

// ---------------------------------------------------------------------------
// DBSCAN
// ---------------------------------------------------------------------------

std::vector<int> dbscan_1d(std::span<const double> values, double eps,
                           std::size_t min_points) {
  ftio::util::expect(eps >= 0.0, "dbscan_1d: negative eps");
  const std::size_t n = values.size();
  std::vector<int> labels(n, -1);
  if (n == 0) return labels;

  // Sort once; neighbourhoods of scalar data are contiguous ranges.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });

  auto neighbor_range = [&](std::size_t pos) {
    // [lo, hi) positions in `order` within eps of order[pos].
    const double v = values[order[pos]];
    std::size_t lo = pos;
    while (lo > 0 && v - values[order[lo - 1]] <= eps) --lo;
    std::size_t hi = pos + 1;
    while (hi < n && values[order[hi]] - v <= eps) ++hi;
    return std::pair{lo, hi};
  };

  std::vector<bool> visited(n, false);
  int cluster = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (visited[p]) continue;
    visited[p] = true;
    auto [lo, hi] = neighbor_range(p);
    if (hi - lo < min_points) continue;  // noise unless later absorbed
    const int id = cluster++;
    labels[order[p]] = id;
    std::deque<std::size_t> frontier;
    for (std::size_t q = lo; q < hi; ++q) frontier.push_back(q);
    while (!frontier.empty()) {
      const std::size_t q = frontier.front();
      frontier.pop_front();
      if (labels[order[q]] == -1) labels[order[q]] = id;  // border point
      if (visited[q]) continue;
      visited[q] = true;
      labels[order[q]] = id;
      auto [qlo, qhi] = neighbor_range(q);
      if (qhi - qlo >= min_points) {
        for (std::size_t r = qlo; r < qhi; ++r) {
          if (!visited[r] || labels[order[r]] == -1) frontier.push_back(r);
        }
      }
    }
  }
  return labels;
}

std::vector<bool> dbscan_outliers(std::span<const double> values, double eps,
                                  std::size_t min_points) {
  const auto labels = dbscan_1d(values, eps, min_points);
  const double m = ftio::util::mean(values);
  std::vector<bool> flags(values.size(), false);
  for (std::size_t i = 0; i < values.size(); ++i) {
    flags[i] = labels[i] == -1 && values[i] > m;
  }
  return flags;
}

// ---------------------------------------------------------------------------
// Isolation forest
// ---------------------------------------------------------------------------

namespace {

/// Average unsuccessful-search path length in a BST of n nodes, the c(n)
/// normaliser from the iForest paper.
double average_path_length(std::size_t n) {
  if (n <= 1) return 0.0;
  const double nd = static_cast<double>(n);
  const double harmonic = std::log(nd - 1.0) + 0.5772156649015329;
  return 2.0 * harmonic - 2.0 * (nd - 1.0) / nd;
}

/// splitmix64 finaliser: decorrelates the per-tree RNG seeds derived
/// below. Consecutive raw seeds fed straight into mt19937_64 produce
/// correlated early draws; the mix makes tree t's stream independent of
/// tree t+1's.
std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Partitions `points` (a scratch vector, clobbered) with random split
/// values until `query` isolates; returns the path length. Iterative and
/// allocation-free: each level shrinks `points` in place with remove_if
/// instead of copying the surviving side into a fresh vector, so the only
/// storage the whole descent touches is the caller's reusable scratch.
/// The split sequence (one rng.uniform per level) and the surviving sets
/// are identical to the old recursive copy-out implementation, so scores
/// are bit-for-bit unchanged.
double isolation_path(std::vector<double>& points, double query,
                      ftio::util::Rng& rng, std::size_t max_depth) {
  std::size_t depth = 0;
  while (points.size() > 1 && depth < max_depth) {
    const auto [lo_it, hi_it] =
        std::minmax_element(points.begin(), points.end());
    const double lo = *lo_it;
    const double hi = *hi_it;
    if (lo == hi) break;
    const double split = rng.uniform(lo, hi);
    if (query < split) {
      points.erase(std::remove_if(points.begin(), points.end(),
                                  [split](double v) { return v >= split; }),
                   points.end());
    } else {
      points.erase(std::remove_if(points.begin(), points.end(),
                                  [split](double v) { return v < split; }),
                   points.end());
    }
    ++depth;
  }
  return static_cast<double>(depth) + average_path_length(points.size());
}

}  // namespace

std::vector<double> isolation_forest_scores(
    std::span<const double> values, const IsolationForestOptions& options) {
  const std::size_t n = values.size();
  std::vector<double> scores(n, 0.0);
  if (n == 0) return scores;
  const std::size_t sample = std::min(options.subsample_size, n);
  const auto max_depth =
      static_cast<std::size_t>(std::ceil(std::log2(std::max<std::size_t>(sample, 2))));
  const double c = std::max(average_path_length(sample), 1e-12);

  // Trees are independent given per-tree RNG streams (tree t draws from
  // Rng(mix(seed + t)) instead of advancing one shared sequential
  // stream), so the forest fans across worker threads. Path sums
  // accumulate into a FIXED number of chunk partials — each chunk owns a
  // contiguous tree range and sums it in tree order, and the final
  // reduction adds chunks in chunk order — so the floating-point
  // addition order, and therefore every score bit, is independent of how
  // many threads actually ran.
  const std::size_t trees = options.tree_count;
  constexpr std::size_t kMaxChunks = 16;
  const std::size_t chunks = std::min(trees, kMaxChunks);
  std::vector<double> partial(chunks * n, 0.0);
  ftio::util::parallel_for(
      chunks,
      [&](std::size_t chunk) {
        double* acc = partial.data() + chunk * n;
        const std::size_t t_lo = chunk * trees / chunks;
        const std::size_t t_hi = (chunk + 1) * trees / chunks;
        std::vector<double> subsample(sample);
        // One scratch for every (tree, query) descent: assign() reuses
        // its capacity, so past the first query the per-call allocation
        // count is zero (the ROADMAP-named per-call-scratch bug was a
        // fresh vector per recursion level of every tree of every query).
        std::vector<double> scratch;
        scratch.reserve(sample);
        for (std::size_t t = t_lo; t < t_hi; ++t) {
          ftio::util::Rng rng(mix_seed(options.seed + t));
          for (std::size_t i = 0; i < sample; ++i) {
            subsample[i] = values[rng.pick_index(n)];
          }
          for (std::size_t i = 0; i < n; ++i) {
            scratch.assign(subsample.begin(), subsample.end());
            acc[i] += isolation_path(scratch, values[i], rng, max_depth);
          }
        }
      },
      options.threads);
  std::vector<double> mean_path(n, 0.0);
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    const double* acc = partial.data() + chunk * n;
    for (std::size_t i = 0; i < n; ++i) mean_path[i] += acc[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double e = mean_path[i] / static_cast<double>(trees);
    scores[i] = std::pow(2.0, -e / c);
  }
  return scores;
}

std::vector<bool> isolation_forest_outliers(
    std::span<const double> values, const IsolationForestOptions& options) {
  const auto scores = isolation_forest_scores(values, options);
  const double m = ftio::util::mean(values);
  std::vector<bool> flags(values.size(), false);
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Spectrum outliers of interest are anomalously *high* powers.
    flags[i] = scores[i] > options.score_threshold && values[i] > m;
  }
  return flags;
}

// ---------------------------------------------------------------------------
// Local outlier factor
// ---------------------------------------------------------------------------

std::vector<double> local_outlier_factors(std::span<const double> values,
                                          const LofOptions& options) {
  const std::size_t n = values.size();
  std::vector<double> lof(n, 1.0);
  if (n < 2) return lof;
  const std::size_t k = std::min(options.neighbors, n - 1);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  std::vector<std::size_t> rank(n);
  for (std::size_t pos = 0; pos < n; ++pos) rank[order[pos]] = pos;

  // k nearest neighbours of a scalar point lie in a contiguous sorted
  // window. Every point has exactly k of them (k <= n-1), so the
  // neighbour lists live in one flat n*k buffer instead of n separately
  // allocated vectors — the LOF cousin of the isolation-forest
  // per-call-scratch fix.
  std::vector<std::size_t> neighbors(n * k);
  auto knn_of = [&](std::size_t pos) {
    return std::span<const std::size_t>(neighbors.data() + pos * k, k);
  };
  for (std::size_t pos = 0; pos < n; ++pos) {
    std::size_t* nb = neighbors.data() + pos * k;
    std::size_t count = 0;
    std::size_t left = pos;
    std::size_t right = pos + 1;
    const double v = values[order[pos]];
    while (count < k) {
      const bool has_left = left > 0;
      const bool has_right = right < n;
      // k <= n-1, so the window can always grow until count reaches k;
      // enforce that rather than breaking into zero-filled slots the
      // fixed-k maths below would silently misread as point 0.
      ftio::util::expect(has_left || has_right,
                         "local_outlier_factors: neighbour shortfall");
      const double dl = has_left ? v - values[order[left - 1]] : 0.0;
      const double dr = has_right ? values[order[right]] - v : 0.0;
      if (has_left && (!has_right || dl <= dr)) {
        nb[count++] = left - 1;
        --left;
      } else {
        nb[count++] = right;
        ++right;
      }
    }
  }

  std::vector<double> k_distance(n, 0.0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    double dmax = 0.0;
    for (std::size_t nb : knn_of(pos)) {
      dmax = std::max(dmax, std::abs(values[order[pos]] - values[order[nb]]));
    }
    k_distance[pos] = dmax;
  }

  // Local reachability density.
  std::vector<double> lrd(n, 0.0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    double reach_sum = 0.0;
    for (std::size_t nb : knn_of(pos)) {
      const double d = std::abs(values[order[pos]] - values[order[nb]]);
      reach_sum += std::max(k_distance[nb], d);
    }
    lrd[pos] = reach_sum > 0.0
                   ? static_cast<double>(k) / reach_sum
                   : std::numeric_limits<double>::infinity();
  }

  for (std::size_t pos = 0; pos < n; ++pos) {
    if (!std::isfinite(lrd[pos])) {
      lof[order[pos]] = 1.0;
      continue;
    }
    double ratio_sum = 0.0;
    for (std::size_t nb : knn_of(pos)) {
      ratio_sum += std::isfinite(lrd[nb])
                       ? lrd[nb] / lrd[pos]
                       : 1.0;  // neighbour in a dense tie: neutral ratio
    }
    lof[order[pos]] = ratio_sum / static_cast<double>(k);
  }
  return lof;
}

std::vector<bool> lof_outliers(std::span<const double> values,
                               const LofOptions& options) {
  const auto factors = local_outlier_factors(values, options);
  const double m = ftio::util::mean(values);
  std::vector<bool> flags(values.size(), false);
  for (std::size_t i = 0; i < values.size(); ++i) {
    flags[i] = factors[i] > options.factor_threshold && values[i] > m;
  }
  return flags;
}

// ---------------------------------------------------------------------------
// Unified entry point
// ---------------------------------------------------------------------------

std::vector<bool> detect(std::span<const double> values, Method method,
                         const DetectOptions& options) {
  switch (method) {
    case Method::kZScore:
      return zscore_outliers(values, options.zscore_threshold,
                             options.zscore_two_sided);
    case Method::kDbscan: {
      double eps = options.dbscan_eps;
      if (eps <= 0.0 && values.size() >= 2) {
        std::vector<double> sorted(values.begin(), values.end());
        std::sort(sorted.begin(), sorted.end());
        std::vector<double> gaps;
        gaps.reserve(sorted.size() - 1);
        for (std::size_t i = 1; i < sorted.size(); ++i) {
          gaps.push_back(sorted[i] - sorted[i - 1]);
        }
        eps = 3.0 * std::max(ftio::util::median(gaps), 1e-12);
      }
      return dbscan_outliers(values, eps, options.dbscan_min_points);
    }
    case Method::kIsolationForest:
      return isolation_forest_outliers(values, options.forest);
    case Method::kLocalOutlierFactor:
      return lof_outliers(values, options.lof);
  }
  return std::vector<bool>(values.size(), false);
}

}  // namespace ftio::outlier
