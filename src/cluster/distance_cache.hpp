// Shared pairwise-distance cache for the analysis engine.
// score_silhouettes scores every k >= 2, DBSCAN scans neighborhoods,
// and suggest_eps ranks k-th neighbor distances — all over the same
// O(n^2 * d) pairwise-distance set, which the serial pipeline used to
// recompute from scratch at every consumer. DistanceCache computes it
// once per feature space (optionally fanned out over a ThreadPool) and
// serves every consumer from the same condensed upper-triangular
// buffer.
//
// Exactness: entries are squared_euclidean(row(i), row(j)) values, the
// very expression the uncached code paths evaluate ((a-b)^2 is
// symmetric in IEEE arithmetic), so cached and uncached analyses are
// bit-identical. The fill runs through the SIMD batch kernels, which
// are lane-per-pair bitwise-identical to the scalar reference, so this
// holds at every dispatch tier.
//
// Memory bound: n*(n-1)/2 doubles — ~4 MB for the paper's 1000-interval
// scale, ~400 MB at n = 10^4.5; bytes_required(n) lets callers gate the
// trade (score_silhouettes skips the cache above its budget). All size
// arithmetic is overflow-checked: adversarial n makes build() return an
// empty cache (and log) instead of wrapping into UB, and
// bytes_required saturates to SIZE_MAX so budget gates fail closed.
#pragma once

#include "cluster/checked.hpp"
#include "cluster/matrix.hpp"

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace incprof::util {
class ThreadPool;
}  // namespace incprof::util

namespace incprof::cluster {

/// Immutable condensed matrix of pairwise squared Euclidean distances
/// between the rows of one feature matrix. Thread-safe for concurrent
/// reads after build() returns.
class DistanceCache {
 public:
  /// Empty cache over zero points.
  DistanceCache() = default;

  /// Computes all n*(n-1)/2 pairwise squared distances, fanning the row
  /// blocks out over `pool` when one is given (build is deterministic
  /// either way: every entry is an independent slot). Returns an empty
  /// cache (size() == 0) and logs when the condensed size overflows or
  /// cannot be allocated.
  static DistanceCache build(const Matrix& points,
                             util::ThreadPool* pool = nullptr);

  /// Heap bytes a cache over n rows requires; saturates to SIZE_MAX
  /// when the count overflows, so "fits under budget" gates fail
  /// closed for adversarial n.
  static std::size_t bytes_required(std::size_t n) noexcept {
    const auto pairs = checked_pair_count(n);
    if (!pairs) return std::numeric_limits<std::size_t>::max();
    const auto bytes = checked_mul(*pairs, sizeof(double));
    return bytes ? *bytes : std::numeric_limits<std::size_t>::max();
  }

  /// Number of rows the cache was built over.
  std::size_t size() const noexcept { return n_; }

  /// Squared Euclidean distance between rows i and j. Preconditions:
  /// i, j < size().
  double dist2(std::size_t i, std::size_t j) const noexcept {
    if (i == j) return 0.0;
    if (i > j) std::swap(i, j);
    return d2_[i * (2 * n_ - i - 1) / 2 + (j - i - 1)];
  }

  /// Euclidean distance (sqrt of dist2 — exactly what euclidean()
  /// computes, so cached consumers match uncached ones bitwise).
  double dist(std::size_t i, std::size_t j) const noexcept {
    return std::sqrt(dist2(i, j));
  }

 private:
  std::size_t n_ = 0;
  /// Condensed upper triangle, row-major: entry (i, j) for i < j lives
  /// at i*(2n-i-1)/2 + (j-i-1).
  std::vector<double> d2_;
};

}  // namespace incprof::cluster
