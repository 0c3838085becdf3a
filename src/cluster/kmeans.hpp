// Lloyd's k-means with k-means++ seeding. This is the clustering step of
// the IncProf pipeline (paper, Section V-A): each profiling interval is a
// point, each resulting cluster is interpreted as an application phase.
// The Lloyd loop keeps Hamerly's per-point distance bounds so a point
// that provably keeps its cluster skips its distance scan; the answer
// is bit-identical to the plain loop (DESIGN §6, rule 5).
#pragma once

#include "cluster/matrix.hpp"

#include <cstdint>
#include <vector>

namespace incprof::util {
class Rng;
class ThreadPool;
}  // namespace incprof::util

namespace incprof::cluster {

/// k-means configuration.
struct KMeansConfig {
  /// Number of clusters; must be >= 1.
  std::size_t k = 1;
  /// Lloyd iteration cap per restart.
  std::size_t max_iters = 100;
  /// Independent k-means++ restarts; the lowest-inertia run wins.
  std::size_t n_init = 8;
  /// Seed for the deterministic PRNG driving the restarts.
  std::uint64_t seed = 42;
  /// Convergence threshold on total centroid movement (squared L2).
  double tol = 1e-10;
};

/// Result of one k-means fit.
struct KMeansResult {
  /// assignments[r] = cluster index of row r, in [0, k).
  std::vector<std::size_t> assignments;
  /// k x d centroid matrix (in the same feature space as the input).
  Matrix centroids;
  /// Within-cluster sum of squared distances (inertia / WCSS).
  double inertia = 0.0;
  /// Lloyd iterations used by the winning restart.
  std::size_t iterations = 0;
  /// Number of clusters actually populated (empty clusters are re-seeded,
  /// so this equals k except in degenerate inputs with < k distinct rows).
  std::size_t populated_clusters = 0;

  /// Number of points assigned to cluster `c`.
  std::size_t cluster_size(std::size_t c) const noexcept;
};

/// Runs k-means on `points` (rows = observations). Throws
/// std::invalid_argument if points is empty or config.k == 0.
/// k larger than the number of rows is clamped to the row count.
/// A ThreadPool runs the restarts concurrently; results are
/// bit-identical to the serial path (RNG streams are split serially in
/// restart order, the winner is picked by strict `<` in that order).
KMeansResult kmeans(const Matrix& points, const KMeansConfig& config,
                    util::ThreadPool* pool = nullptr);

/// One restart: k-means++ seeding plus Lloyd iteration driven by the
/// caller's RNG stream. This is the unit the parallel k-sweep fans out —
/// derive one Rng per restart serially (rng.split() in restart order),
/// then each grid cell runs independently. `populated_clusters` is left
/// at 0; multi-restart wrappers fill it for the winning run.
KMeansResult kmeans_run(const Matrix& points, const KMeansConfig& config,
                        util::Rng& rng);

}  // namespace incprof::cluster
