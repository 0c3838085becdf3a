#include "cluster/kmeans.hpp"

#include "cluster/distance.hpp"
#include "cluster/kmeans_bounds.hpp"
#include "cluster/simd/simd.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace incprof::cluster {

std::size_t KMeansResult::cluster_size(std::size_t c) const noexcept {
  std::size_t n = 0;
  for (auto a : assignments) {
    if (a == c) ++n;
  }
  return n;
}

DistanceBounds::DistanceBounds(std::size_t cols) noexcept
    : up_(1.0 + margin(cols)), down_(1.0 - margin(cols)) {}

double DistanceBounds::margin(std::size_t cols) noexcept {
  if (cols > kMaxCols) return std::numeric_limits<double>::infinity();
  return 4.0 * (static_cast<double>(cols) + 3.0) *
         std::numeric_limits<double>::epsilon();
}

double DistanceBounds::widen(double x) const noexcept {
  return x * up_ + kSlack;
}

double DistanceBounds::above(double d2) const noexcept {
  return widen(std::sqrt(d2));
}

double DistanceBounds::below(double d2) const noexcept {
  return std::sqrt(d2) * down_ - kSlack;
}

namespace {

/// Rows per batched kernel call of an assignment pass. Any batch gives
/// the same answer (each kernel lane is one independent pair); 256 rows
/// keep a batch's distances in L1.
constexpr std::size_t kAssignBlock = 256;

/// k-means++ seeding: first centroid uniform, each next centroid chosen
/// with probability proportional to squared distance from nearest chosen.
Matrix seed_centroids(const Matrix& pts, std::size_t k, util::Rng& rng) {
  const std::size_t n = pts.rows();
  const std::size_t d = pts.cols();
  Matrix centroids(k, d);

  std::vector<double> dist2(n, std::numeric_limits<double>::max());
  std::size_t first = static_cast<std::size_t>(rng.next_below(n));
  for (std::size_t c = 0; c < d; ++c) centroids.at(0, c) = pts.at(first, c);

  // Batched distance-to-last-centroid scan. The SIMD kernels evaluate
  // squared_euclidean(centroid, point): fl(a-b) == -fl(b-a) exactly, so
  // the squared terms — and the whole reduction — are bitwise-identical
  // to the historical (point, centroid) orientation.
  std::vector<const double*> row_ptrs(n);
  for (std::size_t r = 0; r < n; ++r) row_ptrs[r] = pts.row_ptr(r);
  std::vector<double> d2_scan(n);
  const simd::BatchKernels& kern = simd::kernels();

  for (std::size_t ci = 1; ci < k; ++ci) {
    kern.squared_euclidean(centroids.row_ptr(ci - 1), row_ptrs.data(), n, d,
                           d2_scan.data());
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      dist2[r] = std::min(dist2[r], d2_scan[r]);
      total += dist2[r];
    }
    std::size_t chosen = 0;
    if (total <= 0.0) {
      // All points coincide with chosen centroids; pick uniformly.
      chosen = static_cast<std::size_t>(rng.next_below(n));
    } else {
      double target = rng.next_double() * total;
      for (std::size_t r = 0; r < n; ++r) {
        target -= dist2[r];
        if (target <= 0.0) {
          chosen = r;
          break;
        }
        chosen = r;
      }
    }
    for (std::size_t c = 0; c < d; ++c) {
      centroids.at(ci, c) = pts.at(chosen, c);
    }
  }
  return centroids;
}

struct LloydRun {
  std::vector<std::size_t> assignments;
  Matrix centroids;
  double inertia = 0.0;
  std::size_t iterations = 0;
};

// Hamerly's bounds (SDM 2010) over the Lloyd loop. Every row r keeps
// upper_[r] >= its exact Euclidean distance to its own centroid and
// lower_[r] <= its exact distance to every other centroid; every
// centroid c keeps half_sep_[c] <= half the exact distance to its
// nearest other centroid ("exact" = real arithmetic on the stored
// doubles). A row whose bounds prove that the kernel's strict-<
// lowest-index argmin would return its current centroid again skips
// its scan; every other row is scanned exactly as before. Bounds only
// ever skip a scan, they never pick a winner (DESIGN §6, rule 5).
//
// Rounding: a bound made from a kernel distance comes from
// DistanceBounds; a shifted bound is rounded outward by kOutward; the
// skip test widens the upper bound once more.

constexpr double kNoDistance = std::numeric_limits<double>::max();
constexpr double kOutward = DistanceBounds::kOutward;

/// The bounded Lloyd loop's per-run state: the bounds (16 B a row) and
/// the working arrays of one compacted scan batch.
class Hamerly {
 public:
  Hamerly(std::size_t n, std::size_t k, std::size_t d)
      : bounds_(d),
        upper_(n, std::numeric_limits<double>::infinity()),
        lower_(n, 0.0),
        drift_(k, 0.0),
        half_sep_(k, -std::numeric_limits<double>::infinity()),
        sep2_(k),
        centroid_rows_(k) {}

  /// One assignment pass. Settled rows keep their centroid; the rest go
  /// through compacted batches, in row order. With `dist` (the final
  /// pass) every row's kernel distance to its centroid is filled in and
  /// the inertia, summed in row order, is returned.
  double pass(const Matrix& pts, const Matrix& centroids,
              std::vector<std::size_t>& assign, std::vector<double>* dist) {
    const simd::BatchKernels& kern = simd::kernels();
    for (std::size_t r = 0; r < pts.rows(); ++r) {
      const double* row = pts.row_ptr(r);
      if (settled(r, assign[r])) {
        // Each kernel lane is one independent pair, so a settled row's
        // distance is the term a scan would have given the inertia.
        if (dist != nullptr) {
          kern.squared_euclidean(centroids.row_ptr(assign[r]), &row, 1,
                                 pts.cols(), &(*dist)[r]);
        }
        continue;
      }
      batch_idx_[batch_] = r;
      batch_rows_[batch_] = row;
      if (++batch_ == kAssignBlock) scan(centroids, assign, dist);
    }
    scan(centroids, assign, dist);
    if (dist == nullptr) return 0.0;
    double inertia = 0.0;
    for (double v : *dist) inertia += v;
    return inertia;
  }

  /// Shifts every bound by how far each centroid moved (`moved2[c]`,
  /// the squared movement) and recomputes the centroid separations.
  void centroids_moved(const Matrix& centroids,
                       const std::vector<std::size_t>& assign,
                       const std::vector<double>& moved2) {
    const std::size_t k = centroids.rows();
    std::size_t far = 0;
    double max1 = 0.0;
    double max2 = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      double p = bounds_.above(moved2[c]);
      if (std::isnan(p)) p = std::numeric_limits<double>::infinity();
      drift_[c] = p;
      if (p > max1) {
        max2 = max1;
        max1 = p;
        far = c;
      } else if (p > max2) {
        max2 = p;
      }
    }
    for (std::size_t r = 0; r < upper_.size(); ++r) {
      const std::size_t a = assign[r];
      upper_[r] = (upper_[r] + drift_[a]) * (1.0 + kOutward);
      const double shift = a == far ? max2 : max1;
      lower_[r] = (lower_[r] - shift) * (1.0 - kOutward);
    }

    const simd::BatchKernels& kern = simd::kernels();
    for (std::size_t c = 0; c < k; ++c) {
      centroid_rows_[c] = centroids.row_ptr(c);
    }
    for (std::size_t c = 0; c < k; ++c) {
      kern.squared_euclidean(centroid_rows_[c], centroid_rows_.data(), k,
                             centroids.cols(), sep2_.data());
      double nearest = std::numeric_limits<double>::infinity();
      bool known = true;
      for (std::size_t j = 0; j < k; ++j) {
        if (j == c) continue;
        const double lo = bounds_.below(sep2_[j]);
        known = known && !std::isnan(lo);
        nearest = std::min(nearest, lo);
      }
      // An unknown separation proves nothing: NaN never settles a row.
      half_sep_[c] = known ? 0.5 * nearest
                           : std::numeric_limits<double>::quiet_NaN();
    }
  }

 private:
  /// True when row r's bounds prove that centroid a stays its strict
  /// lowest-index nearest. NaN or ±Inf in any bound never settles.
  bool settled(std::size_t r, std::size_t a) const noexcept {
    constexpr double kLimit = DistanceBounds::kLimit;
    const double hi = bounds_.widen(upper_[r]);
    const double lo = lower_[r];
    const double sep = half_sep_[a];
    return std::fabs(hi) < kLimit && std::fabs(lo) < kLimit &&
           std::fabs(sep) < kLimit && (hi < lo || hi < sep);
  }

  /// Nearest-centroid search for the pending batch: one SIMD kernel call
  /// per centroid over the whole batch, then a strict-< argmin per row
  /// in centroid order — the exact comparison sequence (including the
  /// max() sentinel start) of the historical per-row scalar loop, so
  /// winners and distances are bitwise-identical. The runner-up
  /// distance becomes the row's lower bound.
  void scan(const Matrix& centroids, std::vector<std::size_t>& assign,
            std::vector<double>* dist) {
    const std::size_t cnt = batch_;
    if (cnt == 0) return;
    batch_ = 0;
    const simd::BatchKernels& kern = simd::kernels();
    for (std::size_t i = 0; i < cnt; ++i) {
      best_[i] = kNoDistance;
      second_[i] = kNoDistance;
      besti_[i] = 0;
    }
    for (std::size_t c = 0; c < centroids.rows(); ++c) {
      kern.squared_euclidean(centroids.row_ptr(c), batch_rows_, cnt,
                             centroids.cols(), cur_);
      for (std::size_t i = 0; i < cnt; ++i) {
        if (cur_[i] < best_[i]) {
          second_[i] = best_[i];
          best_[i] = cur_[i];
          besti_[i] = c;
        } else if (cur_[i] < second_[i]) {
          second_[i] = cur_[i];
        }
      }
    }
    for (std::size_t i = 0; i < cnt; ++i) {
      const std::size_t r = batch_idx_[i];
      assign[r] = besti_[i];
      upper_[r] = bounds_.above(best_[i]);
      lower_[r] = bounds_.below(second_[i]);
      if (dist != nullptr) (*dist)[r] = best_[i];
    }
  }

  DistanceBounds bounds_;
  std::vector<double> upper_;
  std::vector<double> lower_;
  std::vector<double> drift_;
  std::vector<double> half_sep_;
  std::vector<double> sep2_;
  std::vector<const double*> centroid_rows_;

  std::size_t batch_ = 0;
  std::size_t batch_idx_[kAssignBlock];
  const double* batch_rows_[kAssignBlock];
  double cur_[kAssignBlock];
  double best_[kAssignBlock];
  double second_[kAssignBlock];
  std::size_t besti_[kAssignBlock];
};

LloydRun lloyd(const Matrix& pts, Matrix centroids, const KMeansConfig& cfg,
               util::Rng& rng) {
  const std::size_t n = pts.rows();
  const std::size_t d = pts.cols();
  const std::size_t k = centroids.rows();

  LloydRun run;
  run.assignments.assign(n, 0);
  Hamerly bounds(n, k, d);
  Matrix next(k, d);
  std::vector<std::size_t> counts(k, 0);
  std::vector<double> moved2(k, 0.0);

  for (std::size_t iter = 0; iter < cfg.max_iters; ++iter) {
    run.iterations = iter + 1;

    // Assignment step.
    bounds.pass(pts, centroids, run.assignments, nullptr);

    // Update step, summed in row order into the reused `next`.
    for (std::size_t c = 0; c < k; ++c) {
      const auto row = next.row(c);
      std::fill(row.begin(), row.end(), 0.0);
    }
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t c = run.assignments[r];
      ++counts[c];
      for (std::size_t j = 0; j < d; ++j) next.at(c, j) += pts.at(r, j);
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point so k stays honest.
        const std::size_t r = static_cast<std::size_t>(rng.next_below(n));
        for (std::size_t j = 0; j < d; ++j) next.at(c, j) = pts.at(r, j);
        continue;
      }
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (std::size_t j = 0; j < d; ++j) next.at(c, j) *= inv;
    }

    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      moved2[c] = squared_euclidean(centroids.row(c), next.row(c));
      movement += moved2[c];
    }
    std::swap(centroids, next);
    bounds.centroids_moved(centroids, run.assignments, moved2);
    if (movement <= cfg.tol) break;
  }

  // Final assignment against the last centroids so assignments and
  // centroids are mutually consistent.
  std::vector<double> dist(n, 0.0);
  run.inertia = bounds.pass(pts, centroids, run.assignments, &dist);
  run.centroids = std::move(centroids);
  return run;
}

}  // namespace

KMeansResult kmeans_run(const Matrix& points, const KMeansConfig& config,
                        util::Rng& rng) {
  if (points.rows() == 0 || points.cols() == 0) {
    throw std::invalid_argument("kmeans: empty input matrix");
  }
  if (config.k == 0) {
    throw std::invalid_argument("kmeans: k must be >= 1");
  }
  const std::size_t k = std::min(config.k, points.rows());
  Matrix seeds = seed_centroids(points, k, rng);
  LloydRun run = lloyd(points, std::move(seeds), config, rng);
  KMeansResult result;
  result.assignments = std::move(run.assignments);
  result.centroids = std::move(run.centroids);
  result.inertia = run.inertia;
  result.iterations = run.iterations;
  return result;
}

KMeansResult kmeans(const Matrix& points, const KMeansConfig& config,
                    util::ThreadPool* pool) {
  if (points.rows() == 0 || points.cols() == 0) {
    throw std::invalid_argument("kmeans: empty input matrix");
  }
  if (config.k == 0) {
    throw std::invalid_argument("kmeans: k must be >= 1");
  }
  const std::size_t k = std::min(config.k, points.rows());

  // One RNG stream per restart, split serially in restart order before
  // anything fans out (as sweep_k does for its grid).
  const std::size_t restarts = std::max<std::size_t>(1, config.n_init);
  util::Rng rng(config.seed);
  std::vector<util::Rng> rngs;
  rngs.reserve(restarts);
  for (std::size_t s = 0; s < restarts; ++s) rngs.push_back(rng.split());

  std::vector<KMeansResult> runs(restarts);
  auto run_restart = [&](std::size_t s) {
    util::Rng run_rng = rngs[s];
    runs[s] = kmeans_run(points, config, run_rng);
  };
  if (pool != nullptr) {
    pool->parallel_for(restarts, run_restart);
  } else {
    for (std::size_t s = 0; s < restarts; ++s) run_restart(s);
  }

  // The lowest inertia wins by strict `<` in restart order.
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::max();
  for (KMeansResult& run : runs) {
    if (run.inertia < best.inertia) best = std::move(run);
  }

  std::vector<bool> seen(k, false);
  for (auto a : best.assignments) seen[a] = true;
  best.populated_clusters =
      static_cast<std::size_t>(std::count(seen.begin(), seen.end(), true));
  return best;
}

}  // namespace incprof::cluster
