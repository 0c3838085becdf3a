// Reference implementation of one k-means restart, kept as the test
// oracle for cluster/kmeans.cpp: k-means++ seeding plus the plain Lloyd
// loop that scans every centroid for every row on every pass. The
// bounded loop in production must reproduce it bit for bit:
// assignments, centroids, inertia and iteration count (DESIGN §6).
// Both use the active tier's batched kernel, so a test that sets the
// tier compares the two at that tier.
#pragma once

#include "cluster/distance.hpp"
#include "cluster/kmeans.hpp"
#include "cluster/simd/simd.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace incprof::cluster::oracle {

/// k-means++ seeding: first centroid uniform, each next centroid chosen
/// with probability proportional to squared distance from nearest chosen.
inline Matrix seed_centroids(const Matrix& pts, std::size_t k,
                             util::Rng& rng) {
  const std::size_t n = pts.rows();
  const std::size_t d = pts.cols();
  Matrix centroids(k, d);
  std::vector<double> dist2(n, std::numeric_limits<double>::max());
  const std::size_t first = static_cast<std::size_t>(rng.next_below(n));
  for (std::size_t c = 0; c < d; ++c) centroids.at(0, c) = pts.at(first, c);

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
      chosen = static_cast<std::size_t>(rng.next_below(n));
    } else {
      double target = rng.next_double() * total;
      for (std::size_t r = 0; r < n; ++r) {
        target -= dist2[r];
        chosen = r;
        if (target <= 0.0) break;
      }
    }
    for (std::size_t c = 0; c < d; ++c) centroids.at(ci, c) = pts.at(chosen, c);
  }
  return centroids;
}

/// One full assignment pass: every row against every centroid, one
/// kernel call per centroid over the whole matrix, then a strict-<
/// argmin per row in centroid order from a max() sentinel. Returns the
/// inertia, summed in row order.
inline double assignment_pass(const Matrix& pts, const Matrix& centroids,
                              std::vector<std::size_t>& assignments,
                              std::vector<double>& best) {
  const std::size_t n = pts.rows();
  std::vector<const double*> rows(n);
  for (std::size_t r = 0; r < n; ++r) rows[r] = pts.row_ptr(r);
  std::vector<double> cur(n);
  std::fill(best.begin(), best.end(), std::numeric_limits<double>::max());
  std::fill(assignments.begin(), assignments.end(), 0);
  const simd::BatchKernels& kern = simd::kernels();
  for (std::size_t c = 0; c < centroids.rows(); ++c) {
    kern.squared_euclidean(centroids.row_ptr(c), rows.data(), n, pts.cols(),
                           cur.data());
    for (std::size_t r = 0; r < n; ++r) {
      if (cur[r] < best[r]) {
        best[r] = cur[r];
        assignments[r] = c;
      }
    }
  }
  double inertia = 0.0;
  for (std::size_t r = 0; r < n; ++r) inertia += best[r];
  return inertia;
}

/// The plain Lloyd loop, then a final assignment pass against the last
/// centroids.
inline KMeansResult lloyd(const Matrix& pts, Matrix centroids,
                          const KMeansConfig& cfg, util::Rng& rng) {
  const std::size_t n = pts.rows();
  const std::size_t d = pts.cols();
  const std::size_t k = centroids.rows();
  KMeansResult run;
  run.assignments.assign(n, 0);
  std::vector<double> best(n, 0.0);
  std::vector<std::size_t> counts(k, 0);
  for (std::size_t iter = 0; iter < cfg.max_iters; ++iter) {
    run.iterations = iter + 1;
    assignment_pass(pts, centroids, run.assignments, best);
    Matrix next(k, d);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t c = run.assignments[r];
      ++counts[c];
      for (std::size_t j = 0; j < d; ++j) next.at(c, j) += pts.at(r, j);
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        const std::size_t r = static_cast<std::size_t>(rng.next_below(n));
        for (std::size_t j = 0; j < d; ++j) next.at(c, j) = pts.at(r, j);
        continue;
      }
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (std::size_t j = 0; j < d; ++j) next.at(c, j) *= inv;
    }
    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      movement += squared_euclidean(centroids.row(c), next.row(c));
    }
    centroids = std::move(next);
    if (movement <= cfg.tol) break;
  }
  run.inertia = assignment_pass(pts, centroids, run.assignments, best);
  run.centroids = std::move(centroids);
  return run;
}

/// One restart, as cluster::kmeans_run: seeding plus Lloyd on `rng`.
inline KMeansResult kmeans_run(const Matrix& points, const KMeansConfig& cfg,
                               util::Rng& rng) {
  if (points.rows() == 0 || points.cols() == 0 || cfg.k == 0) {
    throw std::invalid_argument("oracle::kmeans_run: empty input or k = 0");
  }
  const std::size_t k = std::min(cfg.k, points.rows());
  Matrix seeds = seed_centroids(points, k, rng);
  return lloyd(points, std::move(seeds), cfg, rng);
}

/// Bitwise equality of two results: assignments, iteration count, and
/// the raw bits of the inertia and of every centroid coordinate.
inline void expect_bit_identical(const KMeansResult& got,
                                 const KMeansResult& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(got.assignments, want.assignments);
  EXPECT_EQ(bits(got.inertia), bits(want.inertia));
  EXPECT_EQ(got.iterations, want.iterations);
  ASSERT_EQ(got.centroids.rows(), want.centroids.rows());
  ASSERT_EQ(got.centroids.cols(), want.centroids.cols());
  for (std::size_t r = 0; r < got.centroids.rows(); ++r) {
    for (std::size_t c = 0; c < got.centroids.cols(); ++c) {
      ASSERT_EQ(bits(got.centroids.at(r, c)), bits(want.centroids.at(r, c)))
          << "centroid " << r << " column " << c;
    }
  }
}

}  // namespace incprof::cluster::oracle
