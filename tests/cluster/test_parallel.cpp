// Determinism contract of the parallel analysis engine: every parallel
// code path (distance-cache build, Lloyd assignment, the k x restart
// sweep grid, silhouette scoring) must reproduce the serial engine
// bit-for-bit given the same seed — parallelism buys wall time only.
#include "cluster/distance.hpp"
#include "cluster/distance_cache.hpp"
#include "cluster/kmeans.hpp"
#include "cluster/kselect.hpp"
#include "cluster/quality.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

namespace incprof::cluster {
namespace {

Matrix gaussian_blobs(std::size_t centers, std::size_t per, double sep,
                      std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(centers * per, 3);
  for (std::size_t c = 0; c < centers; ++c) {
    for (std::size_t i = 0; i < per; ++i) {
      const std::size_t r = c * per + i;
      for (std::size_t j = 0; j < 3; ++j) {
        m.at(r, j) = sep * static_cast<double>(c) + rng.next_gaussian();
      }
    }
  }
  return m;
}

void expect_results_identical(const KMeansResult& a, const KMeansResult& b) {
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.inertia, b.inertia);  // bitwise, not approximate
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.centroids.rows(), b.centroids.rows());
  ASSERT_EQ(a.centroids.cols(), b.centroids.cols());
  for (std::size_t r = 0; r < a.centroids.rows(); ++r) {
    for (std::size_t c = 0; c < a.centroids.cols(); ++c) {
      EXPECT_EQ(a.centroids.at(r, c), b.centroids.at(r, c));
    }
  }
}

void expect_sweeps_identical(const KSweep& a, const KSweep& b) {
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].k, b.entries[i].k);
    EXPECT_EQ(a.entries[i].silhouette, b.entries[i].silhouette);
    EXPECT_EQ(a.entries[i].result.populated_clusters,
              b.entries[i].result.populated_clusters);
    expect_results_identical(a.entries[i].result, b.entries[i].result);
  }
}

TEST(DistanceCache, MatchesDirectComputationBitwise) {
  const Matrix m = gaussian_blobs(3, 20, 10.0, 21);
  const auto cache = DistanceCache::build(m);
  EXPECT_EQ(cache.size(), m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    EXPECT_EQ(cache.dist2(i, i), 0.0);
    for (std::size_t j = 0; j < m.rows(); ++j) {
      EXPECT_EQ(cache.dist2(i, j), squared_euclidean(m.row(i), m.row(j)));
      EXPECT_EQ(cache.dist(i, j), euclidean(m.row(i), m.row(j)));
      EXPECT_EQ(cache.dist2(i, j), cache.dist2(j, i));
    }
  }
}

TEST(DistanceCache, ParallelBuildIdenticalToSerial) {
  const Matrix m = gaussian_blobs(4, 30, 8.0, 22);
  util::ThreadPool pool(3);
  const auto serial = DistanceCache::build(m);
  const auto parallel = DistanceCache::build(m, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = i + 1; j < m.rows(); ++j) {
      EXPECT_EQ(serial.dist2(i, j), parallel.dist2(i, j));
    }
  }
}

TEST(DistanceCache, BytesRequired) {
  EXPECT_EQ(DistanceCache::bytes_required(0), 0u);
  EXPECT_EQ(DistanceCache::bytes_required(1), 0u);
  EXPECT_EQ(DistanceCache::bytes_required(2), sizeof(double));
  EXPECT_EQ(DistanceCache::bytes_required(100), 4950 * sizeof(double));
}

TEST(ParallelKMeans, LloydAssignmentBitIdenticalToSerial) {
  // Large enough that the pooled path actually splits the assignment
  // step into blocks (n >= 512).
  const Matrix m = gaussian_blobs(4, 200, 12.0, 23);
  KMeansConfig cfg;
  cfg.k = 4;
  cfg.seed = 99;
  util::ThreadPool pool(3);
  const KMeansResult serial = kmeans(m, cfg);
  const KMeansResult parallel = kmeans(m, cfg, &pool);
  expect_results_identical(serial, parallel);
  EXPECT_EQ(serial.populated_clusters, parallel.populated_clusters);
}

TEST(ParallelSweep, GoldenParityWithSerialSweep) {
  // The tentpole guarantee: the fanned-out (k, restart) grid plus
  // cached, pooled silhouettes returns the exact sweep the serial loop
  // produces, for every entry and every seed tested.
  const Matrix m = gaussian_blobs(3, 40, 15.0, 24);
  for (const std::uint64_t seed : {1ull, 42ull, 12345ull}) {
    KMeansConfig base;
    base.seed = seed;
    KSweep serial = sweep_k(m, 8, base);
    score_silhouettes(serial, m, nullptr);
    auto pool = util::ThreadPool::create(4);
    ASSERT_NE(pool, nullptr);
    KSweep parallel = sweep_k(m, 8, base, pool.get());
    score_silhouettes(parallel, m, pool.get());
    expect_sweeps_identical(serial, parallel);
    // And the selections driven by it.
    EXPECT_EQ(select_elbow(serial), select_elbow(parallel));
    EXPECT_EQ(select_silhouette(serial), select_silhouette(parallel));
  }
}

TEST(ParallelSweep, ScoringWithOrWithoutCacheOrPoolIsBitwiseEqual) {
  const Matrix m = gaussian_blobs(2, 25, 20.0, 25);
  util::ThreadPool pool(2);
  const auto cache = DistanceCache::build(m);
  const KSweep fitted = sweep_k(m, 6, {});
  ASSERT_FALSE(fitted.silhouettes_scored);
  // score_silhouettes' own cache, serial.
  KSweep own_cache = fitted;
  score_silhouettes(own_cache, m, nullptr);
  // A caller's cache, pooled.
  KSweep given_cache = fitted;
  score_silhouettes(given_cache, m, &pool, &cache);
  // A non-null cache handed to sweep_k scores through it.
  const KSweep swept_with_cache = sweep_k(m, 6, {}, &pool, &cache);
  ASSERT_TRUE(swept_with_cache.silhouettes_scored);
  expect_sweeps_identical(own_cache, given_cache);
  expect_sweeps_identical(own_cache, swept_with_cache);
  // No cache at all: the direct per-point distance rows.
  for (const KSweepEntry& e : own_cache.entries) {
    if (e.k < 2) continue;
    EXPECT_EQ(e.silhouette, mean_silhouette(m, e.result.assignments));
    EXPECT_EQ(e.silhouette,
              mean_silhouette(m, e.result.assignments, nullptr, &pool));
  }
}

TEST(ParallelSweep, HandlesFewerRowsThanKMax) {
  Matrix m(3, 1, {0.0, 5.0, 10.0});
  util::ThreadPool pool(2);
  const KSweep serial = sweep_k(m, 8, {});
  const KSweep parallel = sweep_k(m, 8, {}, &pool);
  EXPECT_EQ(parallel.entries.size(), 3u);
  expect_sweeps_identical(serial, parallel);
}

TEST(ParallelSweep, EmptyMatrixYieldsEmptySweep) {
  Matrix m(0, 0);
  util::ThreadPool pool(2);
  const KSweep sweep = sweep_k(m, 8, {}, &pool);
  EXPECT_TRUE(sweep.entries.empty());
}

TEST(ParallelSilhouette, AllPathsBitIdentical) {
  const Matrix m = gaussian_blobs(3, 30, 10.0, 26);
  KMeansConfig cfg;
  cfg.k = 3;
  const auto fit = kmeans(m, cfg);
  util::ThreadPool pool(3);
  const auto cache = DistanceCache::build(m);
  const double base = mean_silhouette(m, fit.assignments);
  EXPECT_EQ(base, mean_silhouette(m, fit.assignments, &cache));
  EXPECT_EQ(base, mean_silhouette(m, fit.assignments, nullptr, &pool));
  EXPECT_EQ(base, mean_silhouette(m, fit.assignments, &cache, &pool));
}

}  // namespace
}  // namespace incprof::cluster
