// The bounded Lloyd loop against the plain one (kmeans_oracle.hpp), bit
// for bit: assignments, centroid bits, inertia bits and iteration
// counts, restart by restart, at the scalar tier and at the host's
// detected SIMD tier.
#include "kmeans_oracle.hpp"

#include "cluster/kmeans_bounds.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

namespace incprof::cluster {
namespace {

std::vector<simd::Tier> executable_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::detected_tier() != simd::Tier::kScalar) {
    tiers.push_back(simd::detected_tier());
  }
  return tiers;
}

/// Restores the process-global dispatch tier after each test.
class KMeansOracle : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = simd::active_tier(); }
  void TearDown() override { simd::set_active_tier(saved_); }

  /// Runs `restarts` restarts for every k in [1, k_max] through both
  /// loops at every executable tier and compares them bitwise.
  void expect_matches_oracle(const Matrix& m, std::size_t k_max,
                             std::size_t restarts = 4,
                             std::size_t max_iters = 100) {
    for (simd::Tier tier : executable_tiers()) {
      ASSERT_TRUE(simd::set_active_tier(tier));
      for (std::size_t k = 1; k <= k_max; ++k) {
        KMeansConfig cfg;
        cfg.k = k;
        cfg.max_iters = max_iters;
        util::Rng rng(1000 + k);
        for (std::size_t s = 0; s < restarts; ++s) {
          util::Rng mine = rng.split();
          util::Rng theirs = mine;
          const KMeansResult got = kmeans_run(m, cfg, mine);
          const KMeansResult want = oracle::kmeans_run(m, cfg, theirs);
          oracle::expect_bit_identical(got, want);
          if (HasFailure()) {
            ADD_FAILURE() << "tier=" << simd::tier_name(tier) << " k=" << k
                          << " restart=" << s << " n=" << m.rows()
                          << " d=" << m.cols();
            return;
          }
          // Both loops consumed the same draws.
          EXPECT_EQ(mine.next_u64(), theirs.next_u64());
        }
      }
    }
  }

 private:
  simd::Tier saved_ = simd::Tier::kScalar;
};

/// `centers` Gaussian blobs of `per` rows in d dimensions.
Matrix blobs(std::size_t centers, std::size_t per, std::size_t d,
             double spread, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(centers * per, d);
  std::vector<double> center(d);
  for (std::size_t c = 0; c < centers; ++c) {
    for (double& x : center) x = rng.next_gaussian() * spread;
    for (std::size_t i = 0; i < per; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        m.at(c * per + i, j) = center[j] + rng.next_gaussian();
      }
    }
  }
  return m;
}

TEST_F(KMeansOracle, SeededBlobs) {
  struct Case {
    std::size_t centers, per, d, k_max;
    double spread;
  };
  const Case cases[] = {
      {3, 20, 2, 6, 8.0},   {4, 75, 5, 8, 6.0},   {6, 100, 17, 8, 4.0},
      {5, 200, 64, 8, 3.0}, {2, 300, 3, 8, 1.0},  {8, 40, 256, 8, 2.0},
      {1, 513, 4, 5, 0.0},
  };
  std::uint64_t seed = 7;
  for (const Case& c : cases) {
    expect_matches_oracle(blobs(c.centers, c.per, c.d, c.spread, ++seed),
                          c.k_max);
    if (HasFailure()) return;
  }
}

TEST_F(KMeansOracle, IterationCapAndZeroIterations) {
  // Overlapping blobs take many iterations; the cap cuts them short.
  const Matrix m = blobs(6, 60, 8, 1.5, 31);
  for (std::size_t cap : {0u, 1u, 2u, 3u, 7u}) {
    expect_matches_oracle(m, 8, 2, cap);
    if (HasFailure()) return;
  }
}

TEST_F(KMeansOracle, DuplicateRows) {
  const Matrix base = blobs(3, 30, 4, 5.0, 41);
  Matrix m(base.rows() * 3, base.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      m.at(r, j) = base.at(r % base.rows(), j);
    }
  }
  expect_matches_oracle(m, 8);
}

TEST_F(KMeansOracle, EquidistantCentroids) {
  // Integer lattices: many rows sit exactly halfway between two
  // centroids, so the strict-< lowest-index tie-break decides them.
  Matrix line(41, 1);
  for (std::size_t r = 0; r < line.rows(); ++r) {
    line.at(r, 0) = static_cast<double>(r % 9);
  }
  expect_matches_oracle(line, 8, 6);
  Matrix grid(49, 2);
  for (std::size_t r = 0; r < grid.rows(); ++r) {
    grid.at(r, 0) = static_cast<double>(r % 7) - 3.0;
    grid.at(r, 1) = static_cast<double>(r / 7) - 3.0;
  }
  expect_matches_oracle(grid, 8, 6);
  // A symmetric cross: four arms equidistant from the origin.
  Matrix cross(0, 0);
  for (double a : {-2.0, -1.0, 1.0, 2.0}) {
    cross.append_row(std::vector<double>{a, 0.0});
    cross.append_row(std::vector<double>{0.0, a});
  }
  cross.append_row(std::vector<double>{0.0, 0.0});
  expect_matches_oracle(cross, 8, 6);
}

TEST_F(KMeansOracle, AllIdenticalRows) {
  Matrix m(50, 3);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t j = 0; j < m.cols(); ++j) m.at(r, j) = 1.25;
  }
  expect_matches_oracle(m, 8);
}

TEST_F(KMeansOracle, KAboveDistinctRowsReseedsEmptyClusters) {
  // Five distinct rows, each repeated: k > 5 leaves clusters empty, and
  // the update step re-seeds them from the restart's RNG.
  Matrix m(40, 2);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    m.at(r, 0) = static_cast<double>(r % 5) * 3.0;
    m.at(r, 1) = static_cast<double>((r % 5) * (r % 5));
  }
  expect_matches_oracle(m, 8, 8);
}

TEST_F(KMeansOracle, NonFiniteRows) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Matrix m = blobs(3, 20, 3, 6.0, 51);
    m.at(17, 1) = bad;
    expect_matches_oracle(m, 6);
    if (HasFailure()) return;
  }
}

TEST_F(KMeansOracle, HugeAndTinyMagnitudes) {
  // Distances whose squares overflow, and squares that underflow: the
  // bounds must not settle a row the kernel's rounding could move.
  for (double scale : {1e155, 1e-155, 1e-165}) {
    Matrix m = blobs(4, 25, 3, 5.0, 61);
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t j = 0; j < m.cols(); ++j) m.at(r, j) *= scale;
    }
    expect_matches_oracle(m, 6);
    if (HasFailure()) return;
  }
}

TEST_F(KMeansOracle, CollinearRowOnTheMovedBisector) {
  // Five rows on a line at 0, 4, 6, 10 and 14, scaled, shifted and
  // turned into d columns. A restart seeded at 0 and 10 assigns the row
  // at 6 to centroid 1; the update moves centroid 0 straight toward it
  // (to 2) and leaves centroid 1 at 10, so the row lands on the new
  // bisector. In exact arithmetic its upper bound then equals its lower
  // bound and the kernel ties, which strict-< hands to centroid 0. Only
  // the rounding margins stop the bounds from settling it on centroid
  // 1. With m = 0, about one 1,024-column restart in 250 disagrees with
  // the plain loop (the kernel's rounding over many columns outgrows
  // kOutward); with every margin gone, the narrow ones disagree too.
  const double line[] = {0.0, 4.0, 6.0, 10.0, 14.0};
  for (std::size_t d : {1u, 2u, 17u, 1024u}) {
    for (std::uint64_t shape = 0; shape < 150; ++shape) {
      util::Rng rng(shape * 7919 + d);
      const double scale = 0.5 + rng.next_double();
      std::vector<double> origin(d);
      std::vector<double> direction(d);
      for (double& x : origin) x = rng.next_gaussian() * 3.0;
      for (double& x : direction) x = rng.next_gaussian();
      Matrix m(std::size(line), d);
      for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t j = 0; j < d; ++j) {
          m.at(r, j) = origin[j] + line[r] * scale * direction[j];
        }
      }
      expect_matches_oracle(m, 2, 40);
      if (HasFailure()) return;
    }
  }
}

TEST_F(KMeansOracle, DistanceBoundsCoverTheKernelsRounding) {
  // The bounds the skip test rests on, against exact distances. Integer
  // coordinates below 2^26 make every difference exact and every square
  // an integer below 2^54, so the exact squared distance over up to
  // 256 columns is a uint64 sum, and sqrtl gives the distance to
  // 2^-64. Squares above 2^53 and long sums make the kernel round, so
  // a bound without its margin lands below (or above) the exact
  // distance on about half of the pairs.
  constexpr std::size_t kRows = 37;  // every SIMD remainder
  constexpr long double kRef = 0x1p-62L;  // > the reference's error
  util::Rng rng(71);
  for (simd::Tier tier : executable_tiers()) {
    ASSERT_TRUE(simd::set_active_tier(tier));
    for (std::size_t d : {1u, 2u, 3u, 5u, 8u, 17u, 64u, 256u}) {
      const DistanceBounds bounds(d);
      Matrix rows(kRows, d);
      std::vector<double> centroid(d);
      const double span = static_cast<double>(std::int64_t{1} << 26);
      for (double& x : centroid) {
        x = std::floor((rng.next_double() * 2.0 - 1.0) * span);
      }
      for (std::size_t r = 0; r < kRows; ++r) {
        for (std::size_t j = 0; j < d; ++j) {
          rows.at(r, j) = std::floor((rng.next_double() * 2.0 - 1.0) * span);
        }
      }
      std::vector<const double*> ptrs(kRows);
      for (std::size_t r = 0; r < kRows; ++r) ptrs[r] = rows.row_ptr(r);
      std::vector<double> d2(kRows);
      simd::kernels().squared_euclidean(centroid.data(), ptrs.data(), kRows,
                                        d, d2.data());
      for (std::size_t r = 0; r < kRows; ++r) {
        std::uint64_t exact2 = 0;
        for (std::size_t j = 0; j < d; ++j) {
          const auto diff =
              static_cast<std::int64_t>(rows.at(r, j) - centroid[j]);
          exact2 += static_cast<std::uint64_t>(diff * diff);
        }
        const long double exact = std::sqrt(static_cast<long double>(exact2));
        EXPECT_GE(static_cast<long double>(bounds.above(d2[r])),
                  exact * (1.0L - kRef))
            << "tier=" << simd::tier_name(tier) << " d=" << d << " row=" << r;
        EXPECT_LE(static_cast<long double>(bounds.below(d2[r])),
                  exact * (1.0L + kRef))
            << "tier=" << simd::tier_name(tier) << " d=" << d << " row=" << r;
        const double widened = bounds.widen(std::sqrt(d2[r]));
        EXPECT_GE(static_cast<long double>(widened), exact * (1.0L - kRef));
      }
      if (HasFailure()) return;
    }
  }
}

TEST_F(KMeansOracle, DistanceBoundsMarginGrowsWithTheColumns) {
  // m must exceed the kernel's relative error bound, (d + 3)·ε/2 on
  // the square, at every width; past kMaxCols no bound settles a row.
  const double eps = std::numeric_limits<double>::epsilon();
  for (std::size_t d : {1u, 64u, 4096u, 1u << 20}) {
    EXPECT_GE(DistanceBounds::margin(d),
              (static_cast<double>(d) + 3.0) * eps);
  }
  EXPECT_TRUE(std::isinf(DistanceBounds::margin(DistanceBounds::kMaxCols + 1)));
  const DistanceBounds wide(DistanceBounds::kMaxCols + 1);
  EXPECT_FALSE(std::fabs(wide.above(1.0)) < DistanceBounds::kLimit);
}

}  // namespace
}  // namespace incprof::cluster
