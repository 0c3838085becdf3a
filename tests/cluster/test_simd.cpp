// The SIMD determinism contract, tested exhaustively: every dispatch
// tier must reproduce the scalar reference bitwise for every kernel,
// every vector width 0..67 (all tail lengths of every lane count), and
// hostile inputs (NaN, Inf, denormals, signed zeros). Plus the
// dispatch-layer plumbing (detection, forcing, parsing) and the
// overflow bugfixes in Matrix / DistanceCache.
#include "cluster/simd/simd.hpp"

#include "cluster/distance.hpp"
#include "cluster/distance_cache.hpp"
#include "cluster/matrix.hpp"
#include "cluster/simd/kernels_ref.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace incprof::cluster {
namespace {

/// Restores the process-global dispatch tier after each test so a
/// forced tier cannot leak into unrelated tests.
class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = simd::active_tier(); }
  void TearDown() override { simd::set_active_tier(saved_); }

 private:
  simd::Tier saved_ = simd::Tier::kScalar;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Deterministic vector of width d with hostile values sprinkled in:
/// every 7th entry is a special (NaN, ±Inf, denormal, -0.0, huge).
///
/// The NaN special is the NEGATIVE quiet NaN (0xFFF8...), the same bit
/// pattern x86 produces for op-generated indefinites (Inf - Inf). With
/// a single NaN payload in play, both-NaN adds — whose result is the
/// first operand's payload, and whose operand order the compiler may
/// legally commute per TU — are order-insensitive, so bitwise parity
/// is well-defined. Mixing payloads (e.g. +quiet_NaN inputs meeting
/// Inf-Inf indefinites in one sum) makes even two scalar builds of the
/// same loop disagree; no dispatch contract can promise that.
std::vector<double> hostile_vector(util::Rng& rng, std::size_t d) {
  static const double kSpecials[] = {
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      -0.0,
      1e300,
      -1e300,
  };
  std::vector<double> v(d);
  for (std::size_t i = 0; i < d; ++i) {
    if (i % 7 == 3) {
      v[i] = kSpecials[rng.next_below(8)];
    } else {
      v[i] = rng.next_gaussian() * 1e3;
    }
  }
  return v;
}

/// All tiers this host can actually execute.
std::vector<simd::Tier> executable_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::detected_tier() != simd::Tier::kScalar) {
    tiers.push_back(simd::detected_tier());
  }
  return tiers;
}

TEST_F(SimdTest, AllKernelsBitwiseMatchReferenceAtEveryWidthAndCount) {
  util::Rng rng(2024);
  for (std::size_t d = 0; d <= 67; ++d) {
    // Counts cover every lane-count tail: below, at, and beyond the
    // widest batch group (8 pairs on AVX2).
    for (std::size_t count : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 17u}) {
      const std::vector<double> a = hostile_vector(rng, d);
      std::vector<std::vector<double>> rows(count);
      std::vector<const double*> ptrs(count);
      for (std::size_t t = 0; t < count; ++t) {
        rows[t] = hostile_vector(rng, d);
        ptrs[t] = rows[t].data();
      }

      std::vector<double> want_sq(count);
      for (std::size_t t = 0; t < count; ++t) {
        want_sq[t] = simd::ref::squared_euclidean(a.data(), ptrs[t], d);
      }

      for (simd::Tier tier : executable_tiers()) {
        const simd::BatchKernels& k = simd::kernels(tier);
        std::vector<double> got(count);
        k.squared_euclidean(a.data(), ptrs.data(), count, d, got.data());
        for (std::size_t t = 0; t < count; ++t) {
          ASSERT_EQ(bits(want_sq[t]), bits(got[t]))
              << "squared_euclidean tier=" << simd::tier_name(tier)
              << " d=" << d << " count=" << count << " lane=" << t;
        }
      }
    }
  }
}

TEST_F(SimdTest, PublicKernelsMatchReferenceLoops) {
  util::Rng rng(5);
  const std::vector<double> a = hostile_vector(rng, 37);
  const std::vector<double> b = hostile_vector(rng, 37);
  EXPECT_EQ(bits(squared_euclidean(a, b)),
            bits(simd::ref::squared_euclidean(a.data(), b.data(), 37)));
}

TEST_F(SimdTest, DistanceCacheIdenticalAtEveryTier) {
  util::Rng rng(99);
  Matrix pts(53, 19);
  for (std::size_t r = 0; r < pts.rows(); ++r) {
    for (std::size_t c = 0; c < pts.cols(); ++c) {
      pts.at(r, c) = rng.next_gaussian();
    }
  }
  ASSERT_TRUE(simd::set_active_tier(simd::Tier::kScalar));
  const DistanceCache scalar_cache = DistanceCache::build(pts);
  ASSERT_TRUE(simd::set_active_tier(simd::detected_tier()));
  const DistanceCache auto_cache = DistanceCache::build(pts);
  ASSERT_EQ(scalar_cache.size(), auto_cache.size());
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    for (std::size_t j = i + 1; j < pts.rows(); ++j) {
      ASSERT_EQ(bits(scalar_cache.dist2(i, j)), bits(auto_cache.dist2(i, j)))
          << "pair (" << i << "," << j << ")";
      // And the cache agrees with the uncached public kernel.
      ASSERT_EQ(bits(auto_cache.dist2(i, j)),
                bits(squared_euclidean(pts.row(i), pts.row(j))));
    }
  }
}

TEST_F(SimdTest, MatrixRowsAre64ByteAligned) {
  for (std::size_t cols : {1u, 3u, 7u, 8u, 9u, 16u, 19u, 64u, 67u}) {
    Matrix m(5, cols);
    EXPECT_EQ(m.stride() % Matrix::kRowAlignDoubles, 0u);
    EXPECT_GE(m.stride(), cols);
    for (std::size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.row_ptr(r)) % 64, 0u)
          << "cols=" << cols << " row=" << r;
    }
  }
}

TEST_F(SimdTest, MatrixPaddingInvisibleToRowsAndAppend) {
  Matrix m;
  m.append_row(std::vector<double>{1.0, 2.0, 3.0});
  m.append_row(std::vector<double>{4.0, 5.0, 6.0});
  ASSERT_EQ(m.rows(), 2u);
  ASSERT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.row(0).size(), 3u);
  EXPECT_EQ(m.at(1, 2), 6.0);
  // Explicit-data constructor round-trips through the padded layout.
  Matrix n(2, 3, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(n.at(r, c), m.at(r, c));
    }
  }
}

TEST_F(SimdTest, MatrixRejectsImpossibleShapes) {
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 8;
  EXPECT_THROW(Matrix(huge, 16), ShapeError);
  EXPECT_THROW(Matrix(16, huge), ShapeError);
  Matrix ok(0, 0);
  EXPECT_TRUE(ok.empty());
}

TEST_F(SimdTest, DistanceCacheRefusesAdversarialRowCounts) {
  // cols == 0 makes a gigantic row count allocatable (zero storage),
  // which is exactly how a hostile client smuggles n*(n-1)/2 past an
  // unchecked multiply.
  const std::size_t n = std::size_t{5'000'000'000};
  Matrix pts(n, 0);
  ASSERT_EQ(pts.rows(), n);
  const DistanceCache cache = DistanceCache::build(pts);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(SimdTest, BytesRequiredSaturatesInsteadOfWrapping) {
  EXPECT_EQ(DistanceCache::bytes_required(0), 0u);
  EXPECT_EQ(DistanceCache::bytes_required(2), sizeof(double));
  EXPECT_EQ(DistanceCache::bytes_required(1000), 499'500 * sizeof(double));
  EXPECT_EQ(DistanceCache::bytes_required(
                std::numeric_limits<std::size_t>::max()),
            std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(DistanceCache::bytes_required(std::size_t{1} << 40),
            std::numeric_limits<std::size_t>::max());
}

TEST_F(SimdTest, CheckedHelpers) {
  EXPECT_EQ(checked_mul(6, 7), std::optional<std::size_t>{42});
  EXPECT_EQ(checked_mul(std::numeric_limits<std::size_t>::max(), 2),
            std::nullopt);
  EXPECT_EQ(checked_mul(0, std::numeric_limits<std::size_t>::max()),
            std::optional<std::size_t>{0});
  EXPECT_EQ(checked_add(1, 2), std::optional<std::size_t>{3});
  EXPECT_EQ(checked_add(std::numeric_limits<std::size_t>::max(), 1),
            std::nullopt);
  EXPECT_EQ(checked_pair_count(0), std::optional<std::size_t>{0});
  EXPECT_EQ(checked_pair_count(5), std::optional<std::size_t>{10});
  EXPECT_EQ(checked_pair_count(6), std::optional<std::size_t>{15});
  EXPECT_EQ(checked_pair_count(std::numeric_limits<std::size_t>::max()),
            std::nullopt);
}

TEST_F(SimdTest, TierParsingAndForcing) {
  simd::Tier t;
  EXPECT_TRUE(simd::parse_tier("scalar", t));
  EXPECT_EQ(t, simd::Tier::kScalar);
  EXPECT_TRUE(simd::parse_tier("avx2", t));
  EXPECT_EQ(t, simd::Tier::kAvx2);
  EXPECT_TRUE(simd::parse_tier("neon", t));
  EXPECT_EQ(t, simd::Tier::kNeon);
  EXPECT_TRUE(simd::parse_tier("auto", t));
  EXPECT_EQ(t, simd::detected_tier());
  EXPECT_FALSE(simd::parse_tier("sse9", t));
  EXPECT_FALSE(simd::parse_tier("", t));

  // Forcing scalar always works; forcing past the host's capability
  // must be rejected without changing the active tier.
  EXPECT_TRUE(simd::set_active_tier(simd::Tier::kScalar));
  EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  const simd::Tier impossible = simd::detected_tier() == simd::Tier::kAvx2
                                    ? simd::Tier::kNeon
                                    : simd::Tier::kAvx2;
  if (impossible != simd::detected_tier()) {
    EXPECT_FALSE(simd::set_active_tier(impossible));
    EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  }
  EXPECT_TRUE(simd::set_active_tier(simd::detected_tier()));
  EXPECT_EQ(simd::active_tier(), simd::detected_tier());

  EXPECT_STREQ(simd::tier_name(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAvx2), "avx2");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kNeon), "neon");
}

// The release-build regression this PR fixes: mismatched spans used to
// sail past a compiled-out assert into out-of-bounds reads. Now every
// build aborts with a diagnostic.
TEST(SimdDeathTest, MismatchedSpansAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_DEATH(squared_euclidean(a, b), "mismatched spans");
}

}  // namespace
}  // namespace incprof::cluster
