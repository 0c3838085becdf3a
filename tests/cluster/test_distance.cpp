#include "cluster/distance.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace incprof::cluster {
namespace {

TEST(Distance, KnownValues) {
  const std::vector<double> a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(squared_euclidean(a, b), 25.0);
  EXPECT_DOUBLE_EQ(euclidean(a, b), 5.0);
}

TEST(Distance, ZeroForIdenticalPoints) {
  const std::vector<double> a{1.5, -2.5, 3.0};
  EXPECT_EQ(squared_euclidean(a, a), 0.0);
  EXPECT_EQ(euclidean(a, a), 0.0);
}

class MetricPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MetricPropertyTest, SymmetryAndTriangleInequality) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t dim = 1 + GetParam() % 7;
  auto vec = [&] {
    std::vector<double> v(dim);
    for (auto& x : v) x = rng.next_gaussian() * 10;
    return v;
  };
  for (int iter = 0; iter < 50; ++iter) {
    const auto a = vec(), b = vec(), c = vec();
    EXPECT_DOUBLE_EQ(euclidean(a, b), euclidean(b, a));
    EXPECT_LE(euclidean(a, c), euclidean(a, b) + euclidean(b, c) + 1e-9);
    EXPECT_GE(euclidean(a, b), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricPropertyTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace incprof::cluster
