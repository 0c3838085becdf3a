#include "util/saturating.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace incprof::util {
namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

TEST(Saturating, AddClampsAtBothEnds) {
  EXPECT_EQ(saturating_add(2, 3), 5);
  EXPECT_EQ(saturating_add(kMax, 1), kMax);
  EXPECT_EQ(saturating_add(kMax, kMax), kMax);
  EXPECT_EQ(saturating_add(kMin, -1), kMin);
  EXPECT_EQ(saturating_add(kMin, kMin), kMin);
  EXPECT_EQ(saturating_add(kMax, kMin), -1);
}

TEST(Saturating, SubClampsAtBothEnds) {
  EXPECT_EQ(saturating_sub(2, 3), -1);
  EXPECT_EQ(saturating_sub(kMax, -1), kMax);
  EXPECT_EQ(saturating_sub(0, kMin), kMax);
  EXPECT_EQ(saturating_sub(kMin, 1), kMin);
  EXPECT_EQ(saturating_sub(-2, kMax), kMin);
  EXPECT_EQ(saturating_sub(kMin, kMin), 0);
}

}  // namespace
}  // namespace incprof::util
