// Rounding-safe bounds on exact Euclidean distances, made from the
// batched kernel's squared distances. The bounded Lloyd loop in
// kmeans.cpp builds every bound it skips a scan on from these, so their
// margins are what keeps it bit-identical to the plain loop (DESIGN §6,
// rule 5). "Exact" means real arithmetic on the stored doubles.
#pragma once

#include <cstddef>
#include <limits>

namespace incprof::cluster {

/// The kernel's squared distance over d columns is within a relative
/// (d + 3)·ε/2 of the exact one, plus an absolute d·2^-1075 where
/// squares underflow. A bound is widened by the relative margin
/// m = 4·(d + 3)·ε and by kSlack.
class DistanceBounds {
 public:
  /// Absolute slack on every bound: sqrt(d · 2^-1075) < 1e-150 for any
  /// d below 4e23, so it covers the squares that underflow.
  static constexpr double kSlack = 1e-150;

  /// A bound at or above this proves nothing: squares of smaller
  /// distances cannot overflow, and NaN and ±Inf fail the comparison.
  static constexpr double kLimit = 1e150;

  /// Past this many columns the (d + 3)·ε/2 error bound no longer holds
  /// without a second-order term; the margin is then infinite.
  static constexpr std::size_t kMaxCols = std::size_t{1} << 24;

  /// Two ulps at 1: (x ± y)·(1 ± kOutward) rounds past the exact x ± y.
  static constexpr double kOutward =
      2.0 * std::numeric_limits<double>::epsilon();

  explicit DistanceBounds(std::size_t cols) noexcept;

  /// m = 4·(d + 3)·ε, or +Inf above kMaxCols columns.
  static double margin(std::size_t cols) noexcept;

  /// An upper bound on a distance whose rounded value is x.
  double widen(double x) const noexcept;
  /// Upper and lower bounds on the exact distance whose square the
  /// kernel computed as `d2`.
  double above(double d2) const noexcept;
  double below(double d2) const noexcept;

 private:
  double up_;
  double down_;
};

}  // namespace incprof::cluster
