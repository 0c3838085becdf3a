// Interval data: the first analysis step (paper, Section V-A).
//
// "The incremental profile data is written out by gprof as totals since
// the beginning of the program, so the first step is to subtract the
// previous interval from each interval to create interval profile data.
// Each interval is then represented as a tuple of function execution
// times (the gprof 'self' time), where each unique function is an
// attribute dimension of the data."
//
// IntervalData is that tuple set in matrix form: one row per interval,
// one column per function observed anywhere in the run, with parallel
// matrices for self seconds, call counts and children (inclusive-self)
// seconds.
#pragma once

#include "cluster/matrix.hpp"
#include "gmon/snapshot.hpp"

#include <string>
#include <vector>

namespace incprof::util {
class ThreadPool;
}  // namespace incprof::util

namespace incprof::core {

/// Differenced per-interval profile data over a common function universe.
class IntervalData {
 public:
  /// Builds interval data from cumulative snapshots, differencing
  /// consecutive dumps. The first snapshot differences against zero.
  /// Snapshots must be ordered by seq (the scanner guarantees this).
  /// Intervals with identical consecutive timestamps are kept (they are
  /// all-zero rows) so the interval axis matches the dump sequence.
  /// Rows are filled on `pool` when one is given (nullptr = serial); the
  /// result is the same bit for bit.
  static IntervalData from_cumulative(
      const std::vector<gmon::ProfileSnapshot>& snapshots,
      util::ThreadPool* pool = nullptr);

  /// Number of intervals (rows).
  std::size_t num_intervals() const noexcept {
    return self_seconds_.rows();
  }

  /// Number of functions (columns).
  std::size_t num_functions() const noexcept {
    return function_names_.size();
  }

  /// Sorted function names; column j of every matrix is function j.
  const std::vector<std::string>& function_names() const noexcept {
    return function_names_;
  }

  /// Column index of `name`, or -1 if the function never appeared.
  int function_index(std::string_view name) const noexcept;

  /// Per-interval self time, seconds.
  const cluster::Matrix& self_seconds() const noexcept {
    return self_seconds_;
  }

  /// Per-interval call counts.
  const cluster::Matrix& calls() const noexcept { return calls_; }

  /// Per-interval children time (inclusive - self), seconds.
  const cluster::Matrix& children_seconds() const noexcept {
    return children_seconds_;
  }

  /// True if function j was active (nonzero self time) in interval i.
  bool active(std::size_t i, std::size_t j) const noexcept {
    return self_seconds_.at(i, j) > 0.0;
  }

  /// Interval end timestamps, seconds from run start.
  const std::vector<double>& timestamps_sec() const noexcept {
    return timestamps_sec_;
  }

  /// Total self time over the entire run, seconds.
  double total_self_seconds() const noexcept;

 private:
  std::vector<std::string> function_names_;
  cluster::Matrix self_seconds_;
  cluster::Matrix calls_;
  cluster::Matrix children_seconds_;
  std::vector<double> timestamps_sec_;
};

}  // namespace incprof::core
