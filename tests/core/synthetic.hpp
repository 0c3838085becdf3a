// Helpers to hand-build IntervalData for core-module tests: specify
// per-interval (self seconds, calls) per function and get back the
// cumulative snapshots the pipeline consumes.
#pragma once

#include "core/intervals.hpp"
#include "core/online.hpp"

#include <cmath>
#include <map>
#include <string>
#include <vector>

namespace incprof::core::testing {

/// One interval's worth of activity: function -> (self seconds, calls).
using IntervalSpec =
    std::map<std::string, std::pair<double, std::int64_t>>;

/// Builds cumulative snapshots (1-second spacing) from per-interval specs.
inline std::vector<gmon::ProfileSnapshot> cumulative_from_intervals(
    const std::vector<IntervalSpec>& intervals) {
  std::map<std::string, gmon::FunctionProfile> totals;
  std::vector<gmon::ProfileSnapshot> snaps;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    for (const auto& [name, sc] : intervals[i]) {
      auto& fp = totals[name];
      fp.name = name;
      fp.self_ns += static_cast<std::int64_t>(sc.first * 1e9);
      fp.calls += sc.second;
      fp.inclusive_ns = fp.self_ns;
    }
    gmon::ProfileSnapshot snap(static_cast<std::uint32_t>(i),
                               static_cast<std::int64_t>((i + 1) * 1e9));
    for (const auto& [name, fp] : totals) snap.upsert(fp);
    snaps.push_back(std::move(snap));
  }
  return snaps;
}

/// Shortcut: interval data straight from specs.
inline IntervalData data_from_intervals(
    const std::vector<IntervalSpec>& intervals) {
  return IntervalData::from_cumulative(
      cumulative_from_intervals(intervals));
}

/// A canonical 3-phase synthetic workload: `n_per` intervals dominated by
/// "init" (many calls), then "solve" (zero calls after the first
/// interval: long-running), then "output" (one call per interval). Within
/// a phase, self times wobble smoothly (continuous measurement noise, as
/// real profiles have) rather than taking repeated exact values, which
/// would constitute genuine sub-phases.
inline std::vector<IntervalSpec> three_phase_workload(std::size_t n_per) {
  auto wobble = [](std::size_t i, double freq) {
    return 0.02 * std::sin(static_cast<double>(i) * freq + freq);
  };
  std::vector<IntervalSpec> intervals;
  for (std::size_t i = 0; i < n_per; ++i) {
    intervals.push_back({{"init", {0.9 + wobble(i, 1.3), 200}},
                         {"helper", {0.05 + wobble(i, 0.9) / 4, 400}}});
  }
  for (std::size_t i = 0; i < n_per; ++i) {
    intervals.push_back(
        {{"solve", {0.95 + wobble(i, 0.7), i == 0 ? 1 : 0}}});
  }
  for (std::size_t i = 0; i < n_per; ++i) {
    intervals.push_back({{"output", {0.6 + wobble(i, 1.1), 1}},
                         {"flush", {0.3 + wobble(i, 0.5) / 2, 50}}});
  }
  return intervals;
}

/// The whole run's assignments from an online tracker driven directly
/// (its window covers every interval): the oracle the service tests
/// hold a session's published assignments to.
inline std::vector<std::size_t> direct_assignments(
    const std::vector<gmon::ProfileSnapshot>& snaps) {
  OnlineConfig cfg;
  cfg.assignment_window = snaps.size();
  OnlinePhaseTracker tracker(cfg);
  for (const auto& snap : snaps) tracker.observe(snap);
  return tracker.recent_assignments();
}

}  // namespace incprof::core::testing
