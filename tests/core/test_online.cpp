// Online-tracker basics: phase opening, the k_max cap, transitions,
// counters, and hand-computed centroid updates. Sketch-specific
// behaviour (bounded state, collisions, merges, the ring) lives in
// test_online_streaming.cpp.
#include "core/online.hpp"

#include "cluster/quality.hpp"
#include "core/pipeline.hpp"
#include "synthetic.hpp"
#include "util/hash.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

namespace incprof::core {
namespace {

using core::testing::cumulative_from_intervals;
using core::testing::three_phase_workload;

/// The sketch bucket a function name lands in.
std::size_t bucket(const std::string& name, std::size_t width) {
  return static_cast<std::size_t>(util::hash_string(name) % width);
}

TEST(OnlineTracker, OpensOnePhasePerDistinctBehaviour) {
  OnlinePhaseTracker tracker;
  for (const auto& snap :
       cumulative_from_intervals(three_phase_workload(15))) {
    tracker.observe(snap);
  }
  EXPECT_EQ(tracker.num_phases(), 3u);
  EXPECT_EQ(tracker.num_intervals(), 45u);
}

TEST(OnlineTracker, AgreesWithOfflineKMeans) {
  const auto snaps = cumulative_from_intervals(three_phase_workload(20));
  OnlineConfig cfg;
  cfg.assignment_window = snaps.size();
  OnlinePhaseTracker tracker(cfg);
  for (const auto& snap : snaps) tracker.observe(snap);

  const PhaseAnalysis offline = analyze_snapshots(snaps);
  const auto online = tracker.recent_assignments();
  ASSERT_EQ(online.size(), offline.detection.assignments.size());
  EXPECT_GT(cluster::adjusted_rand_index(online,
                                         offline.detection.assignments),
            0.95);
}

TEST(OnlineTracker, ReportsTransitionsAndNewPhases) {
  OnlinePhaseTracker tracker;
  const auto snaps = cumulative_from_intervals(three_phase_workload(10));
  std::size_t transitions = 0;
  std::size_t news = 0;
  for (const auto& snap : snaps) {
    const auto obs = tracker.observe(snap);
    transitions += obs.transition ? 1 : 0;
    news += obs.new_phase ? 1 : 0;
  }
  EXPECT_EQ(news, 3u);
  EXPECT_EQ(transitions, 2u);  // init->solve, solve->output
}

TEST(OnlineTracker, FirstIntervalIsPhaseZero) {
  OnlinePhaseTracker tracker;
  const auto snaps = cumulative_from_intervals(three_phase_workload(5));
  const auto obs = tracker.observe(snaps.front());
  EXPECT_EQ(obs.phase, 0u);
  EXPECT_TRUE(obs.new_phase);
  EXPECT_FALSE(obs.transition);
  EXPECT_EQ(obs.interval, 0u);
}

TEST(OnlineTracker, MaxPhasesCapForcesNearestAssignment) {
  OnlineConfig cfg;
  cfg.max_phases = 2;
  cfg.merge_ratio = 0.0;  // both slots must stay live
  OnlinePhaseTracker tracker(cfg);
  for (const auto& snap :
       cumulative_from_intervals(three_phase_workload(8))) {
    tracker.observe(snap);
  }
  EXPECT_EQ(tracker.num_phases(), 2u);
  // All intervals are still assigned somewhere.
  const auto sizes = tracker.phase_sizes();
  EXPECT_EQ(sizes[0] + sizes[1], 24u);
}

TEST(OnlineTracker, CapReachedFarIntervalJoinsNearestQuietly) {
  // Once k_max phases exist, even an interval far beyond
  // new_phase_distance must join its nearest phase — and must NOT be
  // reported as opening a new one (the event a deployment monitor
  // would alert on).
  OnlineConfig cfg;
  cfg.max_phases = 2;
  cfg.merge_ratio = 0.0;
  const std::size_t w = cfg.sketch_width;
  // Distances below assume three separate sketch buckets.
  ASSERT_EQ(std::set<std::size_t>({bucket("alpha", w), bucket("beta", w),
                                   bucket("gamma", w)})
                .size(),
            3u);
  OnlinePhaseTracker tracker(cfg);
  const auto snaps = cumulative_from_intervals({
      {{"alpha", {1.0, 1}}},
      {{"beta", {1.0, 1}}},
      {{"gamma", {5.0, 1}}},  // far from both existing centroids
  });
  tracker.observe(snaps[0]);
  const auto second = tracker.observe(snaps[1]);
  EXPECT_TRUE(second.new_phase);
  ASSERT_EQ(tracker.num_phases(), 2u);

  const auto third = tracker.observe(snaps[2]);
  EXPECT_FALSE(third.new_phase);
  EXPECT_NEAR(third.distance, std::sqrt(26.0), 1e-9);  // |(0, 1, 5)|
  EXPECT_LT(third.phase, 2u);
  EXPECT_EQ(tracker.num_phases(), 2u);
  EXPECT_EQ(tracker.recent_assignments().size(), 3u);
}

TEST(OnlineTracker, LooseThresholdMergesEverything) {
  OnlineConfig cfg;
  cfg.new_phase_distance = 1e9;
  OnlinePhaseTracker tracker(cfg);
  for (const auto& snap :
       cumulative_from_intervals(three_phase_workload(6))) {
    tracker.observe(snap);
  }
  EXPECT_EQ(tracker.num_phases(), 1u);
}

TEST(OnlineTracker, EveryFunctionLandsInItsSketchBucket) {
  // The sketch keeps no name table: each function's self time goes to
  // its hashed bucket. The workload's five functions hash to five
  // buckets, and the live centroids carry weight in exactly those.
  OnlineConfig cfg;
  cfg.merge_ratio = 0.0;
  OnlinePhaseTracker tracker(cfg);
  for (const auto& snap :
       cumulative_from_intervals(three_phase_workload(5))) {
    tracker.observe(snap);
  }
  std::set<std::size_t> expected;
  for (const char* name : {"init", "helper", "solve", "output", "flush"}) {
    expected.insert(bucket(name, cfg.sketch_width));
  }
  ASSERT_EQ(expected.size(), 5u);
  std::set<std::size_t> occupied;
  for (std::size_t p = 0; p < tracker.num_phase_slots(); ++p) {
    const auto c = tracker.centroid(p);
    ASSERT_EQ(c.size(), cfg.sketch_width);
    for (std::size_t j = 0; j < c.size(); ++j) {
      if (c[j] != 0.0) occupied.insert(j);
    }
  }
  EXPECT_EQ(occupied, expected);
  EXPECT_TRUE(tracker.function_names().empty());
}

TEST(OnlineTracker, PhaseSizesMatchAssignmentRecount) {
  // phase_sizes() comes from exact incremental counters; pin it against
  // a brute-force recount of the retained history so the counters can
  // never drift from the assignment stream.
  const auto snaps = cumulative_from_intervals(three_phase_workload(12));
  OnlineConfig cfg;
  cfg.assignment_window = snaps.size();
  OnlinePhaseTracker tracker(cfg);
  for (const auto& snap : snaps) tracker.observe(snap);
  const auto sizes = tracker.phase_sizes();
  std::vector<std::size_t> recount(tracker.num_phase_slots(), 0);
  for (const std::size_t a : tracker.recent_assignments()) ++recount[a];
  EXPECT_EQ(sizes, recount);
  std::size_t total = 0;
  for (const std::size_t s : sizes) total += s;
  EXPECT_EQ(total, tracker.num_intervals());
}

TEST(OnlineTracker, EwmaDecayMatchesHandComputedReference) {
  // One function, alpha = 0.25, interval values 1.0, 2.0, 3.0 seconds.
  // The phase opens at c = 1.0, then c <- c + alpha * (v - c):
  //   c1 = 1.0 + 0.25 * (2.0 - 1.0)    = 1.25
  //   c2 = 1.25 + 0.25 * (3.0 - 1.25)  = 1.6875
  OnlineConfig cfg;
  cfg.new_phase_distance = 1e9;  // everything joins phase 0
  cfg.ewma_alpha = 0.25;
  OnlinePhaseTracker tracker(cfg);
  const auto snaps = cumulative_from_intervals({
      {{"f", {1.0, 1}}},
      {{"f", {2.0, 1}}},
      {{"f", {3.0, 1}}},
  });
  for (const auto& snap : snaps) tracker.observe(snap);
  ASSERT_EQ(tracker.num_phases(), 1u);
  const auto c = tracker.centroid(0);
  ASSERT_EQ(c.size(), cfg.sketch_width);
  EXPECT_NEAR(c[bucket("f", cfg.sketch_width)], 1.6875, 1e-9);
}

TEST(OnlineTracker, ForceJoinAtCapDragsCentroidTowardMember) {
  // With the cap reached, a far interval joins the nearest phase and
  // must still pull its centroid: cap=1, alpha=0.5, values 1.0 then 5.0
  // leave the single centroid at the midpoint 3.0.
  OnlineConfig cfg;
  cfg.max_phases = 1;
  cfg.ewma_alpha = 0.5;
  OnlinePhaseTracker tracker(cfg);
  const auto snaps = cumulative_from_intervals({
      {{"f", {1.0, 1}}},
      {{"f", {5.0, 1}}},
  });
  tracker.observe(snaps[0]);
  const auto obs = tracker.observe(snaps[1]);
  EXPECT_FALSE(obs.new_phase);
  EXPECT_NEAR(obs.distance, 4.0, 1e-9);
  const auto c = tracker.centroid(0);
  ASSERT_EQ(c.size(), cfg.sketch_width);
  EXPECT_NEAR(c[bucket("f", cfg.sketch_width)], 3.0, 1e-9);
}

TEST(OnlineTracker, EwmaCentroidsTrackDrift) {
  // A slowly drifting single behaviour must remain one phase when the
  // centroid follows it (EWMA), even though first and last intervals
  // are far apart.
  std::vector<core::testing::IntervalSpec> intervals;
  for (int i = 0; i < 50; ++i) {
    intervals.push_back(
        {{"drift", {0.5 + 0.02 * static_cast<double>(i), 1}}});
  }
  OnlineConfig cfg;
  cfg.new_phase_distance = 0.15;
  cfg.ewma_alpha = 0.5;
  OnlinePhaseTracker tracker(cfg);
  for (const auto& snap : cumulative_from_intervals(intervals)) {
    tracker.observe(snap);
  }
  EXPECT_EQ(tracker.num_phases(), 1u);
}

}  // namespace
}  // namespace incprof::core
