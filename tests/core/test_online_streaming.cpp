// Online-tracker tests of what the sketch makes bounded: fixed state,
// sketch widths and collisions, online merges, the move-observe path,
// the ring/counter contract, and phase-boundary parity with the offline
// pipeline. The basics are in test_online.cpp.
#include "core/online.hpp"

#include "cluster/quality.hpp"
#include "core/pipeline.hpp"
#include "core/transitions.hpp"
#include "synthetic.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

namespace incprof::core {
namespace {

using core::testing::IntervalSpec;
using core::testing::cumulative_from_intervals;
using core::testing::three_phase_workload;

OnlineConfig streaming_config(std::size_t sketch_width = 256) {
  OnlineConfig cfg;
  cfg.sketch_width = sketch_width;
  return cfg;
}

/// Phase-boundary positions of an assignment sequence (indices whose
/// phase differs from the previous interval's).
std::vector<std::size_t> boundaries(const std::vector<std::size_t>& a) {
  std::vector<std::size_t> out;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (a[i] != a[i - 1]) out.push_back(i);
  }
  return out;
}

/// Boundary F1 with +-`tol` interval tolerance: a predicted boundary
/// matches an unmatched reference boundary within tol. 1.0 when both
/// sequences have no boundaries at all.
double boundary_f1(const std::vector<std::size_t>& reference,
                   const std::vector<std::size_t>& predicted,
                   std::size_t tol) {
  const auto ref = boundaries(reference);
  const auto pred = boundaries(predicted);
  if (ref.empty() && pred.empty()) return 1.0;
  if (ref.empty() || pred.empty()) return 0.0;
  std::vector<bool> used(ref.size(), false);
  std::size_t matched = 0;
  for (const std::size_t p : pred) {
    for (std::size_t r = 0; r < ref.size(); ++r) {
      const std::size_t d = p > ref[r] ? p - ref[r] : ref[r] - p;
      if (!used[r] && d <= tol) {
        used[r] = true;
        ++matched;
        break;
      }
    }
  }
  const double precision =
      static_cast<double>(matched) / static_cast<double>(pred.size());
  const double recall =
      static_cast<double>(matched) / static_cast<double>(ref.size());
  if (precision + recall == 0.0) return 0.0;
  return 2.0 * precision * recall / (precision + recall);
}

/// A seeded multi-phase workload: `phases` blocks of `per` intervals,
/// each block dominated by its own disjoint function set, with
/// deterministic per-interval wobble.
std::vector<gmon::ProfileSnapshot> phased_workload(std::uint64_t seed,
                                                   std::size_t phases,
                                                   std::size_t per) {
  constexpr std::size_t kFuncsPerPhase = 4;
  util::Rng rng(seed);
  std::vector<std::int64_t> totals(phases * kFuncsPerPhase, 0);
  std::vector<std::int64_t> calls(phases * kFuncsPerPhase, 0);
  std::vector<gmon::ProfileSnapshot> snaps;
  char name[32];
  for (std::size_t i = 0; i < phases * per; ++i) {
    const std::size_t phase = i / per;
    for (std::size_t f = 0; f < kFuncsPerPhase; ++f) {
      const std::size_t idx = phase * kFuncsPerPhase + f;
      totals[idx] += static_cast<std::int64_t>(
          (f + 1) * 150'000'000 + rng.next_below(30'000'000));
      calls[idx] += static_cast<std::int64_t>(1 + rng.next_below(50));
    }
    gmon::ProfileSnapshot snap(static_cast<std::uint32_t>(i),
                               static_cast<std::int64_t>(i + 1) *
                                   1'000'000'000);
    for (std::size_t idx = 0; idx < totals.size(); ++idx) {
      if (totals[idx] == 0) continue;
      std::snprintf(name, sizeof(name), "phase%zu_fn%zu",
                    idx / kFuncsPerPhase, idx % kFuncsPerPhase);
      gmon::FunctionProfile fp;
      fp.name = name;
      fp.self_ns = totals[idx];
      fp.calls = calls[idx];
      fp.inclusive_ns = fp.self_ns;
      snap.upsert(std::move(fp));
    }
    snaps.push_back(std::move(snap));
  }
  return snaps;
}

TEST(OnlineStreaming, StateStaysFlatOverLongSession) {
  // Same fixed function universe forever: once warm (the assignment
  // ring full), observe() must not grow any buffer — state_bytes() is
  // *identical* at interval 1050 and interval 2550. A session shorter
  // than the window pays for a shorter ring.
  // Sample at whole-cycle boundaries: previous_/delta_ mirror the last
  // cumulative dump, whose function count varies *within* a cycle.
  const auto cycle = cumulative_from_intervals(three_phase_workload(5));
  const std::size_t n = cycle.size();  // 15 intervals per cycle
  auto replay = [&](OnlinePhaseTracker& t, std::size_t cycles) {
    for (std::size_t i = 0; i < cycles * n; ++i) {
      t.observe(cycle[i % n]);
    }
  };

  OnlinePhaseTracker short_session(streaming_config(64));
  replay(short_session, 1);

  OnlinePhaseTracker streaming(streaming_config(64));
  replay(streaming, 70);
  ASSERT_GE(streaming.num_intervals(),
            streaming.config().assignment_window);
  const std::size_t warm = streaming.state_bytes();
  replay(streaming, 100);
  EXPECT_EQ(streaming.state_bytes(), warm);
  EXPECT_EQ(streaming.num_intervals(), 170 * n);
  EXPECT_LT(short_session.state_bytes(), warm);
}

TEST(OnlineStreaming, SketchStateIsFixedWidthUnderFunctionChurn) {
  // Every interval introduces a fresh function name. The offline
  // pipeline grows one feature column per name; the sketch keeps every
  // centroid at sketch_width and learns no name table.
  std::vector<IntervalSpec> intervals;
  for (int i = 0; i < 400; ++i) {
    IntervalSpec spec{{"main_loop", {0.8, 10}}};
    spec["tmp_" + std::to_string(i)] = {0.1, 1};
    intervals.push_back(spec);
  }
  const auto snaps = cumulative_from_intervals(intervals);

  OnlinePhaseTracker streaming(streaming_config(32));
  for (const auto& snap : snaps) streaming.observe(snap);
  EXPECT_TRUE(streaming.function_names().empty());
  for (std::size_t p = 0; p < streaming.num_phase_slots(); ++p) {
    EXPECT_EQ(streaming.centroid(p).size(), 32u);
  }

  const PhaseAnalysis offline = analyze_snapshots(snaps);
  EXPECT_EQ(offline.intervals.num_functions(), 401u);
  // The tracker pays for the last cumulative dump it differences
  // against, not for a matrix over every interval and name.
  EXPECT_LT(streaming.state_bytes(), offline.intervals.num_intervals() *
                                         offline.intervals.num_functions() *
                                         sizeof(double));
}

TEST(OnlineStreaming, RecoversThreePhaseWorkloadLikeTheOfflinePipeline) {
  // The workload's 5 functions land in 5 buckets at each width below,
  // so the sketched distances are the exact ones and the tracker finds
  // the offline pipeline's three phases.
  const auto snaps = cumulative_from_intervals(three_phase_workload(20));
  const PhaseAnalysis offline = analyze_snapshots(snaps);
  for (const std::size_t width : {64u, 256u, 1024u}) {
    std::set<std::uint64_t> buckets;
    for (const char* name : {"init", "helper", "solve", "output", "flush"}) {
      buckets.insert(util::hash_string(name) % width);
    }
    ASSERT_EQ(buckets.size(), 5u) << width;
    auto cfg = streaming_config(width);
    cfg.assignment_window = snaps.size();
    OnlinePhaseTracker streaming(cfg);
    for (const auto& snap : snaps) streaming.observe(snap);
    EXPECT_EQ(streaming.num_phases(), 3u) << width;
    EXPECT_GT(cluster::adjusted_rand_index(streaming.recent_assignments(),
                                           offline.detection.assignments),
              0.95)
        << width;
  }
}

TEST(OnlineStreaming, WidthOneCollapsesEveryFunctionIntoOneBucket) {
  // Degenerate sketch: all names share the single bucket, so intervals
  // with similar *total* self time are indistinguishable and the
  // three-phase workload collapses into one phase. This is the
  // worst-case collision behavior documented in DESIGN.md.
  auto cfg = streaming_config(1);
  OnlinePhaseTracker tracker(cfg);
  for (const auto& snap :
       cumulative_from_intervals(three_phase_workload(10))) {
    tracker.observe(snap);
  }
  EXPECT_EQ(tracker.num_phases(), 1u);
  EXPECT_EQ(tracker.centroid(0).size(), 1u);
}

// Two behaviors that start far apart (1.0 vs 3.0 on one axis) and
// drift toward each other until they coincide at 2.0 — the EWMA
// centroids follow, their separation shrinks below the (still-finite)
// tracking dispersions, and the Davies-Bouldin pair term crosses the
// merge ratio.
std::vector<IntervalSpec> drifting_together_workload() {
  std::vector<IntervalSpec> intervals;
  for (int i = 0; i <= 20; ++i) {
    const double step = 0.05 * static_cast<double>(i);
    intervals.push_back({{"x", {1.0 + step, 1}}});
    intervals.push_back({{"x", {3.0 - step, 1}}});
  }
  for (int i = 0; i < 8; ++i) {
    intervals.push_back({{"x", {2.0, 1}}});
  }
  return intervals;
}

TEST(OnlineStreaming, MergesOverlappingPhasesAndRedirectsSlots) {
  // The victim slot must redirect to the survivor, report size 0, and
  // the live count must drop to 1 with no members lost.
  auto cfg = streaming_config(8);
  cfg.max_phases = 2;
  cfg.new_phase_distance = 0.5;
  cfg.ewma_alpha = 0.5;
  cfg.merge_ratio = 0.6;
  OnlinePhaseTracker tracker(cfg);
  const auto snaps =
      cumulative_from_intervals(drifting_together_workload());
  for (const auto& snap : snaps) tracker.observe(snap);

  EXPECT_EQ(tracker.num_phases(), 1u);
  EXPECT_EQ(tracker.num_phase_slots(), 2u);
  const std::size_t survivor = tracker.resolve_phase(0);
  EXPECT_EQ(tracker.resolve_phase(1), survivor);
  const auto sizes = tracker.phase_sizes();
  EXPECT_EQ(sizes[1 - survivor], 0u);
  EXPECT_EQ(sizes[survivor], tracker.num_intervals());
}

TEST(OnlineStreaming, TransitionModelAcceptsMergedSlots) {
  // After a merge, the assignment stream still holds the merged-away
  // slot's id while num_phases() has dropped; the transition model must
  // be sized by slots, as incprof_analyze --online does.
  auto cfg = streaming_config(8);
  cfg.max_phases = 2;
  cfg.new_phase_distance = 0.5;
  cfg.ewma_alpha = 0.5;
  cfg.merge_ratio = 0.6;
  const auto snaps =
      cumulative_from_intervals(drifting_together_workload());
  cfg.assignment_window = snaps.size();
  OnlinePhaseTracker tracker(cfg);
  for (const auto& snap : snaps) tracker.observe(snap);
  ASSERT_LT(tracker.num_phases(), tracker.num_phase_slots());

  PhaseTransitionModel model;
  ASSERT_NO_THROW(model = PhaseTransitionModel::from_assignments(
                      tracker.recent_assignments(),
                      tracker.num_phase_slots()));
  EXPECT_EQ(model.total_intervals(), tracker.num_intervals());
}

TEST(OnlineStreaming, MergeRatioZeroDisablesMerging) {
  auto cfg = streaming_config(8);
  cfg.max_phases = 2;
  cfg.new_phase_distance = 0.5;
  cfg.ewma_alpha = 0.5;
  cfg.merge_ratio = 0.0;
  OnlinePhaseTracker tracker(cfg);
  for (const auto& snap :
       cumulative_from_intervals(drifting_together_workload())) {
    tracker.observe(snap);
  }
  EXPECT_EQ(tracker.num_phases(), 2u);
  EXPECT_EQ(tracker.resolve_phase(0), 0u);
  EXPECT_EQ(tracker.resolve_phase(1), 1u);
}

TEST(OnlineStreaming, MoveObserveMatchesCopyObserve) {
  // observe(&&) is a pure ownership optimization: assignments, phase
  // counts, and centroids must be bit-identical to the copying path.
  const auto snaps = cumulative_from_intervals(three_phase_workload(10));
  auto cfg = streaming_config(64);
  cfg.assignment_window = snaps.size();
  OnlinePhaseTracker copied(cfg);
  OnlinePhaseTracker moved(cfg);
  for (const auto& snap : snaps) {
    copied.observe(snap);
    gmon::ProfileSnapshot own = snap;  // deliberate copy to move from
    moved.observe(std::move(own));
  }
  EXPECT_EQ(copied.recent_assignments(), moved.recent_assignments());
  EXPECT_EQ(copied.num_phases(), moved.num_phases());
  EXPECT_EQ(copied.transitions(), moved.transitions());
  ASSERT_EQ(copied.num_phase_slots(), moved.num_phase_slots());
  for (std::size_t p = 0; p < copied.num_phase_slots(); ++p) {
    EXPECT_EQ(copied.centroid(p), moved.centroid(p));
  }
}

TEST(OnlineStreaming, RingKeepsOnlyTheWindowTail) {
  // window = 4 over 10 alternating intervals: the full history would be
  // 0,1,0,1,... — recent_assignments() must return exactly the last 4,
  // oldest first, while the exact counters keep counting past the ring.
  auto cfg = streaming_config(4);
  cfg.max_phases = 2;
  cfg.assignment_window = 4;
  OnlinePhaseTracker tracker(cfg);
  std::vector<IntervalSpec> intervals;
  for (int i = 0; i < 10; ++i) {
    intervals.push_back({{"x", {i % 2 == 0 ? 1.0 : 2.0, 1}}});
  }
  for (const auto& snap : cumulative_from_intervals(intervals)) {
    tracker.observe(snap);
  }
  const std::vector<std::size_t> expected{0, 1, 0, 1};
  EXPECT_EQ(tracker.recent_assignments(), expected);
  EXPECT_EQ(tracker.num_intervals(), 10u);
  EXPECT_EQ(tracker.transitions(), 9u);
  const auto sizes = tracker.phase_sizes();
  EXPECT_EQ(sizes[0], 5u);
  EXPECT_EQ(sizes[1], 5u);
}

TEST(OnlineStreaming, TransitionCountingSurvivesMerges) {
  // After a merge, intervals alternating between the two old behaviors
  // are one phase — they must stop counting as transitions even though
  // their slot ids in the ring differ pre-merge.
  auto cfg = streaming_config(8);
  cfg.max_phases = 2;
  cfg.new_phase_distance = 0.5;
  cfg.ewma_alpha = 0.5;
  cfg.merge_ratio = 0.6;
  OnlinePhaseTracker tracker(cfg);
  std::size_t transitions_after_merge = 0;
  bool merged = false;
  for (const auto& snap :
       cumulative_from_intervals(drifting_together_workload())) {
    const auto obs = tracker.observe(snap);
    if (merged && obs.transition) ++transitions_after_merge;
    if (tracker.num_phase_slots() == 2 && tracker.num_phases() == 1) {
      merged = true;
    }
  }
  ASSERT_TRUE(merged);
  EXPECT_EQ(transitions_after_merge, 0u);
}

TEST(OnlineStreaming, PhaseBoundariesMatchTheOfflinePipeline) {
  // Batch parity: on seeded multi-phase workloads the online tracker
  // (default 256-wide sketch) must place its phase boundaries
  // where the offline k-means pipeline does, within one interval.
  struct Workload {
    std::uint64_t seed;
    std::size_t phases;
    std::size_t per;
  };
  for (const Workload& w : {Workload{21, 4, 40}, Workload{22, 3, 60},
                            Workload{23, 6, 25}}) {
    const auto snaps = phased_workload(w.seed, w.phases, w.per);
    const PhaseAnalysis offline = analyze_snapshots(snaps);
    auto cfg = streaming_config();
    cfg.assignment_window = snaps.size();
    OnlinePhaseTracker tracker(cfg);
    for (const auto& snap : snaps) tracker.observe(snap);
    EXPECT_GE(boundary_f1(offline.detection.assignments,
                          tracker.recent_assignments(), 1),
              0.9)
        << w.phases << "x" << w.per;
  }
}

}  // namespace
}  // namespace incprof::core
