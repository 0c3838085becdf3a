// Property tests: invariants the analysis pipeline must hold for *any*
// collected run, checked across a parameter sweep of apps, seeds and
// jitter levels (TEST_P per the coverage strategy in tests/README-less
// tradition: one property, many worlds).
#include "apps/harness.hpp"
#include "apps/miniapp.hpp"
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <set>

namespace incprof::core {
namespace {

struct World {
  std::string app;
  std::uint64_t seed;
  double jitter;
};

// gtest prints each parameter into its test's listed name (and so into
// the ctest name). Without this it would print the object's raw bytes,
// a heap pointer among them, and the names would change with ASLR.
void PrintTo(const World& w, std::ostream* os) {
  *os << w.app << " seed=" << w.seed << " jitter=" << w.jitter;
}

std::string world_name(const ::testing::TestParamInfo<World>& info) {
  std::string app = info.param.app;
  for (auto& c : app) {
    if (c == '-') c = '_';  // gtest parameter names must be identifiers
  }
  return app + "_s" + std::to_string(info.param.seed) + "_j" +
         std::to_string(static_cast<int>(info.param.jitter * 1000));
}

class PipelineInvariantTest : public ::testing::TestWithParam<World> {
 protected:
  static apps::ProfiledRun collect(const World& w) {
    apps::AppParams params;
    params.compute_scale = 0.05;
    auto app = apps::make_app(w.app, params);
    apps::RunConfig cfg;
    cfg.seed = w.seed;
    cfg.jitter = w.jitter;
    return apps::run_profiled(*app, cfg);
  }
};

TEST_P(PipelineInvariantTest, CumulativeDumpsAreMonotone) {
  const auto run = collect(GetParam());
  for (std::size_t i = 1; i < run.snapshots.size(); ++i) {
    const auto& prev = run.snapshots[i - 1];
    const auto& cur = run.snapshots[i];
    EXPECT_GE(cur.total_self_ns(), prev.total_self_ns());
    for (const auto& fp : prev.functions()) {
      const auto* now = cur.find(fp.name);
      ASSERT_NE(now, nullptr) << fp.name << " vanished from dump " << i;
      EXPECT_GE(now->self_ns, fp.self_ns) << fp.name;
      EXPECT_GE(now->calls, fp.calls) << fp.name;
      EXPECT_GE(now->inclusive_ns, fp.inclusive_ns) << fp.name;
    }
  }
}

TEST_P(PipelineInvariantTest, IntervalsAreNonNegativeAndSumToTotal) {
  const auto run = collect(GetParam());
  const auto data = IntervalData::from_cumulative(run.snapshots);
  double total = 0.0;
  for (std::size_t i = 0; i < data.num_intervals(); ++i) {
    for (std::size_t f = 0; f < data.num_functions(); ++f) {
      EXPECT_GE(data.self_seconds().at(i, f), 0.0);
      EXPECT_GE(data.calls().at(i, f), 0.0);
      total += data.self_seconds().at(i, f);
    }
  }
  const double cumulative =
      static_cast<double>(run.snapshots.back().total_self_ns()) / 1e9;
  EXPECT_NEAR(total, cumulative, 1e-6);
}

TEST_P(PipelineInvariantTest, AssignmentsPartitionIntervals) {
  const auto run = collect(GetParam());
  const auto analysis = analyze_snapshots(run.snapshots);
  EXPECT_EQ(analysis.detection.assignments.size(),
            analysis.intervals.num_intervals());
  std::set<std::size_t> seen;
  std::size_t counted = 0;
  for (std::size_t p = 0; p < analysis.detection.num_phases; ++p) {
    for (const auto i : analysis.detection.phase_intervals[p]) {
      EXPECT_TRUE(seen.insert(i).second);
      ++counted;
    }
  }
  EXPECT_EQ(counted, analysis.intervals.num_intervals());
}

TEST_P(PipelineInvariantTest, EveryNonEmptyPhaseMeetsThresholdOrRunsOut) {
  const auto run = collect(GetParam());
  const auto analysis = analyze_snapshots(run.snapshots);
  for (const auto& phase : analysis.sites.phases) {
    if (phase.intervals.empty()) continue;
    // Coverage either reaches the threshold or every interval was
    // visited (sites exhausted) — Algorithm 1 can do no better.
    EXPECT_GE(phase.coverage, analysis.sites.threshold - 1e-9)
        << "phase " << phase.phase;
  }
}

TEST_P(PipelineInvariantTest, SiteFractionsAreValid) {
  const auto run = collect(GetParam());
  const auto analysis = analyze_snapshots(run.snapshots);
  const std::size_t total = analysis.intervals.num_intervals();
  for (const auto& phase : analysis.sites.phases) {
    for (const auto& site : phase.sites) {
      EXPECT_GE(site.phase_fraction, 0.0);
      EXPECT_LE(site.phase_fraction, 1.0);
      EXPECT_GE(site.app_fraction, 0.0);
      EXPECT_LE(site.app_fraction,
                static_cast<double>(phase.intervals.size()) /
                        static_cast<double>(total) +
                    1e-12);
      EXPECT_LT(site.function, analysis.intervals.num_functions());
      EXPECT_EQ(analysis.intervals.function_names()[site.function],
                site.function_name);
    }
  }
}

TEST_P(PipelineInvariantTest, TextRoundTripPreservesPhaseCount) {
  const auto run = collect(GetParam());
  PipelineConfig text;
  text.text_round_trip = true;
  const auto direct = analyze_snapshots(run.snapshots);
  const auto via_text = analyze_snapshots(run.snapshots, text);
  EXPECT_EQ(direct.detection.num_phases, via_text.detection.num_phases);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, PipelineInvariantTest,
    ::testing::Values(World{"graph500", 7, 0.02}, World{"graph500", 3, 0.05},
                      World{"minife", 7, 0.02}, World{"miniamr", 11, 0.0},
                      World{"miniamr", 5, 0.04}, World{"lammps", 7, 0.02},
                      World{"gadget", 13, 0.03},
                      World{"lammps-eam", 2, 0.02}),
    world_name);

}  // namespace
}  // namespace incprof::core
