#include "core/report.hpp"

#include <gtest/gtest.h>

namespace incprof::core {
namespace {

SiteSelectionResult sample_result() {
  SiteSelectionResult result;
  PhaseSites p0;
  p0.phase = 0;
  p0.intervals = {0, 1};
  SiteSelection s0;
  s0.function_name = "cg_solve";
  s0.type = InstType::kLoop;
  s0.phase_fraction = 1.0;
  s0.app_fraction = 0.437;
  p0.sites.push_back(s0);
  p0.coverage = 1.0;

  PhaseSites p1;
  p1.phase = 1;
  p1.intervals = {2, 3};
  SiteSelection s1;
  s1.function_name = "init_matrix";
  s1.type = InstType::kBody;
  s1.phase_fraction = 0.932;
  s1.app_fraction = 0.101;
  p1.sites.push_back(s1);
  SiteSelection s2 = s0;  // cg_solve/loop appears again in phase 1
  s2.phase_fraction = 0.947;
  s2.app_fraction = 0.205;
  p1.sites.push_back(s2);
  p1.coverage = 0.96;

  result.phases = {p0, p1};
  result.threshold = 0.95;
  return result;
}

TEST(InstTypeNames, BodyAndLoop) {
  EXPECT_STREQ(to_string(InstType::kBody), "body");
  EXPECT_STREQ(to_string(InstType::kLoop), "loop");
}

TEST(HeartbeatIds, SharedAcrossPhasesForSamePair) {
  const auto ids = assign_heartbeat_ids(sample_result());
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids.at({"cg_solve", InstType::kLoop}), 1u);
  EXPECT_EQ(ids.at({"init_matrix", InstType::kBody}), 2u);
}

TEST(HeartbeatIds, DifferentTypesGetDifferentIds) {
  SiteSelectionResult result = sample_result();
  SiteSelection body_variant;
  body_variant.function_name = "cg_solve";
  body_variant.type = InstType::kBody;
  result.phases[1].sites.push_back(body_variant);
  const auto ids = assign_heartbeat_ids(result);
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_NE(ids.at({"cg_solve", InstType::kBody}),
            ids.at({"cg_solve", InstType::kLoop}));
}

TEST(SiteTable, ContainsRowsAndPercentages) {
  const std::string table = render_site_table(
      "minife", sample_result(),
      {{"perform_elem_loop", InstType::kLoop}});
  EXPECT_NE(table.find("cg_solve"), std::string::npos);
  EXPECT_NE(table.find("43.7"), std::string::npos);
  EXPECT_NE(table.find("93.2"), std::string::npos);
  EXPECT_NE(table.find("loop"), std::string::npos);
  EXPECT_NE(table.find("Manual Instrumentation Sites"), std::string::npos);
  EXPECT_NE(table.find("perform_elem_loop"), std::string::npos);
}

TEST(SiteTable, NoManualSectionWhenEmpty) {
  const std::string table = render_site_table("app", sample_result(), {});
  EXPECT_EQ(table.find("Manual"), std::string::npos);
}

TEST(PhaseSummary, OneLinePerPhase) {
  const std::string summary = render_phase_summary(sample_result());
  EXPECT_NE(summary.find("cg_solve/loop"), std::string::npos);
  EXPECT_NE(summary.find("init_matrix/body"), std::string::npos);
  EXPECT_NE(summary.find("96.0"), std::string::npos);  // coverage %
}

TEST(PhaseTimeline, OneCharPerIntervalWhenNarrow) {
  const std::vector<std::size_t> assignments{0, 0, 1, 1, 2};
  const std::string strip = render_phase_timeline(assignments, 96);
  EXPECT_NE(strip.find("|00112|"), std::string::npos);
  EXPECT_NE(strip.find("0..5"), std::string::npos);
}

TEST(PhaseTimeline, BucketsByMajorityWhenWide) {
  std::vector<std::size_t> assignments(100, 0);
  for (std::size_t i = 50; i < 100; ++i) assignments[i] = 1;
  const std::string strip = render_phase_timeline(assignments, 10);
  EXPECT_NE(strip.find("|0000011111|"), std::string::npos);
}

TEST(PhaseTimeline, EmptyAssignments) {
  EXPECT_EQ(render_phase_timeline({}, 10), "");
  EXPECT_EQ(render_phase_timeline({0, 1}, 0), "");
}

TEST(PhaseTimeline, PhasesBeyondNineUseLetters) {
  const std::vector<std::size_t> assignments{9, 10, 11};
  const std::string strip = render_phase_timeline(assignments, 96);
  EXPECT_NE(strip.find("|9ab|"), std::string::npos);
}

TEST(KSweepReport, MarksChosenRow) {
  cluster::KSweep sweep;
  for (std::size_t k = 1; k <= 3; ++k) {
    cluster::KSweepEntry e;
    e.k = k;
    e.result.inertia = 100.0 / static_cast<double>(k);
    e.silhouette = 0.1 * static_cast<double>(k);
    sweep.entries.push_back(std::move(e));
  }
  const std::string out = render_k_sweep(sweep, 1);
  EXPECT_NE(out.find("WCSS"), std::string::npos);
  // The chosen row (k=2) carries the marker.
  const auto line_start = out.find("\n2 |");
  ASSERT_NE(line_start, std::string::npos);
  const auto line_end = out.find('\n', line_start + 1);
  EXPECT_NE(out.substr(line_start, line_end - line_start).find('*'),
            std::string::npos);
}

TEST(KSweepReport, SilhouetteColumnShowsWhetherSweepWasScored) {
  cluster::KSweep sweep;
  for (std::size_t k = 1; k <= 2; ++k) {
    cluster::KSweepEntry e;
    e.k = k;
    e.result.inertia = 10.0 / static_cast<double>(k);
    sweep.entries.push_back(std::move(e));
  }
  sweep.entries[1].silhouette = 0.25;
  const std::string unscored = render_k_sweep(sweep, 1);
  EXPECT_EQ(unscored.find("0.250"), std::string::npos);
  EXPECT_NE(unscored.find(" - "), std::string::npos);
  sweep.silhouettes_scored = true;
  EXPECT_NE(render_k_sweep(sweep, 1).find("0.250"), std::string::npos);
}

}  // namespace
}  // namespace incprof::core
