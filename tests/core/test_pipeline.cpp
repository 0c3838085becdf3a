#include "core/pipeline.hpp"

#include "cluster/quality.hpp"
#include "cluster/simd/simd.hpp"
#include "gmon/binary_io.hpp"
#include "gmon/scanner.hpp"
#include "obs/metrics.hpp"
#include "synthetic.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <unistd.h>

namespace incprof::core {
namespace {

using core::testing::cumulative_from_intervals;
using core::testing::three_phase_workload;

/// Spans recorded so far per pipeline stage (pipeline_stage_ns counts).
std::map<std::string, std::uint64_t> stage_counts() {
  std::map<std::string, std::uint64_t> stages;
  const std::string prefix = "pipeline_stage_ns{stage=\"";
  for (const auto& [key, snap] :
       obs::default_registry().histogram_snapshots()) {
    if (key.rfind(prefix, 0) != 0) continue;
    stages[key.substr(prefix.size(), key.size() - prefix.size() - 2)] =
        snap.count;
  }
  return stages;
}

TEST(Pipeline, RejectsTooFewSnapshots) {
  EXPECT_THROW(analyze_snapshots({}), std::invalid_argument);
  gmon::ProfileSnapshot one(0, 1);
  gmon::FunctionProfile f;
  f.name = "f";
  f.self_ns = 1;
  one.upsert(f);
  EXPECT_THROW(analyze_snapshots({one}), std::invalid_argument);
}

TEST(Pipeline, EndToEndOnSyntheticWorkload) {
  const auto snaps = cumulative_from_intervals(three_phase_workload(20));
  const PhaseAnalysis a = analyze_snapshots(snaps);
  EXPECT_EQ(a.detection.num_phases, 3u);
  EXPECT_EQ(a.sites.phases.size(), 3u);
  // Every phase got at least one site and full coverage on clean data.
  for (const auto& p : a.sites.phases) {
    EXPECT_FALSE(p.sites.empty());
    EXPECT_GE(p.coverage, 0.95);
  }
}

TEST(Pipeline, SelectsExpectedSiteFunctions) {
  const auto snaps = cumulative_from_intervals(three_phase_workload(20));
  const PhaseAnalysis a = analyze_snapshots(snaps);
  std::set<std::string> names;
  std::set<InstType> solve_types;
  for (const auto& p : a.sites.phases) {
    for (const auto& s : p.sites) {
      names.insert(s.function_name);
      if (s.function_name == "solve") solve_types.insert(s.type);
    }
  }
  // init beats helper (fewer calls); solve is the long-running loop;
  // output beats flush (fewer calls).
  EXPECT_TRUE(names.count("init"));
  EXPECT_TRUE(names.count("solve"));
  EXPECT_TRUE(names.count("output"));
  EXPECT_FALSE(names.count("helper"));
  EXPECT_FALSE(names.count("flush"));
  EXPECT_TRUE(solve_types.count(InstType::kLoop));
}

TEST(Pipeline, TextRoundTripMatchesBinaryAnalysis) {
  const auto snaps = cumulative_from_intervals(three_phase_workload(15));
  PipelineConfig direct;
  PipelineConfig text;
  text.text_round_trip = true;
  const PhaseAnalysis a = analyze_snapshots(snaps, direct);
  const PhaseAnalysis b = analyze_snapshots(snaps, text);
  EXPECT_EQ(a.detection.num_phases, b.detection.num_phases);
  EXPECT_EQ(a.detection.assignments, b.detection.assignments);
  ASSERT_EQ(a.sites.phases.size(), b.sites.phases.size());
  for (std::size_t p = 0; p < a.sites.phases.size(); ++p) {
    ASSERT_EQ(a.sites.phases[p].sites.size(),
              b.sites.phases[p].sites.size());
    for (std::size_t s = 0; s < a.sites.phases[p].sites.size(); ++s) {
      EXPECT_EQ(a.sites.phases[p].sites[s].function_name,
                b.sites.phases[p].sites[s].function_name);
      EXPECT_EQ(a.sites.phases[p].sites[s].type,
                b.sites.phases[p].sites[s].type);
    }
  }
}

TEST(Pipeline, ThreadCountNeverChangesTheAnswer) {
  // The parallel engine's contract: --threads trades wall time only.
  // Detection (assignments, phase count, every sweep entry) must be
  // bit-identical between the serial engine and a pooled run.
  const auto snaps = cumulative_from_intervals(three_phase_workload(18));
  PipelineConfig serial;
  serial.threads = 1;
  PipelineConfig pooled;
  pooled.threads = 4;
  const PhaseAnalysis a = analyze_snapshots(snaps, serial);
  const PhaseAnalysis b = analyze_snapshots(snaps, pooled);
  EXPECT_EQ(a.detection.num_phases, b.detection.num_phases);
  EXPECT_EQ(a.detection.assignments, b.detection.assignments);
  EXPECT_EQ(a.detection.chosen_index, b.detection.chosen_index);
  EXPECT_EQ(a.detection.silhouette, b.detection.silhouette);
  ASSERT_EQ(a.detection.sweep.entries.size(),
            b.detection.sweep.entries.size());
  for (std::size_t i = 0; i < a.detection.sweep.entries.size(); ++i) {
    const auto& ea = a.detection.sweep.entries[i];
    const auto& eb = b.detection.sweep.entries[i];
    EXPECT_EQ(ea.k, eb.k);
    EXPECT_EQ(ea.silhouette, eb.silhouette);
    EXPECT_EQ(ea.result.inertia, eb.result.inertia);
    EXPECT_EQ(ea.result.assignments, eb.result.assignments);
  }
}

TEST(Pipeline, SimdTierNeverChangesTheAnswer) {
  // The §6 contract extended to the SIMD dispatch layer: --simd trades
  // wall time only. Every sweep entry must be bit-identical between a
  // forced-scalar run and the host's best tier (which is scalar too on
  // hosts without vector units — the comparison is then trivially true
  // but still exercises the forcing path).
  const auto snaps = cumulative_from_intervals(three_phase_workload(18));
  const cluster::simd::Tier saved = cluster::simd::active_tier();
  ASSERT_TRUE(cluster::simd::set_active_tier(cluster::simd::Tier::kScalar));
  const PhaseAnalysis a = analyze_snapshots(snaps);
  ASSERT_TRUE(cluster::simd::set_active_tier(cluster::simd::detected_tier()));
  const PhaseAnalysis b = analyze_snapshots(snaps);
  cluster::simd::set_active_tier(saved);
  EXPECT_EQ(a.detection.num_phases, b.detection.num_phases);
  EXPECT_EQ(a.detection.assignments, b.detection.assignments);
  EXPECT_EQ(a.detection.chosen_index, b.detection.chosen_index);
  EXPECT_EQ(a.detection.silhouette, b.detection.silhouette);
  ASSERT_EQ(a.detection.sweep.entries.size(),
            b.detection.sweep.entries.size());
  for (std::size_t i = 0; i < a.detection.sweep.entries.size(); ++i) {
    const auto& ea = a.detection.sweep.entries[i];
    const auto& eb = b.detection.sweep.entries[i];
    EXPECT_EQ(ea.k, eb.k);
    EXPECT_EQ(ea.silhouette, eb.silhouette);
    EXPECT_EQ(ea.result.inertia, eb.result.inertia);
    EXPECT_EQ(ea.result.assignments, eb.result.assignments);
  }
}

TEST(Pipeline, ElbowAnalysisScoresNoSilhouette) {
  // The elbow reads inertia alone: neither the per-k silhouettes nor
  // the chosen clustering's are scored, so no pairwise-distance cache
  // is built either (score_silhouettes is the only pipeline code that
  // builds one) and no silhouette stage is timed.
  auto before = stage_counts();
  const auto snaps = cumulative_from_intervals(three_phase_workload(18));
  const PhaseAnalysis a = analyze_snapshots(snaps);
  EXPECT_FALSE(a.detection.sweep.silhouettes_scored);
  for (const auto& e : a.detection.sweep.entries) {
    EXPECT_EQ(e.silhouette, 0.0);
  }
  EXPECT_EQ(a.detection.silhouette, 0.0);
  EXPECT_EQ(stage_counts()["silhouette"], before["silhouette"]);
}

TEST(Pipeline, SilhouetteRuleScoresEverySweptK) {
  const auto snaps = cumulative_from_intervals(three_phase_workload(18));
  PipelineConfig cfg;
  cfg.detector.selection = cluster::KSelection::kSilhouette;
  const PhaseAnalysis a = analyze_snapshots(snaps, cfg);
  ASSERT_TRUE(a.detection.sweep.silhouettes_scored);
  EXPECT_EQ(a.detection.chosen_index,
            cluster::select_silhouette(a.detection.sweep));
  EXPECT_EQ(a.detection.silhouette,
            a.detection.sweep.entries[a.detection.chosen_index].silhouette);
  EXPECT_EQ(a.detection.num_phases, 3u);
}

TEST(Pipeline, StageHistogramsNameTheCodeTheyTime) {
  // One analysis of each shape touches every stage once: a binary dump
  // directory (load_binary_dumps) under the silhouette rule
  // (silhouette), and an in-memory text round trip under the elbow.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("incprof_pipe_" + std::to_string(::getpid()) + "_stages");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const auto& s : cumulative_from_intervals(three_phase_workload(10))) {
    gmon::write_binary_file(s, dir / gmon::binary_dump_name(s.seq()));
  }
  const auto before = stage_counts();
  PipelineConfig silhouette_cfg;
  silhouette_cfg.detector.selection = cluster::KSelection::kSilhouette;
  (void)analyze_dump_dir(dir, silhouette_cfg);
  std::filesystem::remove_all(dir);
  PipelineConfig cfg;
  cfg.text_round_trip = true;
  (void)analyze_snapshots(
      cumulative_from_intervals(three_phase_workload(10)), cfg);

  std::map<std::string, std::uint64_t> stages = stage_counts();
  for (const auto& [stage, n] : before) stages[stage] -= n;
  std::erase_if(stages, [](const auto& kv) { return kv.second == 0; });
  EXPECT_EQ(stages, (std::map<std::string, std::uint64_t>{
                        {"load_binary_dumps", 1},
                        {"text_round_trip", 1},
                        {"differencing", 2},
                        {"features", 2},
                        {"kmeans_sweep", 2},
                        {"silhouette", 1},
                        {"rank", 2},
                        {"site_selection", 2}}));
}

TEST(Pipeline, MergeOptionCombinesSameSitePhases) {
  // Alternating A/B segments: k-means may split A into two clusters; the
  // merge postprocessing must leave at most one phase per site set.
  std::vector<core::testing::IntervalSpec> intervals;
  for (int seg = 0; seg < 4; ++seg) {
    for (int i = 0; i < 10; ++i) {
      if (seg % 2 == 0) {
        intervals.push_back({{"A", {0.9 + 0.05 * seg, 0}}});
      } else {
        intervals.push_back({{"B", {0.9, 1}}});
      }
    }
  }
  PipelineConfig cfg;
  cfg.merge_phases = true;
  const PhaseAnalysis a =
      analyze_snapshots(cumulative_from_intervals(intervals), cfg);
  std::set<std::set<std::string>> site_sets;
  for (const auto& p : a.sites.phases) {
    std::set<std::string> names;
    for (const auto& s : p.sites) names.insert(s.function_name);
    EXPECT_TRUE(site_sets.insert(names).second)
        << "two phases share a site set after merging";
  }
}

TEST(Pipeline, AnalyzeDumpDirBinary) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("incprof_pipe_" + std::to_string(::getpid()) + "_bin");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto snaps = cumulative_from_intervals(three_phase_workload(10));
  for (const auto& s : snaps) {
    gmon::write_binary_file(s, dir / gmon::binary_dump_name(s.seq()));
  }
  const PhaseAnalysis a = analyze_dump_dir(dir);
  EXPECT_EQ(a.detection.num_phases, 3u);
  std::filesystem::remove_all(dir);
}

TEST(Pipeline, AnalyzeDumpDirTextPath) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("incprof_pipe_" + std::to_string(::getpid()) + "_txt");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto snaps = cumulative_from_intervals(three_phase_workload(10));
  for (const auto& s : snaps) {
    gmon::write_binary_file(s, dir / gmon::binary_dump_name(s.seq()));
  }
  PipelineConfig cfg;
  cfg.text_round_trip = true;
  const PhaseAnalysis a = analyze_dump_dir(dir, cfg);
  EXPECT_EQ(a.detection.num_phases, 3u);
  // The gprof-report conversion artifacts must exist on disk.
  EXPECT_TRUE(std::filesystem::exists(dir / gmon::text_dump_name(0)));
  std::filesystem::remove_all(dir);
}

TEST(Pipeline, ChosenSweepIndexConsistent) {
  const auto snaps = cumulative_from_intervals(three_phase_workload(12));
  const PhaseAnalysis a = analyze_snapshots(snaps);
  ASSERT_LT(a.detection.chosen_index, a.detection.sweep.entries.size());
  EXPECT_EQ(a.detection.sweep.entries[a.detection.chosen_index].k,
            a.detection.num_phases);
}

}  // namespace
}  // namespace incprof::core
