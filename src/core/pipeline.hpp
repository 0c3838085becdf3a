// End-to-end IncProf analysis facade: cumulative snapshots in, phases +
// instrumentation sites out. This strings together the steps of Figure 1
// and Section V: (optional gprof-text round trip) -> interval
// differencing -> feature vectors -> k-means sweep + elbow -> rank
// computation -> Algorithm 1 -> optional phase merge.
#pragma once

#include "core/detect.hpp"
#include "core/features.hpp"
#include "core/intervals.hpp"
#include "core/merge.hpp"
#include "core/rank.hpp"
#include "core/sites.hpp"

#include <filesystem>
#include <vector>

namespace incprof::core {

/// Pipeline configuration: one knob set for the whole analysis.
struct PipelineConfig {
  FeatureOptions features;
  DetectorConfig detector;
  SiteSelectorConfig selector;
  /// Round-trip every snapshot through the gprof flat-profile *text*
  /// form before analysis — the paper's actual data path ("invoke the
  /// gprof command line tool ... then process those"). Costs a little
  /// precision in self time (it survives at microsecond resolution) and
  /// drops children time; disable to analyze binary-exact data.
  bool text_round_trip = false;
  /// Sample period recorded in generated text reports, ns.
  std::int64_t sample_period_ns = 10'000'000;
  /// Apply merge_phases_by_sites postprocessing (off by default: the
  /// paper reports results without it and lists it as future work).
  bool merge_phases = false;
  /// Analysis threads: 0 = hardware concurrency, 1 = the serial engine
  /// (the historical code path). Results are bit-identical at any value
  /// for the same seed; threads only change wall time.
  std::size_t threads = 0;
};

/// Everything the analysis produced, kept together for reporting.
struct PhaseAnalysis {
  IntervalData intervals;
  FeatureSpace features;
  PhaseDetection detection;
  RankTable ranks;
  SiteSelectionResult sites;
};

/// Runs the full analysis over cumulative snapshots (ordered by seq).
/// Throws std::invalid_argument when fewer than 2 snapshots are given
/// (no interval can be formed from fewer).
PhaseAnalysis analyze_snapshots(
    const std::vector<gmon::ProfileSnapshot>& snapshots,
    const PipelineConfig& config = {});

/// Convenience: loads binary dumps from a collector directory, converts
/// them through the text form when configured, and analyzes.
PhaseAnalysis analyze_dump_dir(const std::filesystem::path& dir,
                               const PipelineConfig& config = {});

}  // namespace incprof::core
