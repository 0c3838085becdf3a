#include "core/pipeline.hpp"

#include "gmon/flat_text.hpp"
#include "gmon/scanner.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

#include <memory>
#include <stdexcept>

namespace incprof::core {

namespace {

/// Stage-latency histogram in the global registry, shared by every
/// analysis run in the process so benches and the daemon can report
/// per-stage percentiles (references are stable; resolving per call is
/// fine, the stages themselves are milliseconds).
obs::Histogram& stage_hist(const char* stage) {
  return obs::default_registry().histogram("pipeline_stage_ns",
                                           {{"stage", stage}});
}

std::vector<gmon::ProfileSnapshot> round_trip_text(
    const std::vector<gmon::ProfileSnapshot>& snapshots,
    std::int64_t sample_period_ns) {
  gmon::FlatTextOptions opts;
  opts.sample_period_ns = sample_period_ns;
  std::vector<gmon::ProfileSnapshot> out;
  out.reserve(snapshots.size());
  for (const auto& snap : snapshots) {
    const std::string text = gmon::format_flat_profile(snap, opts);
    gmon::ProfileSnapshot parsed = gmon::parse_flat_profile(text);
    parsed.set_seq(snap.seq());
    parsed.set_timestamp_ns(snap.timestamp_ns());
    out.push_back(std::move(parsed));
  }
  return out;
}

}  // namespace

PhaseAnalysis analyze_snapshots(
    const std::vector<gmon::ProfileSnapshot>& snapshots,
    const PipelineConfig& config) {
  if (snapshots.size() < 2) {
    throw std::invalid_argument(
        "analyze_snapshots: need at least 2 cumulative snapshots");
  }

  PhaseAnalysis a;
  {
    std::vector<gmon::ProfileSnapshot> round_tripped;
    if (config.text_round_trip) {
      obs::ScopedSpan span("pipeline.text_round_trip", "analysis",
                           &stage_hist("text_round_trip"));
      round_tripped = round_trip_text(snapshots, config.sample_period_ns);
    }
    obs::ScopedSpan span("pipeline.differencing", "analysis",
                         &stage_hist("differencing"));
    a.intervals = IntervalData::from_cumulative(
        config.text_round_trip ? round_tripped : snapshots);
  }
  {
    obs::ScopedSpan span("pipeline.features", "analysis",
                         &stage_hist("features"));
    a.features = build_features(a.intervals, config.features);
  }
  // Pool for the clustering stage (nullptr = serial engine).
  std::unique_ptr<util::ThreadPool> pool =
      util::ThreadPool::create(config.threads);
  // detect_phases opens the kmeans_sweep and silhouette stages itself.
  a.detection = detect_phases(a.features, config.detector, pool.get());
  {
    obs::ScopedSpan span("pipeline.rank", "analysis", &stage_hist("rank"));
    a.ranks = RankTable::compute(a.intervals, a.detection);
  }
  {
    obs::ScopedSpan span("pipeline.site_selection", "analysis",
                         &stage_hist("site_selection"));
    a.sites = select_sites(a.intervals, a.features, a.detection, a.ranks,
                           config.selector);
    if (config.merge_phases) {
      a.sites = merge_phases_by_sites(a.sites, a.intervals);
    }
  }
  return a;
}

PhaseAnalysis analyze_dump_dir(const std::filesystem::path& dir,
                               const PipelineConfig& config) {
  if (config.text_round_trip) {
    // The on-disk variant of the paper's flow: convert each binary dump
    // to a gprof text report, then parse those.
    gmon::convert_dumps_to_text(dir, config.sample_period_ns);
    PipelineConfig inner = config;
    inner.text_round_trip = false;  // already through text on disk
    return analyze_snapshots(gmon::load_text_dumps(dir), inner);
  }
  std::vector<gmon::ProfileSnapshot> snapshots;
  {
    obs::ScopedSpan span("pipeline.load_binary_dumps", "analysis",
                         &stage_hist("load_binary_dumps"));
    snapshots = gmon::load_binary_dumps(dir);
  }
  return analyze_snapshots(snapshots, config);
}

}  // namespace incprof::core
