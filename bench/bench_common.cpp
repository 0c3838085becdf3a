#include "bench_common.hpp"

#include "core/fastphase.hpp"
#include "core/report.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "ekg/analysis.hpp"
#include "util/sparkline.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace incprof::bench {

std::string artifact_path(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench/out", ec);
  if (ec) {
    std::fprintf(stderr, "warning: cannot create bench/out: %s\n",
                 ec.message().c_str());
  }
  return "bench/out/" + name;
}

core::PipelineConfig paper_pipeline_config() {
  core::PipelineConfig cfg;
  cfg.text_round_trip = true;  // the paper parses gprof text reports
  cfg.detector.k_max = 8;
  cfg.selector.coverage_threshold = 0.95;
  return cfg;
}

apps::RunConfig paper_run_config() {
  apps::RunConfig cfg;
  cfg.seed = 7;
  cfg.jitter = 0.02;
  cfg.interval_ns = sim::kNsPerSec;
  cfg.sample_period_ns = 10 * sim::kNsPerMs;
  return cfg;
}

core::PhaseAnalysis run_table_bench(const std::string& app_name,
                                    const std::string& table_name,
                                    const std::string& paper_note) {
  auto app = apps::make_app(app_name, {});
  std::printf("==== %s: %s instrumentation sites ====\n",
              table_name.c_str(), app_name.c_str());

  const apps::ProfiledRun run =
      apps::run_profiled(*app, paper_run_config());
  std::printf("run: %.1f virtual seconds, %zu interval dumps (paper: %.0f "
              "s uninstrumented)\n\n",
              sim::to_seconds(run.runtime_ns), run.snapshots.size(),
              app->nominal_runtime_sec());

  const core::PhaseAnalysis analysis =
      core::analyze_snapshots(run.snapshots, paper_pipeline_config());

  // The elbow rule never scores silhouettes; score a copy for the table.
  cluster::KSweep sweep = analysis.detection.sweep;
  cluster::score_silhouettes(sweep, analysis.features.features, nullptr);
  std::printf("%s\n",
              core::render_k_sweep(sweep, analysis.detection.chosen_index)
                  .c_str());
  std::printf("%s\n",
              core::render_phase_timeline(analysis.detection.assignments)
                  .c_str());
  std::printf("%s\n\n",
              core::diagnose_fast_phases(analysis.intervals).summary()
                  .c_str());
  std::printf("%s\n", core::render_site_table(app_name, analysis.sites,
                                              app->manual_sites())
                          .c_str());
  std::printf("paper reports: %s\n\n", paper_note.c_str());
  return analysis;
}

namespace {

void print_series(const ekg::HeartbeatSeries& series,
                  const char* heading) {
  std::printf("%s\n", heading);
  util::SeriesPlot counts;
  util::SeriesPlot durations;
  for (const auto& lane : series.lanes()) {
    const std::string label =
        "HB" + std::to_string(lane.id) +
        (lane.label.empty() ? "" : " " + lane.label);
    counts.add_series(label, lane.counts);
    durations.add_series(label, lane.mean_duration_us);
  }
  std::printf("heartbeat counts per interval:\n%s",
              counts.render(96).c_str());
  std::printf("mean heartbeat duration per interval:\n%s\n",
              durations.render(96).c_str());
}

void write_series_csv(const ekg::HeartbeatSeries& series,
                      const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  util::CsvWriter w(os);
  std::vector<std::string> header{"interval"};
  for (const auto& lane : series.lanes()) {
    header.push_back("hb" + std::to_string(lane.id) + "_count");
    header.push_back("hb" + std::to_string(lane.id) + "_mean_us");
  }
  w.row(header);
  for (std::size_t i = 0; i < series.num_intervals(); ++i) {
    std::vector<std::string> row{std::to_string(i)};
    for (const auto& lane : series.lanes()) {
      row.push_back(util::format_fixed(lane.counts[i], 0));
      row.push_back(util::format_fixed(lane.mean_duration_us[i], 2));
    }
    w.row(row);
  }
  std::printf("series written to %s\n", path.c_str());
}

}  // namespace

void run_figure_bench(const std::string& app_name,
                      const std::string& figure_name,
                      const std::string& paper_note) {
  std::printf("==== %s: %s phase heartbeats ====\n", figure_name.c_str(),
              app_name.c_str());

  // Step 1: discover sites from an IncProf collection run.
  auto app = apps::make_app(app_name, {});
  const core::PhaseAnalysis analysis = apps::profile_and_analyze(
      *app, paper_run_config(), paper_pipeline_config());
  const auto discovered = apps::to_ekg_sites(analysis.sites);

  // Step 2: instrumented runs — discovered sites and manual sites.
  auto app_d = apps::make_app(app_name, {});
  const apps::HeartbeatRun run_d =
      apps::run_with_heartbeats(*app_d, discovered, paper_run_config());
  print_series(run_d.series, "-- discovered instrumentation sites --");
  write_series_csv(run_d.series,
                   artifact_path("fig_" + app_name + "_discovered.csv"));

  auto app_m = apps::make_app(app_name, {});
  const auto manual = apps::to_ekg_sites(app_m->manual_sites());
  const apps::HeartbeatRun run_m =
      apps::run_with_heartbeats(*app_m, manual, paper_run_config());
  print_series(run_m.series, "-- manual instrumentation sites --");
  write_series_csv(run_m.series,
                   artifact_path("fig_" + app_name + "_manual.csv"));

  // Quantify the overlap contrast the paper discusses for MiniAMR and
  // Gadget2: discovery avoids simultaneously-active heartbeats, manual
  // selection often does not.
  std::printf(
      "mean pairwise lane overlap (Jaccard): discovered %.3f, manual "
      "%.3f\n",
      ekg::mean_overlap(run_d.series), ekg::mean_overlap(run_m.series));
  std::printf("paper reports: %s\n\n", paper_note.c_str());
}

}  // namespace incprof::bench
