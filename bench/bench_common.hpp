// Shared code for the paper benches. `bench_paper <app>` reproduces one
// of the paper's Tables II-VI (discovered instrumentation sites vs the
// manual baseline) and the matching Figure 2-6 (per-interval heartbeat
// series from the discovered and manual sites, as CSV plus an ASCII
// rendering). The table text and the figure CSVs are rendered here into
// strings, so the Reproduction.* tests can pin them against bench/ref/.
#pragma once

#include "apps/harness.hpp"
#include "apps/miniapp.hpp"
#include "core/pipeline.hpp"
#include "ekg/series.hpp"

#include <string>

namespace incprof::bench {

/// Default analysis configuration used by every paper bench: the
/// paper's settings (1 s intervals, k = 1..8 with the elbow rule, 95 %
/// coverage threshold, self-time features, gprof-text data path).
core::PipelineConfig paper_pipeline_config();

/// Default run configuration (1 s dumps, 10 ms sampling, 2 % work
/// jitter, fixed seed).
apps::RunConfig paper_run_config();

/// One of the paper's five reproduced apps: its table and its figure,
/// each with what the paper reports (printed for eyeball comparison).
struct PaperApp {
  const char* app;
  const char* table;  // "Table II" .. "Table VI"
  const char* table_note;
  const char* figure;  // "Figure 2" .. "Figure 6"
  const char* figure_note;
};

/// The paper app named `app` (one of apps::app_names()), or nullptr.
const PaperApp* find_paper_app(const std::string& app);

/// A rendered paper table and the analysis behind it.
struct PaperTable {
  core::PhaseAnalysis analysis;
  /// The site table plus phase/k-sweep diagnostics, as bench_paper
  /// prints it and bench/ref/table_<app>.txt pins it.
  std::string text;
};

/// Collects `paper.app` at paper_run_config() and analyses it with `cfg`.
PaperTable render_table(const PaperApp& paper,
                        const core::PipelineConfig& cfg);

/// The heartbeat series behind one paper figure.
struct PaperFigure {
  ekg::HeartbeatSeries discovered;
  ekg::HeartbeatSeries manual;
};

/// Re-runs `paper.app` instrumented with (a) the discovered `sites` and
/// (b) the paper's manual sites.
PaperFigure run_figure(const PaperApp& paper,
                       const core::SiteSelectionResult& sites);

/// One heartbeat series as CSV (interval, then count and mean duration
/// per lane), as bench/ref/fig_<app>_{discovered,manual}.csv pins it.
std::string render_series_csv(const ekg::HeartbeatSeries& series);

/// The online-tracker ablation over the five paper apps: offline vs
/// online phase count, their ARI, and the online transition model's
/// transitions and mean dwell, as bench_ablation_online prints it and
/// bench/ref/ablation_online.txt pins it.
std::string render_online_ablation();

}  // namespace incprof::bench
