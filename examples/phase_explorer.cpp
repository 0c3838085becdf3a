// phase_explorer — run the full IncProf pipeline on one of the bundled
// mini-apps and print everything the analysis produced: the k-means
// sweep with the elbow choice, the per-phase summary, and the paper-style
// instrumentation-site table with the manual comparison sites.
//
// Usage: phase_explorer [app] [--merge] [--text-roundtrip]
//                        [--standardize] [--silhouette]
//   app defaults to graph500; see `phase_explorer --list`.

#include "apps/harness.hpp"
#include "apps/miniapp.hpp"
#include "core/fastphase.hpp"
#include "core/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

int main(int argc, char** argv) {
  using namespace incprof;

  std::string app_name = "graph500";
  double compute_scale = 1.0;
  core::PipelineConfig pipe;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) {
      for (const auto& n : apps::app_names()) std::printf("%s\n", n.c_str());
      return 0;
    }
    if (std::strcmp(argv[i], "--merge") == 0) {
      pipe.merge_phases = true;
    } else if (std::strcmp(argv[i], "--standardize") == 0) {
      pipe.features.standardize = true;
    } else if (std::strcmp(argv[i], "--silhouette") == 0) {
      pipe.detector.selection = cluster::KSelection::kSilhouette;
    } else if (std::strcmp(argv[i], "--text-roundtrip") == 0) {
      pipe.text_round_trip = true;
    } else if (std::strncmp(argv[i], "--compute-scale=", 16) == 0) {
      compute_scale = std::atof(argv[i] + 16);
    } else {
      app_name = argv[i];
    }
  }

  apps::AppParams params;
  params.compute_scale = compute_scale;
  auto app = apps::make_app(app_name, params);

  std::printf("== %s: collecting 1-second incremental profiles ==\n",
              app->name().c_str());
  const apps::RunConfig run_cfg;
  const apps::ProfiledRun run = apps::run_profiled(*app, run_cfg);
  std::printf("virtual runtime: %.1f s (%zu interval dumps)\n",
              sim::to_seconds(run.runtime_ns), run.snapshots.size());

  const core::PhaseAnalysis analysis =
      core::analyze_snapshots(run.snapshots, pipe);

  // The elbow rule never scores silhouettes; score a copy for the table.
  cluster::KSweep sweep = analysis.detection.sweep;
  cluster::score_silhouettes(sweep, analysis.features.features, nullptr);
  std::printf("\n== k selection (elbow over WCSS) ==\n%s",
              core::render_k_sweep(sweep, analysis.detection.chosen_index)
                  .c_str());
  std::printf("\n== fast-phase diagnosis ==\n%s\n",
              core::diagnose_fast_phases(analysis.intervals).summary()
                  .c_str());
  std::printf("\n== phase timeline ==\n%s",
              core::render_phase_timeline(analysis.detection.assignments)
                  .c_str());
  std::printf("\n== phases ==\n%s",
              core::render_phase_summary(analysis.sites).c_str());
  std::printf("\n== instrumentation sites ==\n%s",
              core::render_site_table(app->name(), analysis.sites,
                                      app->manual_sites())
                  .c_str());
  return 0;
}
