// Ablation: elbow vs silhouette k selection (paper, Section V-A: "Both
// the elbow and silhouette methods, of which we both experimented with,
// are established quantitative methods for selecting k"). For every app
// the sweep is fitted once and both rules are applied to it, so the
// comparison is on identical k-means fits.
#include "bench_common.hpp"

#include "cluster/kselect.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <cstdio>

int main() {
  using namespace incprof;
  std::printf("==== Ablation: k-selection rule (elbow vs silhouette) ====\n\n");

  util::TextTable t;
  t.set_header({"App", "paper k", "elbow k", "silhouette k",
                "elbow silh.", "silh. silh."});
  for (std::size_t c = 1; c < 6; ++c) t.set_align(c, util::Align::kRight);

  for (const auto& name : apps::app_names()) {
    auto app = apps::make_app(name, {});
    const apps::ProfiledRun run =
        apps::run_profiled(*app, bench::paper_run_config());
    const auto analysis = core::analyze_snapshots(
        run.snapshots, bench::paper_pipeline_config());

    // The pipeline ran the elbow rule, which leaves silhouettes unscored.
    cluster::KSweep sweep = analysis.detection.sweep;
    cluster::score_silhouettes(sweep, analysis.features.features, nullptr);
    const std::size_t ei = cluster::select_elbow(sweep);
    const std::size_t si = cluster::select_silhouette(sweep);
    t.add_row({name, std::to_string(app->paper_phases()),
               std::to_string(sweep.entries[ei].k),
               std::to_string(sweep.entries[si].k),
               util::format_fixed(sweep.entries[ei].silhouette, 3),
               util::format_fixed(sweep.entries[si].silhouette, 3)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("expectation: both rules land in the same neighbourhood; "
              "silhouette may prefer finer clusterings (higher k) on "
              "well-separated data. The paper ships the elbow.\n");
  return 0;
}
