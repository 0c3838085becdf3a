// Reproduces one of the paper's apps end to end: its Table II-VI
// (discovered instrumentation sites vs the manual baseline) and its
// Figure 2-6 (heartbeat series from the discovered and manual sites).
//
// Usage: bench_paper <graph500|minife|miniamr|lammps|gadget>
//
// Prints the table, then the figure as ASCII plots, and writes
// bench/out/table_<app>.txt and bench/out/fig_<app>_{discovered,manual}.csv.
// The committed copies in bench/ref/ are pinned by the Reproduction.*
// tests; EXPERIMENTS.md says how to regenerate them.
#include "bench_common.hpp"

#include "ekg/analysis.hpp"
#include "util/sparkline.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

using namespace incprof;

void print_series(const ekg::HeartbeatSeries& series, const char* heading) {
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

/// Writes bench/out/<name> (relative to the working directory, created
/// on demand; gitignored); returns its path, or "" if it cannot.
std::string write_artifact(const std::string& name,
                           const std::string& text) {
  std::error_code ec;
  std::filesystem::create_directories("bench/out", ec);
  const std::string path = "bench/out/" + name;
  std::ofstream os(path, std::ios::trunc);
  os << text;
  if (!os) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return "";
  }
  return path;
}

void write_series(const ekg::HeartbeatSeries& series,
                  const std::string& name) {
  const std::string path =
      write_artifact(name, bench::render_series_csv(series));
  if (!path.empty()) std::printf("series written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::PaperApp* paper =
      argc == 2 ? bench::find_paper_app(argv[1]) : nullptr;
  if (paper == nullptr) {
    std::fprintf(stderr, "usage: %s <app>, one of:", argv[0]);
    for (const std::string& name : apps::app_names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::string app = paper->app;

  const bench::PaperTable table =
      bench::render_table(*paper, bench::paper_pipeline_config());
  std::fputs(table.text.c_str(), stdout);
  write_artifact("table_" + app + ".txt", table.text);

  std::printf("==== %s: %s phase heartbeats ====\n", paper->figure,
              app.c_str());
  const bench::PaperFigure figure =
      bench::run_figure(*paper, table.analysis.sites);
  print_series(figure.discovered, "-- discovered instrumentation sites --");
  write_series(figure.discovered, "fig_" + app + "_discovered.csv");
  print_series(figure.manual, "-- manual instrumentation sites --");
  write_series(figure.manual, "fig_" + app + "_manual.csv");

  // Quantify the overlap contrast the paper discusses for MiniAMR and
  // Gadget2: discovery avoids simultaneously-active heartbeats, manual
  // selection often does not.
  std::printf(
      "mean pairwise lane overlap (Jaccard): discovered %.3f, manual "
      "%.3f\n",
      ekg::mean_overlap(figure.discovered), ekg::mean_overlap(figure.manual));
  std::printf("paper reports: %s\n\n", paper->figure_note);
  return 0;
}
