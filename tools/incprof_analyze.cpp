// incprof_analyze — the offline analysis tool of the IncProf framework:
// point it at a directory of per-interval profile dumps (gmon-NNNNNN.out
// binary files from the collector, or flat-NNNNNN.txt gprof reports) and
// it prints the k-selection diagnostics, the detected phases, and the
// Algorithm 1 instrumentation-site table.
//
// Usage:
//   incprof_analyze <dump_dir> [options]
//
// Options:
//   --text             parse flat-*.txt reports (converting binary dumps
//                      first if needed) — the paper's gprof-text path
//   --merge            merge phases with identical site functions
//   --silhouette       select k by silhouette instead of the elbow
//   --standardize      z-score feature columns before clustering
//   --threshold <f>    coverage threshold for site selection (default .95)
//   --kmax <n>         upper bound of the k sweep (default 8)
//   --threads <n>      analysis threads: 0 = hardware concurrency
//                      (default), 1 = serial; results are identical at
//                      any value, only wall time changes
//   --simd <tier>      distance-kernel tier: auto (default, best the
//                      CPU supports), avx2, neon, or scalar; every
//                      tier is bit-identical, only wall time changes
//   --lift <file>      lift sites using a binary call-graph snapshot
//   --csv <file>       also write the per-interval feature matrix as CSV
//   --online           additionally replay the dumps through the
//                      online tracker and print the transition model
//   --streaming        use the bounded streaming tracker for the
//                      --online replay (hash-sketched features, EWMA
//                      centroids, online merges); implies --online
//   --sketch-width <n> feature sketch width with --streaming
//                      (default 256)

#include "cluster/simd/simd.hpp"
#include "core/fastphase.hpp"
#include "core/lift.hpp"
#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/transitions.hpp"
#include "gmon/callgraph.hpp"
#include "gmon/scanner.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

using namespace incprof;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <dump_dir> [--text] [--merge] [--silhouette] [--online] "
               "[--streaming] [--sketch-width n] "
               "[--standardize] [--threshold f] [--kmax n] [--threads n] "
               "[--simd auto|avx2|neon|scalar] "
               "[--lift callgraph.bin] [--csv intervals.csv] "
               "[--quiet] [--verbose]\n",
               argv0);
  return 2;
}

void write_intervals_csv(const core::IntervalData& data,
                         const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    util::log_error("cannot write " + path);
    return;
  }
  util::CsvWriter w(os);
  std::vector<std::string> header{"interval"};
  for (const auto& name : data.function_names()) {
    header.push_back(name + "_self_s");
    header.push_back(name + "_calls");
  }
  w.row(header);
  for (std::size_t i = 0; i < data.num_intervals(); ++i) {
    std::vector<std::string> row{std::to_string(i)};
    for (std::size_t f = 0; f < data.num_functions(); ++f) {
      row.push_back(util::format_fixed(data.self_seconds().at(i, f), 6));
      row.push_back(util::format_fixed(data.calls().at(i, f), 0));
    }
    w.row(row);
  }
  util::log_info("interval matrix written to " + path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string dump_dir = argv[1];

  core::PipelineConfig cfg;
  core::OnlineConfig online_cfg;
  std::string lift_path;
  std::string csv_path;
  bool online = false;
  util::set_log_level(util::LogLevel::kInfo);
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--text") == 0) {
      cfg.text_round_trip = true;
    } else if (std::strcmp(arg, "--merge") == 0) {
      cfg.merge_phases = true;
    } else if (std::strcmp(arg, "--silhouette") == 0) {
      cfg.detector.selection = cluster::KSelection::kSilhouette;
    } else if (std::strcmp(arg, "--standardize") == 0) {
      cfg.features.standardize = true;
    } else if (std::strcmp(arg, "--threshold") == 0 && i + 1 < argc) {
      cfg.selector.coverage_threshold = std::atof(argv[++i]);
    } else if (std::strcmp(arg, "--kmax") == 0 && i + 1 < argc) {
      std::int64_t kmax = 0;
      if (!util::parse_int(argv[++i], 1, 1024, kmax)) {
        std::fprintf(stderr,
                     "--kmax: invalid value '%s' (expected integer in "
                     "[1, 1024])\n",
                     argv[i]);
        return 2;
      }
      cfg.detector.k_max = static_cast<std::size_t>(kmax);
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      std::int64_t threads = 0;
      if (!util::parse_int(argv[++i], 0, 1024, threads)) {
        std::fprintf(stderr,
                     "--threads: invalid value '%s' (expected integer in "
                     "[0, 1024]; 0 = hardware concurrency)\n",
                     argv[i]);
        return 2;
      }
      cfg.threads = static_cast<std::size_t>(threads);
    } else if (std::strcmp(arg, "--simd") == 0 && i + 1 < argc) {
      cluster::simd::Tier tier;
      if (!cluster::simd::parse_tier(argv[++i], tier)) {
        std::fprintf(stderr,
                     "--simd: invalid tier '%s' (expected auto, avx2, "
                     "neon, or scalar)\n",
                     argv[i]);
        return 2;
      }
      if (!cluster::simd::set_active_tier(tier)) {
        std::fprintf(stderr,
                     "--simd: tier '%s' is not supported on this CPU "
                     "(detected: %s)\n",
                     argv[i],
                     cluster::simd::tier_name(cluster::simd::detected_tier()));
        return 2;
      }
    } else if (std::strcmp(arg, "--lift") == 0 && i + 1 < argc) {
      lift_path = argv[++i];
    } else if (std::strcmp(arg, "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(arg, "--online") == 0) {
      online = true;
    } else if (std::strcmp(arg, "--streaming") == 0) {
      online = true;
      online_cfg.streaming = true;
    } else if (std::strcmp(arg, "--sketch-width") == 0 && i + 1 < argc) {
      std::int64_t width = 0;
      if (!util::parse_int(argv[++i], 1, 1 << 20, width)) {
        std::fprintf(stderr,
                     "--sketch-width: invalid value '%s' (expected "
                     "integer in [1, %d])\n",
                     argv[i], 1 << 20);
        return 2;
      }
      online_cfg.sketch_width = static_cast<std::size_t>(width);
    } else if (std::strcmp(arg, "--quiet") == 0) {
      util::set_log_level(util::LogLevel::kError);
    } else if (std::strcmp(arg, "--verbose") == 0) {
      util::set_log_level(util::LogLevel::kDebug);
    } else {
      return usage(argv[0]);
    }
  }

  try {
    const core::PhaseAnalysis analysis =
        core::analyze_dump_dir(dump_dir, cfg);

    std::printf("%zu intervals, %zu profiled functions, total self time "
                "%.1f s\n\n",
                analysis.intervals.num_intervals(),
                analysis.intervals.num_functions(),
                analysis.intervals.total_self_seconds());
    std::printf("%s\n\n",
                core::diagnose_fast_phases(analysis.intervals).summary()
                    .c_str());
    // The report prints every k's silhouette, which the elbow rule
    // never computes: score a copy of the sweep just for the table.
    cluster::KSweep sweep = analysis.detection.sweep;
    cluster::score_silhouettes(sweep, analysis.features.features,
                               util::ThreadPool::create(cfg.threads).get());
    std::printf("%s\n", core::render_k_sweep(sweep,
                                             analysis.detection.chosen_index)
                            .c_str());
    std::printf("%s\n",
                core::render_phase_summary(analysis.sites).c_str());

    core::SiteSelectionResult sites = analysis.sites;
    if (!lift_path.empty()) {
      std::ifstream is(lift_path, std::ios::binary);
      if (!is) {
        util::log_error("cannot read " + lift_path);
        return 1;
      }
      const std::string bytes((std::istreambuf_iterator<char>(is)),
                              std::istreambuf_iterator<char>());
      const auto graph = gmon::decode_call_graph(bytes);
      const core::LiftResult lifted = core::lift_sites(sites, graph);
      for (const auto& d : lifted.decisions) {
        std::printf("lifted (phase %zu): %s -> %s\n", d.phase,
                    d.original.c_str(), d.lifted_to.c_str());
      }
      sites = lifted.sites;
    }
    std::printf("%s\n",
                core::render_site_table(dump_dir, sites, {}).c_str());

    if (!csv_path.empty()) {
      write_intervals_csv(analysis.intervals, csv_path);
    }

    if (online) {
      auto dumps = gmon::load_binary_dumps(dump_dir);
      // The offline tool replays bounded sessions: size the streaming
      // window to cover the whole replay so the transition model sees
      // every interval.
      online_cfg.assignment_window =
          std::max<std::size_t>(online_cfg.assignment_window, dumps.size());
      core::OnlinePhaseTracker tracker(online_cfg);
      for (auto& snap : dumps) tracker.observe(std::move(snap));
      // Model over phase *slots*: streaming merges keep historical slot
      // ids in the assignment stream.
      const auto model = core::PhaseTransitionModel::from_assignments(
          tracker.recent_assignments(), tracker.num_phase_slots());
      std::printf("streaming replay (%s): %zu phases, %zu transitions",
                  online_cfg.streaming ? "sketched" : "exact",
                  tracker.num_phases(), model.num_transitions());
      if (online_cfg.streaming) {
        std::printf(", sketch width %zu, DB %.3f, ~%zu KiB state",
                    online_cfg.sketch_width, tracker.davies_bouldin(),
                    tracker.state_bytes() / 1024);
      }
      std::printf("\n%s\n", model.render().c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
