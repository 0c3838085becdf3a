#include "bench_common.hpp"

#include "cluster/quality.hpp"
#include "core/fastphase.hpp"
#include "core/online.hpp"
#include "core/report.hpp"
#include "core/transitions.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <sstream>

namespace incprof::bench {

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

const PaperApp* find_paper_app(const std::string& app) {
  static const PaperApp kApps[] = {
      {"graph500", "Table II",
       "4 phases; validate_bfs_result loop (98.1% phase / 62.2% app), "
       "run_bfs body (13.2% app) + loop (12.3% app), make_one_edge body "
       "(10.8% app); manual sites make_graph_data_structure, "
       "generate_kronecker_range, run_bfs, validate_bfs_result (all body)",
       "Figure 2",
       "manual sites run longer than the 1 s interval and leave gaps "
       "(heartbeats land only in the interval they finish in); the "
       "discovered make_one_edge site fills the initialization phase "
       "without gaps; run_bfs and validate alternate through the trials"},
      {"minife", "Table III",
       "5 phases; sum_in_symm_elem_matrix body (19.5% app), cg_solve loop "
       "in two phases (43.7% + 20.5% app), init_matrix loop (10.1%), "
       "generate_matrix_structure loop (0.7%), impose_dirichlet loop "
       "(4.4%), make_local_matrix loop (0.6%); manual sites cg_solve, "
       "perform_elem_loop, init_matrix, impose_dirichlet, "
       "make_local_matrix (all loop)",
       "Figure 3",
       "discovered heartbeats nearly identical to manual; cg_solve "
       "dominates the second half (its count oscillates 0/1 per interval "
       "so the region appears almost solid), with the four preparation "
       "phases in sequence before it"},
      {"miniamr", "Table IV",
       "2 phases; check_sum body (100% phase / 89.1% app); deviation phase "
       "with allocate loop (33.8%/3.7%), pack_block body (32.4%/3.5%), "
       "unpack_block body (26.5%/2.9%); manual sites check_sum, "
       "stencil_calc, comm (all body)",
       "Figure 4",
       "manual sites (check_sum, stencil_calc, comm) are simultaneously "
       "active and overlap; the discovered deviation-phase heartbeats "
       "(allocate, pack/unpack) isolate the mid-run mesh adaptation and "
       "the periodic heavy communication steps"},
      {"lammps", "Table V",
       "4 phases; PairLJCut::compute loop in two phases (55.7% + 34.1% "
       "app, ~90% together), NPairHalf::build loop (7.7%) + body (1.3%), "
       "Velocity::create loop (1.1%); manual sites PairLJCut::compute and "
       "NPairHalf::build (both body)",
       "Figure 5",
       "dominated by PairLJCut::compute with short periodic "
       "NPairHalf::build episodes; Velocity::create fires only at startup "
       "(an initialization function); the discovered plot subsumes the "
       "manual sites"},
      {"gadget", "Table VI",
       "3 phases; force_treeevaluate_shortrange body in two phases (44.9% "
       "+ 24.7% app), pm_setup_nonperiodic_kernel body (28.6%), "
       "force_update_node_recursive body (1.8%); none of the four manual "
       "timestep wrappers (find_next_sync_point_and_drift, "
       "domain_decomposition, compute_accelerations, "
       "advance_and_find_timesteps) is discovered",
       "Figure 6",
       "the four manual timestep wrappers overlap almost completely (each "
       "is called once per sub-second step); the discovered sites are all "
       "callees of compute_accelerations, with the PM kernel recurring "
       "periodically — the paper's fast-phase hard case"},
  };
  for (const PaperApp& paper : kApps) {
    if (app == paper.app) return &paper;
  }
  return nullptr;
}

PaperTable render_table(const PaperApp& paper,
                        const core::PipelineConfig& cfg) {
  auto app = apps::make_app(paper.app, {});
  const apps::ProfiledRun run =
      apps::run_profiled(*app, paper_run_config());

  PaperTable out;
  out.analysis = core::analyze_snapshots(run.snapshots, cfg);
  const core::PhaseAnalysis& analysis = out.analysis;

  // The elbow rule never scores silhouettes; score a copy for the table.
  cluster::KSweep sweep = analysis.detection.sweep;
  cluster::score_silhouettes(sweep, analysis.features.features, nullptr);

  std::string& text = out.text;
  text = "==== " + std::string(paper.table) + ": " + paper.app +
         " instrumentation sites ====\n";
  text += "run: " + util::format_fixed(sim::to_seconds(run.runtime_ns), 1) +
          " virtual seconds, " + std::to_string(run.snapshots.size()) +
          " interval dumps (paper: " +
          util::format_fixed(app->nominal_runtime_sec(), 0) +
          " s uninstrumented)\n\n";
  text += core::render_k_sweep(sweep, analysis.detection.chosen_index) +
          "\n";
  text += core::render_phase_timeline(analysis.detection.assignments) +
          "\n";
  text += core::diagnose_fast_phases(analysis.intervals).summary() +
          "\n\n";
  text += core::render_site_table(paper.app, analysis.sites,
                                  app->manual_sites()) +
          "\n";
  text += "paper reports: " + std::string(paper.table_note) + "\n\n";
  return out;
}

PaperFigure run_figure(const PaperApp& paper,
                       const core::SiteSelectionResult& sites) {
  PaperFigure out;
  auto app_d = apps::make_app(paper.app, {});
  const auto discovered = apps::to_ekg_sites(sites);
  out.discovered =
      apps::run_with_heartbeats(*app_d, discovered, paper_run_config()).series;
  auto app_m = apps::make_app(paper.app, {});
  const auto manual = apps::to_ekg_sites(app_m->manual_sites());
  out.manual =
      apps::run_with_heartbeats(*app_m, manual, paper_run_config()).series;
  return out;
}

std::string render_series_csv(const ekg::HeartbeatSeries& series) {
  std::ostringstream os;
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
  return os.str();
}

std::string render_online_ablation() {
  util::TextTable t;
  t.set_header({"App", "offline k", "online k", "ARI(off,on)",
                "transitions", "mean dwell (s)"});
  for (std::size_t c = 1; c < 6; ++c) t.set_align(c, util::Align::kRight);

  for (const auto& name : apps::app_names()) {
    auto app = apps::make_app(name, {});
    const apps::ProfiledRun run = apps::run_profiled(*app, paper_run_config());
    const auto offline =
        core::analyze_snapshots(run.snapshots, paper_pipeline_config());

    // A window as long as the run keeps every interval's assignment.
    core::OnlineConfig cfg;
    cfg.assignment_window = run.snapshots.size();
    core::OnlinePhaseTracker tracker(cfg);
    for (const auto& snap : run.snapshots) tracker.observe(snap);
    const auto assignments = tracker.recent_assignments();

    const double ari = cluster::adjusted_rand_index(
        offline.detection.assignments, assignments);

    // Model over phase slots: a merged-away slot keeps its id in the
    // assignment stream.
    const auto model = core::PhaseTransitionModel::from_assignments(
        assignments, tracker.num_phase_slots());
    double dwell = 0.0;
    for (std::size_t p = 0; p < model.num_phases(); ++p) {
      dwell += model.mean_dwell(p) * model.occupancy(p);
    }

    t.add_row({name, std::to_string(offline.detection.num_phases),
               std::to_string(tracker.num_phases()),
               util::format_fixed(ari, 3),
               std::to_string(model.num_transitions()),
               util::format_fixed(dwell, 1)});
  }
  return "==== Ablation: offline k-means vs online leader clustering "
         "====\n\n" +
         t.render() +
         "\nexpectation: the streaming tracker recovers the offline phase "
         "structure (high ARI) one dump at a time with bounded memory — the "
         "property a deployed IncProf needs.\n";
}

}  // namespace incprof::bench
