// live_tracking — the deployment-side streaming scenario: the IncProf
// collector produces one cumulative dump per second; a monitor consumes
// each dump the moment it appears, tracks phases online, and logs phase
// transitions in real time (here: as the virtual run unfolds). At the
// end it prints the first-order phase-transition model — dwell times,
// occupancy, and likely successors.
//
// Usage: live_tracking [app]

#include "apps/harness.hpp"
#include "apps/miniapp.hpp"
#include "core/online.hpp"
#include "core/transitions.hpp"

#include <cstdio>
#include <string>

using namespace incprof;

int main(int argc, char** argv) {
  const std::string app_name = argc > 1 ? argv[1] : "graph500";

  auto app = apps::make_app(app_name, {});
  std::printf("collecting %s with 1-second incremental profiles...\n\n",
              app_name.c_str());
  const apps::ProfiledRun run = apps::run_profiled(*app);

  // Stream the dumps through the online tracker as a monitor would. A
  // window as long as the run keeps every interval's assignment for the
  // transition model below.
  core::OnlineConfig cfg;
  cfg.assignment_window = run.snapshots.size();
  core::OnlinePhaseTracker tracker(cfg);
  std::printf("live phase log:\n");
  for (const auto& snap : run.snapshots) {
    const core::OnlineObservation obs = tracker.observe(snap);
    if (obs.new_phase) {
      std::printf("  t=%4zus  NEW phase %zu discovered\n", obs.interval,
                  obs.phase);
    } else if (obs.transition) {
      std::printf("  t=%4zus  transition -> phase %zu (distance %.2f)\n",
                  obs.interval, obs.phase, obs.distance);
    }
  }
  std::printf("\n%zu intervals, %zu phases, sizes:", tracker.num_intervals(),
              tracker.num_phases());
  for (const auto s : tracker.phase_sizes()) std::printf(" %zu", s);
  std::printf("\n\n");

  // Model over phase slots: a merged-away slot keeps its id in the
  // assignment stream.
  const auto model = core::PhaseTransitionModel::from_assignments(
      tracker.recent_assignments(), tracker.num_phase_slots());
  std::printf("phase-transition model:\n%s\n", model.render().c_str());
  for (std::size_t p = 0; p < model.num_phases(); ++p) {
    const std::size_t next = model.likely_successor(p);
    if (next < model.num_phases()) {
      std::printf("phase %zu typically hands off to phase %zu\n", p, next);
    } else {
      std::printf("phase %zu has no recorded successor (terminal)\n", p);
    }
  }
  return 0;
}
