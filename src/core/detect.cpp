#include "core/detect.hpp"

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace incprof::core {

PhaseDetection detect_phases(const FeatureSpace& space,
                             const DetectorConfig& config,
                             util::ThreadPool* pool) {
  cluster::KMeansConfig base;
  base.n_init = config.kmeans_restarts;
  base.max_iters = config.kmeans_max_iters;
  base.seed = config.seed;

  // Each span times exactly the step it names: the Lloyd grid, then
  // (under the silhouette rule only) the per-k scoring.
  const auto stage = [](const char* name) -> obs::Histogram& {
    return obs::default_registry().histogram("pipeline_stage_ns",
                                             {{"stage", name}});
  };
  PhaseDetection det;
  {
    obs::ScopedSpan span("pipeline.kmeans_sweep", "analysis",
                         &stage("kmeans_sweep"));
    det.sweep = cluster::sweep_k(space.features, config.k_max, base, pool);
  }
  if (config.selection == cluster::KSelection::kSilhouette) {
    {
      obs::ScopedSpan span("pipeline.silhouette", "analysis",
                           &stage("silhouette"));
      cluster::score_silhouettes(det.sweep, space.features, pool);
    }
    det.chosen_index = cluster::select_silhouette(det.sweep);
  } else {
    det.chosen_index = cluster::select_elbow(det.sweep);
  }
  const cluster::KSweepEntry& chosen = det.sweep.entries[det.chosen_index];

  det.num_phases = chosen.k;
  det.assignments = chosen.result.assignments;
  det.centroids = chosen.result.centroids;
  det.silhouette = chosen.silhouette;  // 0.0 unless the rule scored it

  det.phase_intervals.assign(det.num_phases, {});
  for (std::size_t i = 0; i < det.assignments.size(); ++i) {
    det.phase_intervals[det.assignments[i]].push_back(i);
  }
  return det;
}

}  // namespace incprof::core
