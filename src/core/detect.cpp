#include "core/detect.hpp"

#include "cluster/quality.hpp"

namespace incprof::core {

PhaseDetection detect_phases(const FeatureSpace& space,
                             const DetectorConfig& config,
                             util::ThreadPool* pool) {
  cluster::KMeansConfig base;
  base.n_init = config.kmeans_restarts;
  base.max_iters = config.kmeans_max_iters;
  base.seed = config.seed;

  PhaseDetection det;
  det.sweep = cluster::sweep_k(space.features, config.k_max, base, pool);
  if (config.selection == cluster::KSelection::kSilhouette) {
    cluster::score_silhouettes(det.sweep, space.features, pool);
    det.chosen_index = cluster::select_silhouette(det.sweep);
  } else {
    det.chosen_index = cluster::select_elbow(det.sweep);
  }
  const cluster::KSweepEntry& chosen = det.sweep.entries[det.chosen_index];

  det.num_phases = chosen.k;
  det.assignments = chosen.result.assignments;
  det.centroids = chosen.result.centroids;
  // The elbow reads no silhouette, so only the chosen clustering is
  // scored, directly; the value is bitwise the one a scored sweep holds.
  det.silhouette = det.sweep.silhouettes_scored
                       ? chosen.silhouette
                       : cluster::mean_silhouette(space.features,
                                                  det.assignments, nullptr,
                                                  pool);

  det.phase_intervals.assign(det.num_phases, {});
  for (std::size_t i = 0; i < det.assignments.size(); ++i) {
    det.phase_intervals[det.assignments[i]].push_back(i);
  }
  return det;
}

}  // namespace incprof::core
