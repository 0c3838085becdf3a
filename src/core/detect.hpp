// Phase detection: k-means over interval feature vectors with automatic
// k selection (paper, Section V-A). "Interval data is then clustered
// using the k-means clustering algorithm, and each cluster is interpreted
// as a phase of execution. ... we run k-means for k = 1..8, and then use
// the Elbow method to select the best number of clusters."
#pragma once

#include "cluster/kselect.hpp"
#include "core/features.hpp"

#include <cstdint>
#include <vector>

namespace incprof::util {
class ThreadPool;
}  // namespace incprof::util

namespace incprof::core {

/// Detector configuration.
struct DetectorConfig {
  /// Upper bound of the k sweep. Eight "has worked well" (paper): no
  /// studied application exceeded five phases.
  std::size_t k_max = 8;
  /// k-selection rule; the paper uses the elbow, and also validated
  /// silhouette.
  cluster::KSelection selection = cluster::KSelection::kElbow;
  /// k-means internals.
  std::size_t kmeans_restarts = 8;
  std::size_t kmeans_max_iters = 100;
  std::uint64_t seed = 42;
};

/// Result: the chosen clustering plus the full sweep for diagnostics.
struct PhaseDetection {
  /// Chosen number of phases.
  std::size_t num_phases = 0;
  /// assignments[i] = phase of interval i.
  std::vector<std::size_t> assignments;
  /// Phase centroids in feature space (row c = phase c).
  cluster::Matrix centroids;
  /// Interval indices per phase.
  std::vector<std::vector<std::size_t>> phase_intervals;
  /// The full k sweep (for elbow-curve reporting and ablations). Its
  /// per-k silhouettes are scored only under the silhouette rule.
  cluster::KSweep sweep;
  /// Index into sweep.entries of the chosen k.
  std::size_t chosen_index = 0;
  /// Mean silhouette of the chosen clustering under the silhouette
  /// rule; 0.0 under the elbow, which reads none (callers that want it
  /// call cluster::mean_silhouette on the assignments).
  double silhouette = 0.0;
};

/// Runs the sweep and k selection over a prepared feature space. Under
/// the silhouette rule every k >= 2 is scored; under the elbow rule
/// none is. An optional ThreadPool fans the sweep's (k, restart) grid
/// and the scoring out without changing any result bit (see
/// cluster::sweep_k).
PhaseDetection detect_phases(const FeatureSpace& space,
                             const DetectorConfig& config = {},
                             util::ThreadPool* pool = nullptr);

}  // namespace incprof::core
