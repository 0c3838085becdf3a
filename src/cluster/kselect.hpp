// Selecting k for k-means. The paper runs k = 1..8 and picks k with the
// Elbow method; it also evaluated the silhouette method (Section V-A).
// Both are implemented here over a single shared k-sweep so the ablation
// bench can compare them on identical fits.
#pragma once

#include "cluster/kmeans.hpp"

#include <vector>

namespace incprof::cluster {

class DistanceCache;

/// Which quantitative k-selection rule to apply to the sweep.
enum class KSelection { kElbow, kSilhouette };

/// One fitted k from the sweep.
struct KSweepEntry {
  std::size_t k = 0;
  KMeansResult result;
  /// Mean silhouette of this fit, filled in by score_silhouettes (0 for
  /// k == 1 by convention, and 0 while the sweep is unscored).
  double silhouette = 0.0;
};

/// Results of fitting k = 1..k_max.
struct KSweep {
  std::vector<KSweepEntry> entries;
  /// Whether score_silhouettes has filled in every entry's silhouette.
  /// Only the silhouette rule and the k-sweep report read them, so the
  /// elbow path never pays for them.
  bool silhouettes_scored = false;

  /// WCSS (inertia) curve indexed by position in `entries`.
  std::vector<double> inertia_curve() const;
};

/// Fits k-means for every k in [1, k_max] (k_max clamped to the number of
/// rows) and records each fit's inertia. `base` supplies everything but
/// k. Silhouettes are left unscored.
KSweep sweep_k(const Matrix& points, std::size_t k_max,
               const KMeansConfig& base);

/// Parallel sweep: fans the full (k, restart) grid out over `pool`.
/// Per-restart RNG streams are derived serially in the same order the
/// serial path uses and the best restart per k is selected by strict
/// `<` in restart order, so the result is bit-identical to the serial
/// sweep for the same seed. A non-null `cache` also scores the sweep's
/// silhouettes through it (see score_silhouettes).
KSweep sweep_k(const Matrix& points, std::size_t k_max,
               const KMeansConfig& base, util::ThreadPool* pool,
               const DistanceCache* cache = nullptr);

/// Scores the mean silhouette of every k >= 2 fit in `sweep`, which must
/// have been fitted over `points`. Without a `cache` it builds one over
/// `points` when the condensed buffer fits its budget (~1 GiB) and
/// scores directly otherwise; cached, direct and pooled scores are
/// bitwise equal (see mean_silhouette). A sweep that is already scored
/// is left as it is.
void score_silhouettes(KSweep& sweep, const Matrix& points,
                       util::ThreadPool* pool,
                       const DistanceCache* cache = nullptr);

/// Elbow selection: the k whose point on the (k, WCSS) curve is farthest
/// from the chord joining the curve's endpoints (the standard geometric
/// "maximum curvature" formulation of the elbow heuristic). Returns the
/// index into sweep.entries. A flat curve (no structure) returns 0 (k=1),
/// whatever the sweep length — two-entry sweeps included.
std::size_t select_elbow(const KSweep& sweep);

/// Silhouette selection: the k (>= 2) with maximal mean silhouette;
/// returns index 0 (k=1) when the best silhouette is <= 0, meaning no k
/// produced better-than-random structure. Throws std::invalid_argument
/// for a sweep whose silhouettes were never scored.
std::size_t select_silhouette(const KSweep& sweep);

/// Applies the chosen rule to the sweep, returning the winning entry.
/// kSilhouette needs a scored sweep, like select_silhouette.
const KSweepEntry& select_k(const KSweep& sweep, KSelection rule);

}  // namespace incprof::cluster
