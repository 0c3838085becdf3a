// Distance metrics over feature vectors. k-means uses squared Euclidean
// internally; Algorithm 1 sorts intervals by Euclidean distance to the
// cluster centroid (paper, Section V-B, line 3).
//
// These single-pair entry points are the scalar reference tier (they
// inline src/cluster/simd/kernels_ref.hpp); the vectorized variants
// live behind src/cluster/simd/simd.hpp as batch kernels and are
// bitwise-identical by construction. A width mismatch between the two
// spans aborts with a diagnostic in every build mode — the old
// debug-only assert silently read out of bounds in release builds.
#pragma once

#include <span>

namespace incprof::cluster {

/// Squared Euclidean distance. Aborts if a.size() != b.size().
double squared_euclidean(std::span<const double> a,
                         std::span<const double> b) noexcept;

/// Euclidean (L2) distance.
double euclidean(std::span<const double> a,
                 std::span<const double> b) noexcept;

}  // namespace incprof::cluster
