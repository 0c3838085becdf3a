// THE scalar reference loops for the distance kernels. Every SIMD tier
// must reproduce these bitwise: a vector lane never accelerates *one*
// pair's reduction (that would reorder the FP sum); instead each lane
// owns a *different* pair and replays exactly this op sequence for it.
// The public kernels in distance.cpp and the scalar batch tier both
// inline these, so "scalar reference" is one piece of code, not two
// copies that could drift.
//
// Do not "optimize" these loops: their op-for-op shape (separate
// subtract, multiply, add — no FMA contraction, see the cluster
// library's -ffp-contract=off) is the §6 determinism contract's
// canonical reduction order.
#pragma once

#include <cstddef>

namespace incprof::cluster::simd::ref {

inline double squared_euclidean(const double* a, const double* b,
                                std::size_t n) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

}  // namespace incprof::cluster::simd::ref
