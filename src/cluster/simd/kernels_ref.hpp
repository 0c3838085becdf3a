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

#include <cmath>
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

inline double manhattan(const double* a, const double* b,
                        std::size_t n) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += std::fabs(a[i] - b[i]);
  return s;
}

/// One-pass cosine accumulators. Split from the finish so vector tiers
/// can produce the three sums per lane and then run the *same* scalar
/// finish — the zero-vector convention and clamps stay in one place.
struct CosineParts {
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
};

inline CosineParts cosine_parts(const double* a, const double* b,
                                std::size_t n) noexcept {
  CosineParts p;
  for (std::size_t i = 0; i < n; ++i) {
    p.dot += a[i] * b[i];
    p.na += a[i] * a[i];
    p.nb += b[i] * b[i];
  }
  return p;
}

inline double cosine_finish(const CosineParts& p) noexcept {
  // A zero vector has no direction: against another zero vector it is
  // identical (distance 0), but against any busy interval it must be
  // maximally distant — returning 0 here made every idle interval look
  // identical to every busy one.
  if (p.na == 0.0 && p.nb == 0.0) return 0.0;
  if (p.na == 0.0 || p.nb == 0.0) return 1.0;
  double sim = p.dot / (std::sqrt(p.na) * std::sqrt(p.nb));
  if (sim > 1.0) sim = 1.0;
  if (sim < -1.0) sim = -1.0;
  return 1.0 - sim;
}

inline double cosine(const double* a, const double* b,
                     std::size_t n) noexcept {
  return cosine_finish(cosine_parts(a, b, n));
}

}  // namespace incprof::cluster::simd::ref
