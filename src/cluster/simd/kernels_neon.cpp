// NEON tier (aarch64). Same lane-per-pair contract as the AVX2 tier,
// with 2 double lanes per vector. Separate vmul/vadd —
// never vfma — plus -ffp-contract=off on this TU keep every lane's
// reduction bitwise-identical to kernels_ref.hpp.
#include "cluster/simd/kernels_internal.hpp"
#include "cluster/simd/simd.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>

#include "cluster/simd/kernels_ref.hpp"

namespace incprof::cluster::simd {
namespace {

// Column vector {r0[j], r1[j]} — lane t = pair t.
inline float64x2_t load_col(const double* r0, const double* r1,
                            std::size_t j) {
  return vcombine_f64(vld1_f64(r0 + j), vld1_f64(r1 + j));
}

inline float64x2_t sq2(const double* a, const double* r0, const double* r1,
                       std::size_t d) {
  float64x2_t acc = vdupq_n_f64(0.0);
  for (std::size_t j = 0; j < d; ++j) {
    const float64x2_t diff = vsubq_f64(vdupq_n_f64(a[j]), load_col(r0, r1, j));
    acc = vaddq_f64(acc, vmulq_f64(diff, diff));
  }
  return acc;
}

void neon_squared_euclidean(const double* a, const double* const* rows,
                            std::size_t count, std::size_t d, double* out) {
  std::size_t t = 0;
  // Two independent chains per step to hide the fadd latency.
  for (; t + 4 <= count; t += 4) {
    vst1q_f64(out + t, sq2(a, rows[t], rows[t + 1], d));
    vst1q_f64(out + t + 2, sq2(a, rows[t + 2], rows[t + 3], d));
  }
  for (; t + 2 <= count; t += 2) {
    vst1q_f64(out + t, sq2(a, rows[t], rows[t + 1], d));
  }
  for (; t < count; ++t) out[t] = ref::squared_euclidean(a, rows[t], d);
}

inline float64x2_t man2(const double* a, const double* r0, const double* r1,
                        std::size_t d) {
  float64x2_t acc = vdupq_n_f64(0.0);
  for (std::size_t j = 0; j < d; ++j) {
    // vabsq clears the sign bit — identical to std::fabs, NaNs included.
    acc = vaddq_f64(
        acc, vabsq_f64(vsubq_f64(vdupq_n_f64(a[j]), load_col(r0, r1, j))));
  }
  return acc;
}

void neon_manhattan(const double* a, const double* const* rows,
                    std::size_t count, std::size_t d, double* out) {
  std::size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    vst1q_f64(out + t, man2(a, rows[t], rows[t + 1], d));
    vst1q_f64(out + t + 2, man2(a, rows[t + 2], rows[t + 3], d));
  }
  for (; t + 2 <= count; t += 2) {
    vst1q_f64(out + t, man2(a, rows[t], rows[t + 1], d));
  }
  for (; t < count; ++t) out[t] = ref::manhattan(a, rows[t], d);
}

void neon_cosine(const double* a, const double* const* rows,
                 std::size_t count, std::size_t d, double* out) {
  std::size_t t = 0;
  for (; t + 2 <= count; t += 2) {
    const double* r0 = rows[t];
    const double* r1 = rows[t + 1];
    float64x2_t dot = vdupq_n_f64(0.0);
    float64x2_t na = vdupq_n_f64(0.0);
    float64x2_t nb = vdupq_n_f64(0.0);
    for (std::size_t j = 0; j < d; ++j) {
      const float64x2_t av = vdupq_n_f64(a[j]);
      const float64x2_t col = load_col(r0, r1, j);
      dot = vaddq_f64(dot, vmulq_f64(av, col));
      na = vaddq_f64(na, vmulq_f64(av, av));
      nb = vaddq_f64(nb, vmulq_f64(col, col));
    }
    for (int lane = 0; lane < 2; ++lane) {
      out[t + lane] = ref::cosine_finish({lane == 0 ? vgetq_lane_f64(dot, 0)
                                                    : vgetq_lane_f64(dot, 1),
                                          lane == 0 ? vgetq_lane_f64(na, 0)
                                                    : vgetq_lane_f64(na, 1),
                                          lane == 0 ? vgetq_lane_f64(nb, 0)
                                                    : vgetq_lane_f64(nb, 1)});
    }
  }
  for (; t < count; ++t) out[t] = ref::cosine(a, rows[t], d);
}

constexpr BatchKernels kNeonKernels{
    neon_squared_euclidean,
    neon_manhattan,
    neon_cosine,
};

}  // namespace

const BatchKernels* neon_kernels() noexcept { return &kNeonKernels; }

}  // namespace incprof::cluster::simd

#else  // non-aarch64: tier never available

namespace incprof::cluster::simd {
const BatchKernels* neon_kernels() noexcept { return nullptr; }
}  // namespace incprof::cluster::simd

#endif
