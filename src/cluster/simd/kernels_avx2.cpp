// AVX2 tier. Lane-per-pair: each of the 4 double lanes
// owns a distinct pair and replays the kernels_ref.hpp op sequence for
// it, so every lane's result is bitwise-identical to the scalar
// reference. Dimension j of 4 row operands is gathered into one ymm
// column either via a 4x4 in-register transpose (main loop, 4 dims per
// step) or _mm256_set_pd (dimension tail). Two independent 4-pair
// accumulator chains are interleaved to hide vaddpd latency.
//
// This TU is compiled with -mavx2 -ffp-contract=off (see
// src/cluster/CMakeLists.txt): no FMA contraction is allowed anywhere
// in it, because fl(a*b+c) != fl(fl(a*b)+c) would break parity.
#include "cluster/simd/kernels_internal.hpp"
#include "cluster/simd/simd.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstddef>

#include "cluster/simd/kernels_ref.hpp"

namespace incprof::cluster::simd {
namespace {

// Gathers dims j..j+3 of rows r0..r3 into four column vectors:
// ck = {r0[j+k], r1[j+k], r2[j+k], r3[j+k]} (lane t = row t).
inline void load_cols4(const double* r0, const double* r1, const double* r2,
                       const double* r3, std::size_t j, __m256d& c0,
                       __m256d& c1, __m256d& c2, __m256d& c3) {
  const __m256d v0 = _mm256_loadu_pd(r0 + j);
  const __m256d v1 = _mm256_loadu_pd(r1 + j);
  const __m256d v2 = _mm256_loadu_pd(r2 + j);
  const __m256d v3 = _mm256_loadu_pd(r3 + j);
  const __m256d t0 = _mm256_unpacklo_pd(v0, v1);
  const __m256d t1 = _mm256_unpackhi_pd(v0, v1);
  const __m256d t2 = _mm256_unpacklo_pd(v2, v3);
  const __m256d t3 = _mm256_unpackhi_pd(v2, v3);
  c0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  c1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  c2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  c3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

inline __m256d load_col1(const double* r0, const double* r1, const double* r2,
                         const double* r3, std::size_t j) {
  return _mm256_set_pd(r3[j], r2[j], r1[j], r0[j]);
}

// out[t] = sum_j fl((a[j]-rows[t][j])^2) accumulated in j order, for
// four pairs at once. One accumulator chain; callers interleave two.
inline __m256d sq4(const double* a, const double* r0, const double* r1,
                   const double* r2, const double* r3, std::size_t d) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    __m256d c0, c1, c2, c3;
    load_cols4(r0, r1, r2, r3, j, c0, c1, c2, c3);
    const __m256d d0 = _mm256_sub_pd(_mm256_broadcast_sd(a + j), c0);
    const __m256d d1 = _mm256_sub_pd(_mm256_broadcast_sd(a + j + 1), c1);
    const __m256d d2 = _mm256_sub_pd(_mm256_broadcast_sd(a + j + 2), c2);
    const __m256d d3 = _mm256_sub_pd(_mm256_broadcast_sd(a + j + 3), c3);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d0, d0));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d1, d1));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d2, d2));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d3, d3));
  }
  for (; j < d; ++j) {
    const __m256d diff = _mm256_sub_pd(_mm256_broadcast_sd(a + j),
                                       load_col1(r0, r1, r2, r3, j));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  return acc;
}

void avx2_squared_euclidean(const double* a, const double* const* rows,
                            std::size_t count, std::size_t d, double* out) {
  std::size_t t = 0;
  // Two independent 4-pair chains per step hide the vaddpd latency.
  for (; t + 8 <= count; t += 8) {
    _mm256_storeu_pd(out + t,
                     sq4(a, rows[t], rows[t + 1], rows[t + 2], rows[t + 3], d));
    _mm256_storeu_pd(out + t + 4, sq4(a, rows[t + 4], rows[t + 5],
                                      rows[t + 6], rows[t + 7], d));
  }
  for (; t + 4 <= count; t += 4) {
    _mm256_storeu_pd(out + t,
                     sq4(a, rows[t], rows[t + 1], rows[t + 2], rows[t + 3], d));
  }
  for (; t < count; ++t) out[t] = ref::squared_euclidean(a, rows[t], d);
}

constexpr BatchKernels kAvx2Kernels{
    avx2_squared_euclidean,
};

}  // namespace

const BatchKernels* avx2_kernels() noexcept { return &kAvx2Kernels; }

}  // namespace incprof::cluster::simd

#else  // non-x86: tier never available

namespace incprof::cluster::simd {
const BatchKernels* avx2_kernels() noexcept { return nullptr; }
}  // namespace incprof::cluster::simd

#endif
