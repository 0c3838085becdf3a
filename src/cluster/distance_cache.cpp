#include "cluster/distance_cache.hpp"

#include <new>
#include <string>

#include "cluster/simd/simd.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace incprof::cluster {
namespace {

/// Condensed-size guard: the pair count and its byte size must fit,
/// and the resize must succeed. Returns false (logging why) for
/// adversarial n instead of UB or an escaping bad_alloc.
bool reserve_condensed(std::size_t n, std::vector<double>& d2) {
  const auto pairs = checked_pair_count(n);
  if (!pairs || !checked_mul(*pairs, sizeof(double))) {
    util::log_error("DistanceCache: condensed size for n=" +
                    std::to_string(n) +
                    " rows overflows; returning empty cache");
    return false;
  }
  try {
    d2.resize(*pairs);
  } catch (const std::bad_alloc&) {
    util::log_error("DistanceCache: allocation of " +
                    std::to_string(*pairs) +
                    " entries failed; returning empty cache");
    return false;
  }
  return true;
}

}  // namespace

DistanceCache DistanceCache::build(const Matrix& points,
                                   util::ThreadPool* pool) {
  DistanceCache cache;
  const std::size_t n = points.rows();
  if (n < 2) {
    cache.n_ = n;
    return cache;
  }
  if (!reserve_condensed(n, cache.d2_)) return cache;
  cache.n_ = n;

  // One pointer per row, so each condensed row fills with a single
  // batched kernel call over the rows after i.
  std::vector<const double*> row_ptrs(n);
  for (std::size_t i = 0; i < n; ++i) row_ptrs[i] = points.row_ptr(i);
  const simd::BatchKernels& kernels = simd::kernels();
  const std::size_t d = points.cols();

  auto fill_row = [&](std::size_t i) {
    const std::size_t base = i * (2 * n - i - 1) / 2;
    kernels.squared_euclidean(row_ptrs[i], row_ptrs.data() + i + 1,
                              n - i - 1, d, cache.d2_.data() + base);
  };

  if (pool != nullptr) {
    // One task per row: early rows carry more columns, but the pool's
    // index-claiming balances the tail automatically.
    pool->parallel_for(n - 1, fill_row);
  } else {
    for (std::size_t i = 0; i + 1 < n; ++i) fill_row(i);
  }
  return cache;
}

}  // namespace incprof::cluster
