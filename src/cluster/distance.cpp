#include "cluster/distance.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "cluster/simd/kernels_ref.hpp"

namespace incprof::cluster {
namespace {

// Always-on precondition check. The old assert() vanished in release
// builds and a mismatched pair of spans silently read out of bounds;
// the cost of this branch is one predicted-not-taken compare per
// call. Aborting is deliberate: a width mismatch is a caller bug, not
// an input error, and continuing would cluster on garbage.
inline void check_same_size(std::span<const double> a,
                            std::span<const double> b,
                            const char* kernel) noexcept {
  if (a.size() != b.size()) [[unlikely]] {
    std::fprintf(stderr,
                 "incprof: %s called with mismatched spans (%zu vs %zu)\n",
                 kernel, a.size(), b.size());
    std::abort();
  }
}

}  // namespace

double squared_euclidean(std::span<const double> a,
                         std::span<const double> b) noexcept {
  check_same_size(a, b, "squared_euclidean");
  return simd::ref::squared_euclidean(a.data(), b.data(), a.size());
}

double euclidean(std::span<const double> a,
                 std::span<const double> b) noexcept {
  return std::sqrt(squared_euclidean(a, b));
}

}  // namespace incprof::cluster
