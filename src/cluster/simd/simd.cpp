#include "cluster/simd/simd.hpp"

#include <atomic>
#include <cstddef>

#include "cluster/simd/kernels_internal.hpp"
#include "cluster/simd/kernels_ref.hpp"

namespace incprof::cluster::simd {
namespace {

// Scalar batch tier: the reference loops applied lane-by-lane. Every
// vector tier must match these outputs bitwise.
void scalar_squared_euclidean(const double* a, const double* const* rows,
                              std::size_t count, std::size_t d,
                              double* out) {
  for (std::size_t t = 0; t < count; ++t) {
    out[t] = ref::squared_euclidean(a, rows[t], d);
  }
}

constexpr BatchKernels kScalarKernels{
    scalar_squared_euclidean,
};

Tier probe_tier() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2") && avx2_kernels() != nullptr) {
    return Tier::kAvx2;
  }
#elif defined(__aarch64__)
  // NEON is baseline on aarch64; availability hinges only on whether
  // the NEON TU compiled in.
  if (neon_kernels() != nullptr) return Tier::kNeon;
#endif
  return Tier::kScalar;
}

std::atomic<Tier>& active_tier_slot() noexcept {
  static std::atomic<Tier> tier{detected_tier()};
  return tier;
}

}  // namespace

Tier detected_tier() noexcept {
  static const Tier tier = probe_tier();
  return tier;
}

Tier active_tier() noexcept {
  return active_tier_slot().load(std::memory_order_relaxed);
}

bool set_active_tier(Tier tier) noexcept {
  if (tier != Tier::kScalar && tier != detected_tier()) return false;
  active_tier_slot().store(tier, std::memory_order_relaxed);
  return true;
}

const BatchKernels& kernels(Tier tier) noexcept {
  switch (tier) {
    case Tier::kAvx2:
      if (const BatchKernels* k = avx2_kernels()) return *k;
      break;
    case Tier::kNeon:
      if (const BatchKernels* k = neon_kernels()) return *k;
      break;
    case Tier::kScalar:
      break;
  }
  return kScalarKernels;
}

const BatchKernels& kernels() noexcept { return kernels(active_tier()); }

const char* tier_name(Tier tier) noexcept {
  switch (tier) {
    case Tier::kAvx2:
      return "avx2";
    case Tier::kNeon:
      return "neon";
    case Tier::kScalar:
      break;
  }
  return "scalar";
}

bool parse_tier(std::string_view text, Tier& out) noexcept {
  if (text == "auto") {
    out = detected_tier();
    return true;
  }
  if (text == "scalar") {
    out = Tier::kScalar;
    return true;
  }
  if (text == "avx2") {
    out = Tier::kAvx2;
    return true;
  }
  if (text == "neon") {
    out = Tier::kNeon;
    return true;
  }
  return false;
}

}  // namespace incprof::cluster::simd
