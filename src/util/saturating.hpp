// Saturating int64 arithmetic for profile counters. decode_binary
// accepts any int64 counter, so sums and differences over untrusted
// dumps must not overflow; well-formed counters never reach the bounds,
// and there these are plain + and -.
#pragma once

#include <cstdint>
#include <limits>

namespace incprof::util {

/// a + b, saturated to the int64 range.
constexpr std::int64_t saturating_add(std::int64_t a,
                                      std::int64_t b) noexcept {
  std::int64_t s = 0;
  if (__builtin_add_overflow(a, b, &s)) {
    return b < 0 ? std::numeric_limits<std::int64_t>::min()
                 : std::numeric_limits<std::int64_t>::max();
  }
  return s;
}

/// a - b, saturated to the int64 range.
constexpr std::int64_t saturating_sub(std::int64_t a,
                                      std::int64_t b) noexcept {
  std::int64_t d = 0;
  if (__builtin_sub_overflow(a, b, &d)) {
    return b < 0 ? std::numeric_limits<std::int64_t>::max()
                 : std::numeric_limits<std::int64_t>::min();
  }
  return d;
}

}  // namespace incprof::util
