// SIMD dispatch layer for the distance kernels. The analysis pipeline
// spends its time in pairwise distance evaluations (Lloyd assignment,
// the DistanceCache fill, DBSCAN neighborhoods, silhouettes); this
// layer vectorizes them without touching the §6 determinism contract.
//
// The design constraint is bitwise equality with the scalar reference
// at every tier. FP addition is not associative, so a conventional
// within-vector reduction (4 accumulator lanes over one pair) would
// change the answer. Instead every batched kernel assigns one *pair*
// per vector lane: lane t walks dimensions 0..d-1 accumulating
// out[t] in exactly the scalar order (kernels_ref.hpp), and d-1
// vector adds later each lane holds the bit-exact scalar result. The
// speedup comes from evaluating 4 (AVX2) or 2 (NEON) pairs per
// instruction and from interleaving two accumulator chains to hide
// the FP add latency — not from reordering any reduction.
//
// Tiers are detected at runtime (cpuid on x86-64, baseline NEON on
// aarch64) and can be forced down with --simd scalar|avx2|neon|auto;
// forcing a tier the host cannot execute is rejected, never trapped.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

namespace incprof::cluster::simd {

/// Kernel tiers, ordered by capability. kScalar always works; the
/// vector tiers are selected only when the CPU reports support.
enum class Tier { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Batched distance kernels: out[t] = scalar_reference(a, rows[t]) for
/// t in [0, count). Preconditions: every rows[t] (and a) holds at
/// least d readable doubles. All tiers are bitwise-identical to
/// kernels_ref.hpp by construction (lane-per-pair, see file comment).
struct BatchKernels {
  void (*squared_euclidean)(const double* a, const double* const* rows,
                            std::size_t count, std::size_t d, double* out);
  void (*manhattan)(const double* a, const double* const* rows,
                    std::size_t count, std::size_t d, double* out);
  void (*cosine)(const double* a, const double* const* rows,
                 std::size_t count, std::size_t d, double* out);
};

/// Best tier this host can execute (probed once, cached).
Tier detected_tier() noexcept;

/// Tier the process is currently dispatching to (defaults to
/// detected_tier(); --simd overrides it at tool startup).
Tier active_tier() noexcept;

/// Forces the dispatch tier. Returns false (and leaves the tier
/// unchanged) when the host cannot execute `tier`.
bool set_active_tier(Tier tier) noexcept;

/// Kernel table of the active tier.
const BatchKernels& kernels() noexcept;

/// Kernel table of a specific tier (falls back to scalar when the
/// tier is not compiled in or not executable on this host).
const BatchKernels& kernels(Tier tier) noexcept;

/// "scalar", "avx2", "neon".
const char* tier_name(Tier tier) noexcept;

/// Parses a --simd argument: "auto" (detected tier), "scalar",
/// "avx2", "neon". Returns false on anything else.
bool parse_tier(std::string_view text, Tier& out) noexcept;

}  // namespace incprof::cluster::simd
