// Seeded synthetic profile streams: cumulative gmon snapshots of a
// program that cycles through a few recurring phases. Each phase keeps a
// fixed set of active functions with their own share of the interval
// (the same for every seed of one shape); the schedule of phase segments
// and a small per-interval jitter come from the seed, so the same seed
// always yields the same bytes.
#pragma once

#include "gmon/snapshot.hpp"

#include <cstdint>
#include <vector>

namespace perfbench {

struct StreamSpec {
  std::size_t intervals = 1000;
  std::size_t functions = 64;
  std::size_t phases = 4;
  /// Functions carrying each phase's time, besides the main loop.
  std::size_t active = 4;
  /// Extra functions per phase that share a small slice (8 %) of the
  /// interval: they widen the function universe without blurring the
  /// phases.
  std::size_t light = 0;
  std::uint64_t seed = 1;
};

/// Cumulative snapshots, seq 0..intervals-1, one per 1 s interval.
std::vector<incprof::gmon::ProfileSnapshot> make_phased_stream(
    const StreamSpec& spec);

}  // namespace perfbench
