// Shard-state snapshot: the machine-readable answer to a kFleetState
// control query. A shard serializes its per-session rows plus its
// metrics registry (counters, gauges, histogram buckets); the gateway
// decodes one ShardState per shard and merges them into the fleet view.
// Everything in here is mergeable by construction — counts add, gauges
// add (they are all extensive quantities: live sessions, queue depths),
// histogram buckets add — so the merged view of a clean run equals the
// sum of the per-shard views.
//
// The codec is a line-oriented text format ("incprof-shard-state v1")
// rather than a packed binary one: it rides inside a kQueryReply whose
// body is text by convention, it is trivially diffable in test failures,
// and none of its fields are hot-path sized. Metric keys are emitted as
// single tokens, so keys containing whitespace are skipped at capture
// time (the repo lint already enforces whitespace-free metric names).
#pragma once

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace incprof::service {

/// One session's row in the fleet report.
struct FleetSessionInfo {
  std::uint32_t id = 0;
  std::string client_name;
  std::size_t intervals = 0;
  std::size_t phases = 0;
  std::size_t current_phase = 0;
  std::size_t transitions = 0;
  std::uint64_t heartbeat_records = 0;
  std::uint64_t dropped_frames = 0;
  bool closed = false;
};

/// One shard's full observable state at a point in time.
struct ShardState {
  std::uint32_t shard_id = 0;
  /// True once the shard has begun draining (no new sessions).
  bool draining = false;
  std::uint64_t open_sessions = 0;
  std::uint64_t total_intervals = 0;
  /// Phase events: every transition plus each session's first phase.
  std::uint64_t total_transitions = 0;
  std::vector<FleetSessionInfo> sessions;
  /// histogram[k] = sessions whose tracker holds k phases.
  std::vector<std::uint64_t> phase_count_histogram;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> histograms;
};

/// Builds a ShardState from a shard's session rows (ordered by id) and
/// registry; the totals and the phase histogram are derived from the rows.
ShardState capture_shard_state(std::uint32_t shard_id, bool draining,
                               std::vector<FleetSessionInfo> sessions,
                               const obs::MetricsRegistry& metrics);

/// Serializes to the v1 text format.
std::string encode_shard_state(const ShardState& s);

/// Parses the v1 text format; throws std::runtime_error on malformed
/// input (bad header, short row, non-numeric field).
ShardState decode_shard_state(std::string_view text);

/// Folds `src` into `dst`: totals and phase histograms add, metric rows
/// merge by key (counters/gauges add, histogram buckets add), session
/// rows concatenate. `dst.shard_id`/`draining` are left untouched — a
/// merged view has no single owner.
void merge_shard_state(ShardState& dst, const ShardState& src);

}  // namespace incprof::service
