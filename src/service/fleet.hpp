// Fleet view — the cross-session report a deployment monitor reads,
// rendered from a shard's ShardState (per-session rows derived from the
// trackers, plus a histogram of discovered-phase counts across the
// fleet — "is every replica of this app seeing the same number of
// behaviours?"), and the bounded transition log of phase-change events
// (the events Nickolayev-style real-time monitors alarm on).
#pragma once

#include "core/online.hpp"
#include "service/fleet_state.hpp"
#include "util/thread_annotations.hpp"

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <vector>

namespace incprof::service {

/// One logged phase-change event.
struct FleetTransition {
  std::uint32_t session = 0;
  std::uint32_t interval = 0;
  std::size_t phase = 0;
  bool new_phase = false;
};

/// Thread-safe bounded tail of the fleet's phase-change events.
class TransitionLog {
 public:
  /// `capacity` bounds the retained tail; older events are discarded
  /// (the fleet's event count lives in the trackers, see ShardState).
  explicit TransitionLog(std::size_t capacity = 1024);

  /// Logs the observation when it opened a phase or changed phase.
  void record(std::uint32_t session, const core::OnlineObservation& obs);

  /// The retained tail, oldest first.
  std::vector<FleetTransition> entries() const;

 private:
  const std::size_t capacity_;
  // mu_ is a leaf lock: nothing else is acquired while it is held.
  mutable util::Mutex mu_;
  std::deque<FleetTransition> log_ INCPROF_GUARDED_BY(mu_);
};

/// Human-readable fleet report (the daemon's periodic printout and the
/// kFleetSummary reply).
std::string render_fleet(const ShardState& state);

/// One CSV row per session: id,client,intervals,phases,current_phase,
/// transitions,heartbeats,dropped,closed.
void write_fleet_csv(const ShardState& state, std::ostream& os);

}  // namespace incprof::service
