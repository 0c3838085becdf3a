#include "service/fleet.hpp"

#include "util/csv.hpp"

#include <sstream>

namespace incprof::service {

TransitionLog::TransitionLog(std::size_t capacity) : capacity_(capacity) {}

void TransitionLog::record(std::uint32_t session,
                           const core::OnlineObservation& obs) {
  if (!obs.transition && !obs.new_phase) return;
  util::MutexLock lock(mu_);
  log_.push_back({session, static_cast<std::uint32_t>(obs.interval),
                  obs.phase, obs.new_phase});
  if (log_.size() > capacity_) log_.pop_front();
}

std::vector<FleetTransition> TransitionLog::entries() const {
  util::MutexLock lock(mu_);
  return {log_.begin(), log_.end()};
}

std::string render_fleet(const ShardState& state) {
  std::ostringstream os;
  os << "fleet: " << state.sessions.size() << " sessions ("
     << state.open_sessions << " open), " << state.total_transitions
     << " phase events\n";
  for (const auto& s : state.sessions) {
    os << "  #" << s.id << " " << (s.client_name.empty() ? "?" : s.client_name)
       << (s.closed ? " [closed]" : "") << ": " << s.intervals
       << " intervals, " << s.phases << " phases, in phase "
       << s.current_phase << ", " << s.transitions << " transitions";
    if (s.heartbeat_records > 0) {
      os << ", " << s.heartbeat_records << " hb records";
    }
    if (s.dropped_frames > 0) os << ", " << s.dropped_frames << " dropped";
    os << "\n";
  }
  os << "  phase-count histogram:";
  for (std::size_t k = 0; k < state.phase_count_histogram.size(); ++k) {
    if (state.phase_count_histogram[k] > 0) {
      os << " " << k << "p x" << state.phase_count_histogram[k];
    }
  }
  os << "\n";
  return os.str();
}

void write_fleet_csv(const ShardState& state, std::ostream& os) {
  util::CsvWriter w(os);
  w.row({"session", "client", "intervals", "phases", "current_phase",
         "transitions", "heartbeat_records", "dropped_frames", "closed"});
  for (const auto& s : state.sessions) {
    w.row_of(s.id, s.client_name, s.intervals, s.phases, s.current_phase,
             s.transitions, s.heartbeat_records, s.dropped_frames,
             s.closed ? 1 : 0);
  }
}

}  // namespace incprof::service
