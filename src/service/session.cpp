#include "service/session.hpp"

#include <sstream>

namespace incprof::service {

Session::Session(std::uint32_t id, const SessionConfig& cfg)
    : id_(id),
      queue_capacity_(cfg.queue_capacity),
      flight_(cfg.flight_recorder_capacity),
      tracker_(cfg.tracker) {}

void Session::open(std::string client_name, bool subscribe_events) {
  {
    util::MutexLock lock(status_mu_);
    client_name_ = std::move(client_name);
  }
  subscribed_.store(subscribe_events, std::memory_order_relaxed);
}

void Session::attach(std::shared_ptr<Connection> conn) {
  util::MutexLock lock(status_mu_);
  conn_ = std::move(conn);
}

std::shared_ptr<Connection> Session::connection() const {
  util::MutexLock lock(status_mu_);
  return conn_;
}

Session::EnqueueResult Session::enqueue(Frame frame, bool force) {
  util::MutexLock lock(queue_mu_);
  if (!force && frames_.size() >= queue_capacity_) {
    ++dropped_;
    return EnqueueResult::kDropped;
  }
  if (frame.type == FrameType::kSnapshot) ++snapshots_accepted_;
  frames_.push_back(std::move(frame));
  if (frames_.size() > max_depth_) max_depth_ = frames_.size();
  if (scheduled_) return EnqueueResult::kQueued;
  scheduled_ = true;
  return EnqueueResult::kScheduled;
}

std::vector<Frame> Session::take_pending() {
  util::MutexLock lock(queue_mu_);
  std::vector<Frame> out(std::make_move_iterator(frames_.begin()),
                         std::make_move_iterator(frames_.end()));
  frames_.clear();
  return out;
}

bool Session::finish_round() {
  util::MutexLock lock(queue_mu_);
  if (frames_.empty()) {
    scheduled_ = false;
    return false;
  }
  return true;  // stays scheduled; caller re-queues the session
}

core::OnlineObservation Session::observe(gmon::ProfileSnapshot&& snap) {
  util::MutexLock lock(status_mu_);
  return tracker_.observe(std::move(snap));
}

void Session::note_heartbeats(std::uint64_t n) {
  util::MutexLock lock(status_mu_);
  heartbeat_records_ += n;
}

std::shared_ptr<Connection> Session::mark_closed() {
  util::MutexLock lock(status_mu_);
  closed_ = true;
  return std::move(conn_);
}

std::uint32_t Session::note_protocol_error() {
  return protocol_errors_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint32_t Session::snapshots_accepted() const {
  util::MutexLock lock(queue_mu_);
  return snapshots_accepted_;
}

void Session::detach(std::uint64_t now_ns) {
  detached_since_ns_.store(now_ns, std::memory_order_relaxed);
  detached_.store(true, std::memory_order_release);
}

void Session::reattach() {
  detached_.store(false, std::memory_order_release);
}

bool Session::detached() const {
  return detached_.load(std::memory_order_acquire);
}

std::uint64_t Session::detached_since_ns() const {
  return detached_since_ns_.load(std::memory_order_relaxed);
}

std::string Session::client_name() const {
  util::MutexLock lock(status_mu_);
  return client_name_;
}

std::size_t Session::max_queue_depth() const {
  util::MutexLock lock(queue_mu_);
  return max_depth_;
}

bool Session::closed() const {
  util::MutexLock lock(status_mu_);
  return closed_;
}

FleetSessionInfo Session::row() const {
  FleetSessionInfo r;
  r.id = id_;
  util::MutexLock status(status_mu_);
  r.client_name = client_name_;
  r.intervals = tracker_.num_intervals();
  r.phases = tracker_.num_phases();
  r.current_phase = tracker_.current_phase();
  r.transitions = tracker_.transitions();
  r.heartbeat_records = heartbeat_records_;
  r.closed = closed_;
  util::MutexLock queue(queue_mu_);
  r.dropped_frames = dropped_;
  return r;
}

std::vector<std::size_t> Session::assignments() const {
  util::MutexLock lock(status_mu_);
  return tracker_.recent_assignments();
}

std::string Session::status_line() const {
  const FleetSessionInfo r = row();
  std::ostringstream os;
  os << "session " << r.id << " ("
     << (r.client_name.empty() ? "?" : r.client_name) << "): " << r.intervals
     << " intervals, " << r.phases << " phases, current phase "
     << r.current_phase << ", " << r.transitions << " transitions, "
     << r.heartbeat_records << " hb records, " << r.dropped_frames
     << " dropped";
  if (r.closed) os << " [closed]";
  return os.str();
}

}  // namespace incprof::service
