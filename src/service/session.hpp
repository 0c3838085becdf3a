// One client session inside incprofd: the connection's decoded frames
// flow through a bounded queue (drop-and-count on overflow, because a
// monitor must never stall its producers) into a per-session
// OnlinePhaseTracker that only ever runs on one worker thread at a time. The tracker is the single
// holder of the session's phase status: every status row, line and
// assignment list is derived from it under status_mu_.
#pragma once

#include "core/online.hpp"
#include "service/fleet_state.hpp"
#include "service/flight_recorder.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"
#include "util/thread_annotations.hpp"

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace incprof::service {

/// Per-session knobs (shared by every session of one server).
struct SessionConfig {
  /// Frames buffered between the connection reader and the worker pool;
  /// beyond this, data frames are dropped and counted. Control frames
  /// (bye) bypass the bound so sessions always close cleanly.
  std::size_t queue_capacity = 256;
  /// Last-N structured events retained per session for postmortems and
  /// the /sessions/<id>.json live view.
  std::size_t flight_recorder_capacity = 64;
  /// Streaming-tracker parameters for this session's tracker.
  core::OnlineConfig tracker;
};

/// Tracker + queue + connection for one client. Thread roles: the
/// connection reader calls enqueue(); exactly one pool worker at a time
/// calls take_pending()/finish_round()/observe(); any thread may read
/// the status.
class Session {
 public:
  enum class EnqueueResult {
    /// Queued, and the session was idle — the caller must schedule it.
    kScheduled,
    /// Queued behind frames an already-scheduled round will consume.
    kQueued,
    /// Queue full; the frame was dropped and counted.
    kDropped,
  };

  Session(std::uint32_t id, const SessionConfig& cfg);

  std::uint32_t id() const noexcept { return id_; }

  /// Records the hello handshake (fresh or resumed).
  void open(std::string client_name, bool subscribe_events);

  bool subscribed() const noexcept {
    return subscribed_.load(std::memory_order_relaxed);
  }

  /// Points the session at the connection its client now speaks on (the
  /// hello's, or a resume's); workers send replies and events through it.
  void attach(std::shared_ptr<Connection> conn);
  /// The current connection; null once the session closed.
  std::shared_ptr<Connection> connection() const;

  /// Reader side. `force` exempts control frames from the bound.
  EnqueueResult enqueue(Frame frame, bool force = false);

  /// Worker side: moves out every pending frame, in arrival order. The
  /// session stays marked scheduled until finish_round().
  std::vector<Frame> take_pending();

  /// Worker side: ends the round; true when frames arrived meanwhile
  /// and the caller must re-schedule the session.
  bool finish_round();

  /// Worker side: feeds one cumulative dump to the tracker.
  core::OnlineObservation observe(gmon::ProfileSnapshot&& snap);
  void note_heartbeats(std::uint64_t n);
  /// Marks the session closed and hands back its connection (null if
  /// already dropped) so the caller can close it; the session keeps no
  /// reference, so the connection's fd is freed with its last owner.
  std::shared_ptr<Connection> mark_closed();

  // --- fault handling (reader/worker/reaper threads) --------------------

  /// Counts one rejected frame against the session's error budget;
  /// returns the new total.
  std::uint32_t note_protocol_error();

  /// Snapshot frames accepted into the queue so far — the resume
  /// cursor handed back in a hello-ack, so a reconnecting client
  /// re-sends exactly the frames the server never took.
  std::uint32_t snapshots_accepted() const;

  /// Marks the session as waiting for its client to reconnect (abrupt
  /// disconnect inside the resume grace window).
  void detach(std::uint64_t now_ns);
  /// Claims a detached session (resume, reaper, drain or stop).
  void reattach();
  bool detached() const;
  /// When detach() was last called (steady ns); 0 if never.
  std::uint64_t detached_since_ns() const;

  /// Force-close, do not detach: set when the reaper, a quarantine, a
  /// drain or shutdown closed the connection, so the reader ends the
  /// session outright instead of leaving it resumable.
  void expire() noexcept { expired_.store(true, std::memory_order_relaxed); }
  bool expired() const noexcept {
    return expired_.load(std::memory_order_relaxed);
  }

  // --- any thread -------------------------------------------------------
  std::string client_name() const;
  std::size_t max_queue_depth() const;
  bool closed() const;

  /// The session's fleet row, derived from the tracker.
  FleetSessionInfo row() const;

  /// Phase assignments published so far: the full history with the
  /// exact tracker, the last assignment_window entries with the
  /// streaming one (the row's interval count keeps the exact total).
  std::vector<std::size_t> assignments() const;

  /// The session's flight recorder (internally synchronized).
  FlightRecorder& flight_recorder() noexcept { return flight_; }
  const FlightRecorder& flight_recorder() const noexcept { return flight_; }

  /// Distributed-trace id of the session's client, captured from the
  /// first traced frame (0 until one arrives). Correlates postmortems
  /// and log lines with the fleet-merged trace view.
  void note_trace_id(std::uint64_t trace_id) noexcept {
    if (trace_id != 0) {
      trace_id_.store(trace_id, std::memory_order_relaxed);
    }
  }
  std::uint64_t trace_id() const noexcept {
    return trace_id_.load(std::memory_order_relaxed);
  }

  /// One-line status ("session 3 (minife): 45 intervals, 3 phases, ...").
  std::string status_line() const;

 private:
  const std::uint32_t id_;
  const std::size_t queue_capacity_;

  // Queue state (reader + scheduler + worker). Lock order: queue_mu_
  // is a leaf, but status_mu_ may be held while acquiring it (row) —
  // never the other way around.
  mutable util::Mutex queue_mu_;
  std::deque<Frame> frames_ INCPROF_GUARDED_BY(queue_mu_);
  bool scheduled_ INCPROF_GUARDED_BY(queue_mu_) = false;
  std::uint64_t dropped_ INCPROF_GUARDED_BY(queue_mu_) = 0;
  std::size_t max_depth_ INCPROF_GUARDED_BY(queue_mu_) = 0;
  std::uint32_t snapshots_accepted_ INCPROF_GUARDED_BY(queue_mu_) = 0;

  // Flight recorder (internally synchronized leaf; written from the
  // reader and worker, drained by postmortem dumps and HTTP queries).
  FlightRecorder flight_;

  // Fault-handling state (reader / reaper / resume path).
  std::atomic<std::uint64_t> trace_id_{0};
  std::atomic<std::uint32_t> protocol_errors_{0};
  std::atomic<bool> detached_{false};
  std::atomic<std::uint64_t> detached_since_ns_{0};
  std::atomic<bool> expired_{false};
  std::atomic<bool> subscribed_{false};

  // Status: the worker observes under the lock, readers derive from it.
  mutable util::Mutex status_mu_;
  core::OnlinePhaseTracker tracker_ INCPROF_GUARDED_BY(status_mu_);
  std::shared_ptr<Connection> conn_ INCPROF_GUARDED_BY(status_mu_);
  std::string client_name_ INCPROF_GUARDED_BY(status_mu_);
  std::uint64_t heartbeat_records_ INCPROF_GUARDED_BY(status_mu_) = 0;
  bool closed_ INCPROF_GUARDED_BY(status_mu_) = false;
};

}  // namespace incprof::service
