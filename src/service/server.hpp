// The phase-detection daemon core: accepts many concurrent client
// sessions from a transport Listener, runs one OnlinePhaseTracker per
// session on a shared worker pool (bounded per-session queues,
// drop-and-count on overflow), answers status queries in stream order,
// pushes phase events to subscribed clients, and folds everything into
// a FleetAggregator + MetricsRegistry. This is the reproduction's
// monitoring-side endpoint for the paper's LDMS deployment story.
#pragma once

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "service/fleet.hpp"
#include "service/fleet_state.hpp"
#include "service/session.hpp"
#include "service/transport.hpp"
#include "util/thread_annotations.hpp"

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace incprof::service {

/// Daemon configuration.
struct ServerConfig {
  /// Tracker workers shared across all sessions. 0 = hardware
  /// concurrency (resolved at start()); 1 = a single worker.
  std::size_t worker_threads = 0;
  /// Per-session queue + tracker parameters.
  SessionConfig session;
  /// Master switch for pushing kPhaseEvent frames to subscribed
  /// clients (a subscribed client must keep draining its connection).
  bool send_phase_events = true;
  /// Retained fleet transition-log tail.
  std::size_t transition_log_capacity = 1024;
  /// This daemon's shard id in a gateway fleet (0 = standalone). Session
  /// ids are allocated from the shard's disjoint range
  /// (first_session_id_for_shard), so a gateway can derive a session's
  /// owner from the id alone. Must be ≤ kMaxShardId.
  std::uint32_t shard_id = 0;

  // --- fault tolerance --------------------------------------------------

  /// Malformed/unexpected frames tolerated per session; one more and
  /// the session is quarantined (typed kProtocolError, then
  /// disconnect). Frames before the hello get no budget — an
  /// unauthenticated peer is disconnected on the first bad frame.
  std::uint32_t protocol_error_budget = 4;
  /// After an abrupt disconnect, how long the session stays resumable
  /// (a reconnecting client reattaches via hello.resume_session_id).
  /// Zero disables resume: an abrupt disconnect closes the session
  /// immediately, as before.
  std::chrono::milliseconds resume_grace{0};
  /// Attached sessions with no traffic for this long are reaped
  /// (connection closed, session ended). Zero disables reaping.
  std::chrono::milliseconds idle_timeout{0};
  /// Receive deadline armed on every accepted connection when the
  /// transport supports one (TCP does; the loopback relies on the
  /// reaper). Zero leaves reads unbounded.
  std::chrono::milliseconds read_timeout{0};

  // --- observability ----------------------------------------------------

  /// Directory for flight-recorder postmortems: when non-empty, a
  /// session that is quarantined (error budget exhausted) dumps its
  /// last-N event ring to `<dir>/postmortem-session-<id>.json` before
  /// the disconnect. Empty disables the dump (the live
  /// /sessions/<id>.json view still works).
  std::string postmortem_dir;
};

/// Multi-session phase-detection server. Lifecycle: construct over a
/// Listener (not owned, must outlive the server), start(), serve, stop()
/// — stop drains every queued frame before returning, so post-stop
/// inspection (fleet, metrics, assignments) sees the complete streams.
class Server {
 public:
  explicit Server(Listener& listener, ServerConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the accept loop and the worker pool.
  void start();

  /// Graceful shutdown: stops accepting, closes every connection,
  /// processes everything already queued, joins all threads. Idempotent.
  void stop();

  /// Begins draining: no new sessions are accepted (fresh hellos get a
  /// kRedirect error, resumes get kUnknownSession) and every attached
  /// or detached session is force-closed so its client reconnects
  /// elsewhere. Returns the number of sessions closed. Idempotent; also
  /// reachable over the wire via the kDrain control frame.
  std::uint32_t begin_drain();

  /// True once begin_drain() has run.
  bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  /// This shard's mergeable state snapshot (what a kFleetState control
  /// query returns, pre-encoding).
  ShardState shard_state() const {
    return capture_shard_state(cfg_.shard_id, draining(), fleet_, metrics_);
  }

  /// Cross-session aggregate view (thread-safe).
  const FleetAggregator& fleet() const noexcept { return fleet_; }

  /// Operational counters/gauges (thread-safe).
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Phase assignments a session's tracker has produced so far; empty
  /// when the id is unknown. Deterministic once the session closed.
  std::vector<std::size_t> session_assignments(std::uint32_t id) const;

  /// Live flight-recorder dump for one session as JSON (the
  /// /sessions/<id>.json body); empty when the id is unknown.
  std::string session_flight_json(std::uint32_t id) const;

  /// Sessions ever opened (fleet rows include closed ones).
  std::size_t session_count() const;

  /// Largest per-session queue depth observed since start.
  std::size_t max_observed_queue_depth() const;

  /// Tracker workers actually running (resolves worker_threads == 0);
  /// meaningful after start().
  std::size_t worker_count() const noexcept { return workers_.size(); }

 private:
  struct Handler {
    std::thread reader;
    /// Timestamp of the last frame read off this connection (steady
    /// ns), maintained for the idle reaper.
    std::atomic<std::uint64_t> last_activity_ns{0};
    /// Set when the reaper or a quarantine force-closed the
    /// connection: the reader must end the session rather than leave
    /// it resumable.
    std::atomic<bool> expired{false};
    /// Set when the reader thread has exited; the reaper skips retired
    /// handlers (their last_activity_ns stops advancing but their
    /// connection may have been rebound to a live successor).
    std::atomic<bool> retired{false};
    /// Rejected frames before any hello (no session to budget them).
    /// Touched by the handler's own reader thread only.
    std::uint32_t pre_hello_errors = 0;

    /// The live connection. Swapped on resume (the worker keeps
    /// pushing events through whatever connection is current), hence
    /// the lock.
    std::shared_ptr<Connection> connection() const {
      util::MutexLock lock(mu_);
      return conn_;
    }
    void rebind(std::shared_ptr<Connection> conn) {
      util::MutexLock lock(mu_);
      conn_ = std::move(conn);
    }

    /// The session bound at hello (or resume); null before. Written by
    /// the handler's own reader thread, read by workers and the reaper.
    std::shared_ptr<Session> session() const {
      util::MutexLock lock(mu_);
      return session_;
    }
    void bind_session(std::shared_ptr<Session> session) {
      util::MutexLock lock(mu_);
      session_ = std::move(session);
    }

   private:
    /// Leaf lock (acquired after Server::handlers_mu_ on scan paths,
    /// never the other way; nothing is acquired while it is held).
    mutable util::Mutex mu_;
    std::shared_ptr<Connection> conn_ INCPROF_GUARDED_BY(mu_);
    std::shared_ptr<Session> session_ INCPROF_GUARDED_BY(mu_);
  };

  void accept_loop();
  void reader_loop(const std::shared_ptr<Handler>& handler);
  void worker_loop();
  void reaper_loop();
  void schedule(const std::shared_ptr<Handler>& handler);
  void process_round(const std::shared_ptr<Handler>& handler);
  void process_frame(const std::shared_ptr<Handler>& handler,
                     const Frame& frame);
  void handle_query(const std::shared_ptr<Handler>& handler,
                    const Frame& frame);

  /// Counts one rejected frame against the handler's budget, answers
  /// with a typed kProtocolError, and quarantines (disconnect) once
  /// the budget is spent. `frame_bytes` (when available) is the
  /// offending wire frame; a hex prefix of it lands in the session's
  /// flight recorder so a postmortem shows the evidence. Returns true
  /// when the connection was closed.
  bool reject_frame(const std::shared_ptr<Handler>& handler,
                    ProtocolErrorCode code, const std::string& reason,
                    std::string_view frame_bytes = {});
  /// Dumps `session`'s flight recorder to cfg_.postmortem_dir (no-op
  /// when the directory is unset).
  void write_postmortem(const Session& session, std::string_view reason);
  /// Handles a hello carrying resume_session_id. Returns false when
  /// the resume was rejected (connection closed).
  bool resume_session(const std::shared_ptr<Handler>& handler,
                      const HelloPayload& hello);
  /// Ends an abruptly-disconnected session: detaches it when resume is
  /// enabled and allowed, else synthesizes its bye.
  void end_abandoned_session(const std::shared_ptr<Handler>& handler);
  void log_disconnect(const std::shared_ptr<Handler>& handler,
                      std::string_view cause, std::string_view detail);

  Listener& listener_;
  const ServerConfig cfg_;
  FleetAggregator fleet_;
  obs::MetricsRegistry metrics_;

  // Frame-path latency histograms, resolved once (registry references
  // are stable) so the hot path never takes the registry lock.
  obs::Histogram& decode_hist_;
  obs::Histogram& enqueue_hist_;
  obs::Histogram& process_hist_;

  std::atomic<std::uint32_t> next_session_id_{1};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> draining_{false};

  // Lock hierarchy (outer → inner): handlers_mu_ → Handler::mu_ /
  // Session::status_mu_ → Session::queue_mu_. ready_mu_ and reaper_mu_
  // are leaves — no other lock is ever acquired while one is held.
  // Handler detach-claims (Session::reattach after detached()) happen
  // only under handlers_mu_, so the reaper, a racing resume, and stop()
  // cannot all claim the same session.
  mutable util::Mutex handlers_mu_;
  std::vector<std::shared_ptr<Handler>> handlers_
      INCPROF_GUARDED_BY(handlers_mu_);

  util::Mutex ready_mu_;
  util::CondVar ready_cv_;
  util::CondVar idle_cv_;
  std::deque<std::shared_ptr<Handler>> ready_
      INCPROF_GUARDED_BY(ready_mu_);
  std::size_t busy_workers_ INCPROF_GUARDED_BY(ready_mu_) = 0;
  bool stopping_workers_ INCPROF_GUARDED_BY(ready_mu_) = false;

  util::Mutex reaper_mu_;
  util::CondVar reaper_cv_;
  bool reaper_stop_ INCPROF_GUARDED_BY(reaper_mu_) = false;

  std::thread accept_thread_;
  std::thread reaper_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace incprof::service
