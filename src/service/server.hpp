// The phase-detection daemon core: accepts many concurrent client
// sessions from a transport Listener, runs one OnlinePhaseTracker per
// session on a shared worker pool (bounded per-session queues,
// drop-and-count on overflow), answers status queries in stream order,
// pushes phase events to subscribed clients, and reports the fleet as a
// ShardState + MetricsRegistry. This is the reproduction's
// monitoring-side endpoint for the paper's LDMS deployment story.
#pragma once

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "service/fleet.hpp"
#include "service/session.hpp"
#include "service/transport.hpp"
#include "util/thread_annotations.hpp"

#include <atomic>
#include <deque>
#include <map>
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
  /// reaper). Zero leaves a session's reads unbounded; until its hello
  /// or resume is accepted, kPreHelloReadTimeout bounds them instead.
  std::chrono::milliseconds read_timeout{0};
  /// The receive deadline of a connection with no accepted hello or
  /// resume yet, when read_timeout is zero: a peer that sends part of a
  /// frame (or nothing) and waits is closed instead of holding a reader
  /// thread and an fd. Sessionless control queries (gateway pulls,
  /// drains) use one connection each, well inside it.
  static constexpr std::chrono::milliseconds kPreHelloReadTimeout{3000};

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
  /// query returns, pre-encoding): one row per session ever opened,
  /// derived from its tracker. The daemon printout, the fleet CSV and
  /// the kFleetSummary reply are all rendered from it.
  ShardState shard_state() const;

  /// The retained tail of phase-change events across sessions.
  const TransitionLog& transition_log() const noexcept { return log_; }

  /// Operational counters/gauges (thread-safe).
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Phase assignments a session's tracker has produced so far; empty
  /// when the id is unknown. Deterministic once the session closed.
  std::vector<std::size_t> session_assignments(std::uint32_t id) const;

  /// Live flight-recorder dump for one session as JSON (the
  /// /sessions/<id>.json body); empty when the id is unknown.
  std::string session_flight_json(std::uint32_t id) const;

  /// Sessions ever opened (closed ones included).
  std::size_t session_count() const;

  /// Connections not yet reaped: those with a running reader, plus the
  /// retired ones the next accept joins.
  std::size_t handler_count() const;

  /// Largest per-session queue depth observed since start.
  std::size_t max_observed_queue_depth() const;

  /// Tracker workers actually running (resolves worker_threads == 0);
  /// meaningful after start().
  std::size_t worker_count() const noexcept { return workers_.size(); }

 private:
  /// One accepted connection and the thread reading it.
  struct Handler {
    explicit Handler(std::shared_ptr<Connection> c) : conn(std::move(c)) {}
    std::thread reader;
    const std::shared_ptr<Connection> conn;
    /// Timestamp of the last frame read off this connection (steady
    /// ns), maintained for the idle reaper.
    std::atomic<std::uint64_t> last_activity_ns{0};
    /// Set as the reader thread's last act; the accept loop then joins
    /// and drops the handler.
    std::atomic<bool> retired{false};
  };

  void accept_loop();
  /// Joins and drops every handler whose reader has exited.
  void reap_retired_handlers();
  void reader_loop(const std::shared_ptr<Handler>& handler);
  void worker_loop();
  void reaper_loop();
  void schedule(const std::shared_ptr<Session>& session);
  void process_round(Session& session);
  void process_frame(Session& session, const Frame& frame);
  void handle_query(Session& session, const Frame& frame);
  /// The reply text for a query; `session` is null for a sessionless
  /// control query (which never asks for kSessionStatus).
  std::string answer_query(QueryKind kind, const Session* session) const;

  /// Counts one rejected frame against the session's budget (a null
  /// session — no hello yet — has none), answers on `conn` with a typed
  /// kProtocolError, and quarantines (disconnect) once the budget is
  /// spent. `frame_bytes` (when available) is the offending wire frame;
  /// a hex prefix of it lands in the session's flight recorder so a
  /// postmortem shows the evidence. Returns true when the connection
  /// was closed.
  bool reject_frame(Connection& conn, Session* session,
                    ProtocolErrorCode code, const std::string& reason,
                    std::string_view frame_bytes = {});
  /// Worker-side reject_frame through the session's current connection
  /// (a no-op once the session closed).
  void reject_session_frame(Session& session, ProtocolErrorCode code,
                            const std::string& reason);
  /// Dumps `session`'s flight recorder to cfg_.postmortem_dir (no-op
  /// when the directory is unset).
  void write_postmortem(const Session& session, std::string_view reason);
  /// Handles a hello carrying resume_session_id: claims the detached
  /// session and attaches it to `conn`. Returns null when the resume
  /// was rejected (connection closed).
  std::shared_ptr<Session> resume_session(
      const std::shared_ptr<Connection>& conn, const HelloPayload& hello);
  /// Ends an abruptly-disconnected session: detaches it when resume is
  /// enabled and the session is not expired, else synthesizes its bye.
  void end_abandoned_session(const std::shared_ptr<Session>& session);
  /// The open session attached to `conn`, if any.
  std::shared_ptr<Session> session_on(const Connection& conn) const;
  std::shared_ptr<Session> find_session(std::uint32_t id) const;
  /// Every session ever opened, in id order (copied out of the lock).
  std::vector<std::shared_ptr<Session>> all_sessions() const;
  void log_disconnect(const Connection* conn, const Session* session,
                      std::string_view cause, std::string_view detail);

  Listener& listener_;
  const ServerConfig cfg_;
  TransitionLog log_;
  obs::MetricsRegistry metrics_;

  // Per-frame metrics, resolved once (registry references are stable)
  // so the hot path never takes the registry lock.
  obs::Histogram& decode_hist_;
  obs::Histogram& enqueue_hist_;
  obs::Histogram& process_hist_;
  obs::Counter& frames_received_;
  obs::Counter& frames_dropped_;
  obs::Counter& snapshots_observed_;
  obs::Counter& phase_events_sent_;
  obs::Counter& heartbeat_records_;
  obs::Gauge& max_queue_depth_;

  std::atomic<std::uint32_t> next_session_id_{1};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> draining_{false};

  // Lock hierarchy (outer → inner): sessions_mu_ → Session::status_mu_
  // → Session::queue_mu_. handlers_mu_, ready_mu_ and reaper_mu_ are
  // leaves — no other lock is ever acquired while one is held. Detach
  // claims (Session::reattach after detached()) happen only under
  // sessions_mu_, so the reaper, a racing resume, a drain and stop()
  // cannot claim the same session twice.
  mutable util::Mutex sessions_mu_;
  std::map<std::uint32_t, std::shared_ptr<Session>> sessions_
      INCPROF_GUARDED_BY(sessions_mu_);

  mutable util::Mutex handlers_mu_;
  std::vector<std::shared_ptr<Handler>> handlers_
      INCPROF_GUARDED_BY(handlers_mu_);

  util::Mutex ready_mu_;
  util::CondVar ready_cv_;
  util::CondVar idle_cv_;
  std::deque<std::shared_ptr<Session>> ready_
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
