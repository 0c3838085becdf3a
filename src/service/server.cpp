#include "service/server.hpp"

#include "obs/clock.hpp"
#include "obs/trace_context.hpp"
#include "service/trace_wire.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <fstream>
#include <string>

namespace incprof::service {

namespace {

std::string hex_u64(std::uint64_t v) {
  char buf[19];
  int at = 18;
  buf[at] = '\0';
  do {
    buf[--at] = "0123456789abcdef"[v & 0xf];
    v >>= 4;
  } while (v != 0);
  return std::string("0x") + &buf[at];
}

/// Hex prefix of an offending wire frame for the flight recorder:
/// enough to see the header and the first payload bytes, bounded so a
/// hostile frame cannot bloat the postmortem.
std::string hex_prefix(std::string_view bytes, std::size_t max_bytes = 32) {
  std::string out;
  const std::size_t n = std::min(bytes.size(), max_bytes);
  out.reserve(n * 2 + 8);
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = static_cast<unsigned char>(bytes[i]);
    out.push_back("0123456789abcdef"[b >> 4]);
    out.push_back("0123456789abcdef"[b & 0xf]);
  }
  if (bytes.size() > max_bytes) out += "..";
  return out;
}

/// "trace=0x... " when the session carries a trace id, else "". The
/// correlation handle between a log line and the fleet-merged
/// /trace.json view.
std::string trace_tag(const Session& session) {
  const std::uint64_t id = session.trace_id();
  if (id == 0) return {};
  return " trace=" + hex_u64(id);
}

}  // namespace

Server::Server(Listener& listener, ServerConfig cfg)
    : listener_(listener),
      cfg_(cfg),
      log_(cfg.transition_log_capacity),
      decode_hist_(metrics_.histogram("frame_stage_ns",
                                      {{"stage", "decode"}})),
      enqueue_hist_(metrics_.histogram("frame_stage_ns",
                                       {{"stage", "enqueue"}})),
      process_hist_(metrics_.histogram("frame_stage_ns",
                                       {{"stage", "process"}})),
      frames_received_(metrics_.counter("frames_received")),
      frames_dropped_(metrics_.counter("frames_dropped")),
      snapshots_observed_(metrics_.counter("snapshots_observed")),
      phase_events_sent_(metrics_.counter("phase_events_sent")),
      heartbeat_records_(metrics_.counter("heartbeat_records")),
      max_queue_depth_(metrics_.gauge("max_queue_depth")) {
  next_session_id_.store(first_session_id_for_shard(cfg_.shard_id),
                         std::memory_order_relaxed);
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_.exchange(true)) return;
  const std::size_t n = util::ThreadPool::resolve(cfg_.worker_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (cfg_.resume_grace.count() > 0 || cfg_.idle_timeout.count() > 0) {
    reaper_thread_ = std::thread([this] { reaper_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    util::MutexLock lock(reaper_mu_);
    reaper_stop_ = true;
    reaper_cv_.notify_all();
  }
  if (reaper_thread_.joinable()) reaper_thread_.join();

  // No new connections can appear now. Shutdown overrides any resume
  // grace: every session is expired, so its reader ends it outright;
  // then every connection is closed so readers unblock, synthesize
  // their byes, and exit.
  for (const auto& session : all_sessions()) session->expire();
  std::vector<std::shared_ptr<Handler>> handlers;
  {
    util::MutexLock lock(handlers_mu_);
    handlers.swap(handlers_);
  }
  for (const auto& h : handlers) h->conn->close();
  for (const auto& h : handlers) {
    if (h->reader.joinable()) h->reader.join();
  }

  // A session detached before shutdown (or by a hello that raced the
  // expiry above) has no reader left to end it; synthesize its bye here
  // so the drain below closes it too.
  std::vector<std::shared_ptr<Session>> orphaned;
  {
    util::MutexLock lock(sessions_mu_);
    for (const auto& [id, session] : sessions_) {
      if (session->detached()) {
        session->reattach();
        orphaned.push_back(session);
      }
    }
  }
  for (const auto& session : orphaned) {
    session->expire();
    end_abandoned_session(session);
  }

  // Everything enqueued is final; drain it before releasing the pool so
  // post-stop inspection sees complete per-session streams.
  {
    util::MutexLock lock(ready_mu_);
    while (!(ready_.empty() && busy_workers_ == 0)) {
      idle_cv_.wait(ready_mu_);
    }
    stopping_workers_ = true;
    ready_cv_.notify_all();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void Server::accept_loop() {
  while (auto accepted = listener_.accept()) {
    metrics_.counter("connections_accepted").add();
    reap_retired_handlers();
    // reader_loop drops back to read_timeout once a hello or resume is
    // accepted.
    accepted->set_receive_timeout(cfg_.read_timeout.count() > 0
                                      ? cfg_.read_timeout
                                      : ServerConfig::kPreHelloReadTimeout);
    auto handler = std::make_shared<Handler>(
        std::shared_ptr<Connection>(std::move(accepted)));
    handler->last_activity_ns.store(obs::now_ns(),
                                    std::memory_order_relaxed);
    // Register and spawn under the same lock so stop() never sees a
    // handler whose reader thread is still being constructed.
    util::MutexLock lock(handlers_mu_);
    handlers_.push_back(handler);
    handler->reader =
        std::thread([this, handler] { reader_loop(handler); });
  }
}

void Server::reap_retired_handlers() {
  std::vector<std::shared_ptr<Handler>> retired;
  {
    util::MutexLock lock(handlers_mu_);
    const auto live = std::partition(
        handlers_.begin(), handlers_.end(), [](const auto& h) {
          return !h->retired.load(std::memory_order_acquire);
        });
    retired.assign(std::make_move_iterator(live),
                   std::make_move_iterator(handlers_.end()));
    handlers_.erase(live, handlers_.end());
  }
  for (const auto& h : retired) h->reader.join();
}

void Server::reader_loop(const std::shared_ptr<Handler>& handler) {
  Connection& conn = *handler->conn;
  // Bound at hello (or resume) and fixed for the reader's lifetime: a
  // session's reader is the one on the connection it is attached to.
  std::shared_ptr<Session> session;
  bool saw_bye = false;
  for (;;) {
    std::optional<std::string> bytes;
    try {
      bytes = conn.receive();
    } catch (const std::exception& e) {
      // Peer vanished mid-frame: the byte stream is desynchronized and
      // cannot be resynchronized, so the connection is done — but the
      // session may still be resumable.
      metrics_.counter("protocol_errors").add();
      log_disconnect(&conn, session.get(), "mid_frame", e.what());
      break;
    }
    if (!bytes) break;  // EOF, reset, deadline, or forced close
    handler->last_activity_ns.store(obs::now_ns(),
                                    std::memory_order_relaxed);

    // Adopt the frame's wire trace context for the rest of this
    // iteration: the decode and enqueue spans become children of the
    // sender's span, joining the client's end-to-end trace (zeros for
    // untraced or undecodable frames — the spans still record).
    const WireTraceContext wire = peek_trace_context(*bytes);
    obs::ScopedTraceContext trace_scope({wire.trace_id, wire.parent_span});

    Frame frame;
    try {
      obs::ScopedSpan span("frame.decode", "service", &decode_hist_);
      frame = decode_frame(*bytes);
    } catch (const std::exception& e) {
      // The transport delivered a delimited frame whose content is
      // garbage; framing survives, so this is recoverable — budget it.
      if (reject_frame(conn, session.get(), ProtocolErrorCode::kMalformedFrame,
                       e.what(), *bytes)) {
        break;
      }
      continue;
    }

    if (!session) {
      // Control-plane frames (a gateway's aggregator pull or drain
      // order) are valid before any hello: they concern the shard, not
      // a session, and are answered sessionless so they never pollute
      // the fleet aggregate they report on.
      if (frame.type == FrameType::kQuery) {
        QueryPayload query;
        try {
          query = decode_query(frame.payload);
        } catch (const std::exception& e) {
          reject_frame(conn, nullptr, ProtocolErrorCode::kMalformedFrame,
                       e.what(), *bytes);
          break;
        }
        if (query.kind == QueryKind::kSessionStatus) {
          reject_frame(conn, nullptr, ProtocolErrorCode::kUnexpectedFrame,
                       "session-status query before hello");
          break;
        }
        QueryReplyPayload reply;
        reply.kind = query.kind;
        reply.text = answer_query(query.kind, nullptr);
        if (conn.send(make_query_reply_frame(0, reply))) {
          metrics_.counter("control_queries").add();
        }
        continue;
      }
      if (frame.type == FrameType::kDrain) {
        DrainAckPayload ack;
        ack.sessions_closed = begin_drain();
        conn.send(make_drain_ack_frame(ack));
        continue;
      }
      if (frame.type != FrameType::kHello) {
        // Unauthenticated peers get no budget: typed error, then out.
        reject_frame(conn, nullptr, ProtocolErrorCode::kUnexpectedFrame,
                     "expected hello");
        break;
      }
      HelloPayload hello;
      try {
        hello = decode_hello(frame.payload);
      } catch (const std::exception& e) {
        reject_frame(conn, nullptr, ProtocolErrorCode::kMalformedFrame,
                     e.what(), *bytes);
        break;
      }
      if (hello.resume_session_id == 0 &&
          draining_.load(std::memory_order_relaxed)) {
        // A draining shard takes no fresh sessions; the typed redirect
        // tells the client (or gateway) to reconnect, where routing
        // will land it on a serving shard.
        metrics_.counter("redirects_sent").add();
        ProtocolErrorPayload err;
        err.code = ProtocolErrorCode::kRedirect;
        err.message = "shard draining; reconnect";
        conn.send(make_protocol_error_frame(0, err));
        conn.close();
        break;
      }
      if (hello.resume_session_id != 0) {
        session = resume_session(handler->conn, hello);
        if (!session) break;
        conn.set_receive_timeout(cfg_.read_timeout);
        continue;
      }
      const std::uint32_t id = next_session_id_.fetch_add(1);
      session = std::make_shared<Session>(id, cfg_.session);
      session->open(hello.client_name,
                    hello.subscribe_events && cfg_.send_phase_events);
      session->note_trace_id(frame.trace_id);
      session->attach(handler->conn);
      conn.set_receive_timeout(cfg_.read_timeout);
      {
        util::MutexLock lock(sessions_mu_);
        sessions_.emplace(id, session);
      }
      metrics_.counter("sessions_opened").add();
      metrics_.gauge("active_sessions").add(1);
      HelloAckPayload ack;
      ack.session_id = id;
      conn.send(make_hello_ack_frame(id, ack));
      continue;
    }

    if (frame.type == FrameType::kHello) {
      if (reject_frame(conn, session.get(),
                       ProtocolErrorCode::kUnexpectedFrame, "duplicate hello",
                       *bytes)) {
        break;
      }
      continue;
    }

    const bool is_bye = frame.type == FrameType::kBye;
    frames_received_.add();
    session->note_trace_id(frame.trace_id);
    Session::EnqueueResult result;
    {
      obs::ScopedSpan span("frame.enqueue", "service", &enqueue_hist_);
      result = session->enqueue(std::move(frame), /*force=*/is_bye);
    }
    if (result == Session::EnqueueResult::kDropped) {
      frames_dropped_.add();
    } else if (result == Session::EnqueueResult::kScheduled) {
      schedule(session);
    }
    if (is_bye) {
      saw_bye = true;
      break;
    }
  }

  if (session && !saw_bye) end_abandoned_session(session);
  // Without a bye there is nothing left to deliver, so close this
  // reader's own connection: after an EOF or error that is a no-op, but
  // after a read-deadline lapse (or a bye the network swallowed) the
  // peer is still live and must learn the server is done, or it would
  // block in its drain forever. After a real bye the worker still owes
  // the client its queued events and query reply, and closes once the
  // session drains.
  if (!saw_bye) conn.close();
  handler->retired.store(true, std::memory_order_release);
}

void Server::end_abandoned_session(const std::shared_ptr<Session>& session) {
  if (session->closed()) return;
  if (cfg_.resume_grace.count() > 0 && !session->expired()) {
    // Leave the session waiting for its client to reconnect; the
    // reaper ends it if the grace window lapses first.
    session->detach(obs::now_ns());
    metrics_.counter("sessions_detached").add();
    log_disconnect(session->connection().get(), session.get(), "detached",
                   "awaiting resume");
    return;
  }
  // Close the session as if a bye had arrived.
  Frame bye;
  bye.type = FrameType::kBye;
  bye.session = session->id();
  if (session->enqueue(std::move(bye), /*force=*/true) ==
      Session::EnqueueResult::kScheduled) {
    schedule(session);
  }
}

bool Server::reject_frame(Connection& conn, Session* session,
                          ProtocolErrorCode code, const std::string& reason,
                          std::string_view frame_bytes) {
  metrics_.counter("frames_rejected").add();
  metrics_.counter("protocol_errors").add();
  // No hello, no credit: a sessionless peer is out on its first error.
  std::uint32_t errors = 1;
  std::uint32_t budget = 0;
  std::uint32_t session_id = 0;
  if (session) {
    errors = session->note_protocol_error();
    budget = cfg_.protocol_error_budget;
    session_id = session->id();
    // The offending bytes go into the flight recorder, not the log: a
    // postmortem must show the evidence, a log line must stay short.
    std::string detail = reason;
    if (!frame_bytes.empty()) {
      detail += " frame=";
      detail += hex_prefix(frame_bytes);
    }
    session->flight_recorder().record(
        FlightEventKind::kProtocolError, obs::now_ns(), errors,
        static_cast<std::uint64_t>(code), std::move(detail));
  }
  const bool quarantine = errors > budget;

  ProtocolErrorPayload err;
  err.code = (quarantine && session) ? ProtocolErrorCode::kQuarantined
                                     : code;
  err.errors = errors;
  err.budget = budget;
  err.message = reason;
  conn.send(make_protocol_error_frame(session_id, err));
  if (!quarantine) return false;

  obs::ScopedSpan span("session.quarantine", "service");
  if (session) {
    session->expire();
    session->flight_recorder().record(FlightEventKind::kQuarantine,
                                      obs::now_ns(), errors, budget,
                                      reason);
    metrics_.counter("sessions_quarantined").add();
    util::log_warn("incprofd: session " + std::to_string(session_id) +
                   " (" + conn.description() + ") quarantined after " +
                   std::to_string(errors) + " protocol errors" +
                   trace_tag(*session) + ": " + reason);
    write_postmortem(*session, "quarantine");
  } else {
    util::log_warn("incprofd: connection " + conn.description() +
                   " rejected before hello: " + reason);
  }
  metrics_.counter("disconnects", {{"cause", "quarantine"}}).add();
  conn.close();
  return true;
}

void Server::reject_session_frame(Session& session, ProtocolErrorCode code,
                                  const std::string& reason) {
  if (const auto conn = session.connection()) {
    reject_frame(*conn, &session, code, reason);
  }
}

void Server::write_postmortem(const Session& session,
                              std::string_view reason) {
  if (cfg_.postmortem_dir.empty()) return;
  const std::string path = cfg_.postmortem_dir + "/postmortem-session-" +
                           std::to_string(session.id()) + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    util::log_warn("incprofd: cannot write postmortem " + path);
    return;
  }
  out << flight_recorder_json(session.flight_recorder(), session.id(),
                              session.client_name(), reason,
                              session.trace_id());
  metrics_.counter("postmortems_written").add();
  util::log_info("incprofd: session " + std::to_string(session.id()) +
                 " postmortem written to " + path);
}

std::shared_ptr<Session> Server::resume_session(
    const std::shared_ptr<Connection>& conn, const HelloPayload& hello) {
  std::shared_ptr<Session> session;
  // A draining shard refuses resumes too (the lookup is skipped, so the
  // reply is kUnknownSession): the client's resilient replay then
  // restarts the stream as a fresh session, which routing places on a
  // serving shard — the migration path, losing no intervals.
  if (!draining_.load(std::memory_order_relaxed)) {
    util::MutexLock lock(sessions_mu_);
    const auto it = sessions_.find(hello.resume_session_id);
    if (it != sessions_.end() && it->second->detached() &&
        !it->second->closed()) {
      session = it->second;
      session->reattach();
    }
  }
  if (!session) {
    metrics_.counter("frames_rejected").add();
    metrics_.counter("protocol_errors").add();
    ProtocolErrorPayload err;
    err.code = ProtocolErrorCode::kUnknownSession;
    err.errors = 1;
    err.budget = 0;
    err.message = "no resumable session " +
                  std::to_string(hello.resume_session_id);
    conn->send(make_protocol_error_frame(hello.resume_session_id, err));
    conn->close();
    return nullptr;
  }

  obs::ScopedSpan span("session.resume", "service");
  // From here on the worker sends through the live connection, so a
  // queued round still pushing phase events lands on the new socket.
  session->attach(conn);
  session->open(hello.client_name,
                hello.subscribe_events && cfg_.send_phase_events);
  session->flight_recorder().record(FlightEventKind::kResume,
                                    obs::now_ns(),
                                    session->snapshots_accepted(), 0,
                                    conn->description());
  metrics_.counter("reconnects").add();
  util::log_info("incprofd: session " + std::to_string(session->id()) +
                 " resumed by " + conn->description() + " at interval " +
                 std::to_string(session->snapshots_accepted()) +
                 trace_tag(*session));
  HelloAckPayload ack;
  ack.session_id = session->id();
  ack.resume_next_interval = session->snapshots_accepted();
  conn->send(make_hello_ack_frame(session->id(), ack));
  return session;
}

std::uint32_t Server::begin_drain() {
  // First the flag, then the closes: any hello that races the drain
  // either lands before the flag (session accepted, then force-closed
  // below or by a later scan — its client resumes elsewhere) or after
  // (redirected immediately).
  const bool already = draining_.exchange(true);
  if (!already) {
    metrics_.counter("drains_started").add();
    util::log_info("incprofd: shard " + std::to_string(cfg_.shard_id) +
                   " draining");
  }

  std::vector<std::shared_ptr<Session>> attached;
  std::vector<std::shared_ptr<Session>> orphaned;  // detached sessions
  {
    util::MutexLock lock(sessions_mu_);
    for (const auto& [id, session] : sessions_) {
      if (session->closed()) continue;
      if (session->detached()) {
        session->reattach();  // claimed under sessions_mu_, like stop()
        orphaned.push_back(session);
      } else if (!session->expired()) {
        attached.push_back(session);
      }
    }
  }
  // Expiry makes the reader end the session outright instead of
  // detaching it into resume limbo nobody will ever claim.
  for (const auto& session : attached) {
    session->expire();
    if (const auto conn = session->connection()) conn->close();
  }
  for (const auto& session : orphaned) {
    session->expire();
    end_abandoned_session(session);
  }
  const auto closed =
      static_cast<std::uint32_t>(attached.size() + orphaned.size());
  if (closed > 0) {
    metrics_.counter("sessions_drained").add(closed);
  }
  return closed;
}

void Server::reaper_loop() {
  const auto grace_ns =
      static_cast<std::uint64_t>(cfg_.resume_grace.count()) * 1000000ull;
  const auto idle_ns =
      static_cast<std::uint64_t>(cfg_.idle_timeout.count()) * 1000000ull;
  util::MutexLock lock(reaper_mu_);
  while (!reaper_stop_) {
    // Plain timed wait (no predicate): a spurious wakeup only makes the
    // cheap scan below run early, and stop() is re-checked every pass.
    reaper_cv_.wait_for(reaper_mu_, std::chrono::milliseconds(50));
    if (reaper_stop_) break;
    lock.unlock();

    const std::uint64_t now = obs::now_ns();
    // A stamp taken after `now` (a frame or a detach racing this scan)
    // is fresh, not a huge unsigned age.
    const auto older_than = [now](std::uint64_t stamp, std::uint64_t age) {
      return stamp < now && now - stamp > age;
    };
    std::vector<std::shared_ptr<Session>> lapsed;  // grace expired
    if (grace_ns > 0) {
      util::MutexLock sessions_lock(sessions_mu_);
      for (const auto& [id, session] : sessions_) {
        if (session->detached() &&
            older_than(session->detached_since_ns(), grace_ns)) {
          session->reattach();  // claimed; no resume can win now
          lapsed.push_back(session);
        }
      }
    }
    std::vector<std::shared_ptr<Handler>> idle;  // live but silent
    if (idle_ns > 0) {
      util::MutexLock handlers_lock(handlers_mu_);
      for (const auto& h : handlers_) {
        if (!h->retired.load(std::memory_order_acquire) &&
            older_than(h->last_activity_ns.load(std::memory_order_relaxed),
                       idle_ns)) {
          idle.push_back(h);
        }
      }
    }

    for (const auto& session : lapsed) {
      obs::ScopedSpan span("session.reap", "service");
      metrics_.counter("sessions_reaped", {{"cause", "grace_expired"}})
          .add();
      log_disconnect(session->connection().get(), session.get(),
                     "grace_expired", "client never resumed");
      // Expired, end_abandoned_session ends the session outright
      // instead of detaching it again with a fresh timestamp (which
      // would re-lapse forever).
      session->expire();
      end_abandoned_session(session);
    }
    for (const auto& h : idle) {
      obs::ScopedSpan span("session.reap", "service");
      const auto session = session_on(*h->conn);
      if (session) {
        session->expire();
        metrics_.counter("sessions_reaped", {{"cause", "idle"}}).add();
      }
      log_disconnect(h->conn.get(), session.get(), "idle",
                     "no traffic within idle timeout");
      // The reader unblocks, sees the expiry, and ends the session.
      h->conn->close();
    }

    lock.lock();
  }
}

void Server::log_disconnect(const Connection* conn, const Session* session,
                            std::string_view cause,
                            std::string_view detail) {
  metrics_.counter("disconnects", {{"cause", cause}}).add();
  std::string msg = "incprofd: connection ";
  msg += conn ? conn->description() : "?";
  if (session) {
    msg += " (session " + std::to_string(session->id()) +
           trace_tag(*session) + ")";
  }
  msg += " disconnected, cause=";
  msg += cause;
  msg += ": ";
  msg += detail;
  util::log_warn(msg);
}

void Server::schedule(const std::shared_ptr<Session>& session) {
  util::MutexLock lock(ready_mu_);
  ready_.push_back(session);
  ready_cv_.notify_one();
}

void Server::worker_loop() {
  for (;;) {
    std::shared_ptr<Session> session;
    {
      util::MutexLock lock(ready_mu_);
      while (!stopping_workers_ && ready_.empty()) {
        ready_cv_.wait(ready_mu_);
      }
      if (ready_.empty()) return;  // stopping and fully drained
      session = std::move(ready_.front());
      ready_.pop_front();
      ++busy_workers_;
    }

    process_round(*session);
    const bool again = session->finish_round();

    util::MutexLock lock(ready_mu_);
    --busy_workers_;
    if (again) {
      ready_.push_back(std::move(session));
      ready_cv_.notify_one();
    } else if (ready_.empty() && busy_workers_ == 0) {
      idle_cv_.notify_all();
    }
  }
}

void Server::process_round(Session& session) {
  const auto frames = session.take_pending();
  for (const auto& frame : frames) {
    {
      // Re-adopt the frame's wire context on this worker thread: the
      // process span (and the analysis-pipeline spans under it) join
      // the same trace the reader's decode/enqueue spans recorded.
      obs::ScopedTraceContext trace_scope(
          {frame.trace_id, frame.parent_span});
      obs::ScopedSpan span("frame.process", "service", &process_hist_);
      process_frame(session, frame);
    }
    if (frame.type == FrameType::kBye) break;
  }
  max_queue_depth_.record_max(
      static_cast<std::int64_t>(session.max_queue_depth()));
}

void Server::process_frame(Session& session, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kSnapshot: {
      gmon::ProfileSnapshot snap;
      try {
        snap = decode_snapshot(frame.payload);
      } catch (const std::exception& e) {
        reject_session_frame(session, ProtocolErrorCode::kMalformedFrame,
                             e.what());
        return;
      }
      // now_ns is read before `obs` shadows the namespace below.
      const std::uint64_t now = obs::now_ns();
      // The decoded snapshot is dead after this frame: hand it to the
      // tracker, which keeps it as its previous-dump state instead of
      // deep-copying the whole cumulative profile every interval.
      const core::OnlineObservation obs = session.observe(std::move(snap));
      session.flight_recorder().record(FlightEventKind::kIntervalReceived,
                                       now, obs.interval, obs.phase);
      if (obs.transition) {
        session.flight_recorder().record(FlightEventKind::kPhaseTransition,
                                         now, obs.interval, obs.phase);
      }
      log_.record(session.id(), obs);
      snapshots_observed_.add();
      if (session.subscribed()) {
        PhaseEventPayload event;
        event.interval = static_cast<std::uint32_t>(obs.interval);
        event.phase = static_cast<std::uint32_t>(obs.phase);
        event.new_phase = obs.new_phase;
        event.transition = obs.transition;
        event.distance = obs.distance;
        const auto conn = session.connection();
        if (conn &&
            conn->send(make_phase_event_frame(session.id(), event))) {
          phase_events_sent_.add();
        }
      }
      return;
    }
    case FrameType::kHeartbeatBatch: {
      HeartbeatBatchPayload batch;
      try {
        batch = decode_heartbeat_batch(frame.payload);
      } catch (const std::exception& e) {
        reject_session_frame(session, ProtocolErrorCode::kMalformedFrame,
                             e.what());
        return;
      }
      session.note_heartbeats(batch.records.size());
      heartbeat_records_.add(batch.records.size());
      return;
    }
    case FrameType::kQuery:
      handle_query(session, frame);
      return;
    case FrameType::kBye:
      // A real bye and a synthesized one can both be queued (quarantine
      // or reap racing the client's own farewell); close only once.
      if (session.closed()) return;
      metrics_.counter("sessions_closed").add();
      metrics_.gauge("active_sessions").add(-1);
      if (const auto conn = session.mark_closed()) conn->close();
      return;
    default:
      // Server-to-client frame types arriving here are client bugs.
      reject_session_frame(
          session, ProtocolErrorCode::kUnexpectedFrame,
          "frame type " + std::to_string(static_cast<unsigned>(frame.type)) +
              " is server-to-client");
      return;
  }
}

void Server::handle_query(Session& session, const Frame& frame) {
  QueryPayload query;
  try {
    query = decode_query(frame.payload);
  } catch (const std::exception& e) {
    reject_session_frame(session, ProtocolErrorCode::kMalformedFrame,
                         e.what());
    return;
  }
  QueryReplyPayload reply;
  reply.kind = query.kind;
  reply.text = answer_query(query.kind, &session);
  const auto conn = session.connection();
  if (conn && conn->send(make_query_reply_frame(session.id(), reply))) {
    metrics_.counter("query_replies").add();
  }
}

std::string Server::answer_query(QueryKind kind,
                                 const Session* session) const {
  switch (kind) {
    case QueryKind::kFleetSummary:
      return render_fleet(shard_state());
    case QueryKind::kFleetState:
      return encode_shard_state(shard_state());
    case QueryKind::kSessionStatus:
      return session ? session->status_line() : std::string();
    case QueryKind::kTraceDump:
      return encode_trace_dump(
          capture_trace_dump(cfg_.shard_id, obs::trace()));
  }
  return {};
}

ShardState Server::shard_state() const {
  std::vector<FleetSessionInfo> rows;
  for (const auto& session : all_sessions()) rows.push_back(session->row());
  return capture_shard_state(cfg_.shard_id, draining(), std::move(rows),
                             metrics_);
}

std::vector<std::shared_ptr<Session>> Server::all_sessions() const {
  std::vector<std::shared_ptr<Session>> out;
  util::MutexLock lock(sessions_mu_);
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) out.push_back(session);
  return out;
}

std::shared_ptr<Session> Server::find_session(std::uint32_t id) const {
  util::MutexLock lock(sessions_mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::shared_ptr<Session> Server::session_on(const Connection& conn) const {
  util::MutexLock lock(sessions_mu_);
  for (const auto& [id, session] : sessions_) {
    if (session->connection().get() == &conn) return session;
  }
  return nullptr;
}

std::vector<std::size_t> Server::session_assignments(
    std::uint32_t id) const {
  const auto session = find_session(id);
  return session ? session->assignments() : std::vector<std::size_t>{};
}

std::string Server::session_flight_json(std::uint32_t id) const {
  const auto session = find_session(id);
  if (!session) return {};
  return flight_recorder_json(session->flight_recorder(), session->id(),
                              session->client_name(), "live",
                              session->trace_id());
}

std::size_t Server::session_count() const {
  util::MutexLock lock(sessions_mu_);
  return sessions_.size();
}

std::size_t Server::handler_count() const {
  util::MutexLock lock(handlers_mu_);
  return handlers_.size();
}

}  // namespace incprof::service
